"""Package metadata and console entry points.

``pip install -e .`` (or a plain install) exposes two CLIs:

* ``repro-experiments`` — regenerate the paper's Figs. 7-10
  (:func:`repro.experiments.runner.main`);
* ``repro-explore`` — enumerate, sweep and Pareto-rank ISA design
  spaces through the cached job pipeline
  (:func:`repro.explore.cli.main`);
* ``repro-stats`` — summarise telemetry directories (run manifests,
  phase totals, cache hit-rate trends, worker utilisation) and inspect
  cache-directory inventories (:func:`repro.obs.stats_cli.main`).

The modules also run without installation via ``PYTHONPATH=src
python -m repro.experiments.runner`` / ``python -m repro.explore.cli``
/ ``python -m repro.obs.stats_cli``.
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "_version.py"), encoding="utf-8") as handle:
        match = re.search(r"__version__\s*=\s*['\"]([^'\"]+)['\"]", handle.read())
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/_version.py")
    return match.group(1)


setup(
    name="repro-isa-overclocking",
    version=read_version(),
    description="Reproduction of 'Combining Structural and Timing Errors in "
                "Overclocked Inexact Speculative Adders' (DATE 2017)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-explore=repro.explore.cli:main",
            "repro-stats=repro.obs.stats_cli:main",
        ],
    },
)
