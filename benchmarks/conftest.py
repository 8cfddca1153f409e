"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's figures (or an ablation)
and writes the resulting table to ``benchmarks/results/`` so the numbers
can be compared against the paper's.

Trace lengths default to a laptop-friendly fraction of the full study and
can be scaled with the ``REPRO_BENCH_SCALE`` environment variable
(e.g. ``REPRO_BENCH_SCALE=4`` for a higher-fidelity overnight run).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import StudyConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: Default trace lengths of the benchmark harness (multiplied by REPRO_BENCH_SCALE).
BENCH_CHARACTERIZATION = 1500
BENCH_TRAINING = 900
BENCH_EVALUATION = 700


def bench_scale() -> float:
    """Scale factor applied to every benchmark trace length."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def bench_config() -> StudyConfig:
    """Study configuration shared by the figure benchmarks (event-driven simulator)."""
    scale = bench_scale()
    return StudyConfig(
        characterization_length=max(int(BENCH_CHARACTERIZATION * scale), 64),
        training_length=max(int(BENCH_TRAINING * scale), 64),
        evaluation_length=max(int(BENCH_EVALUATION * scale), 64),
        seed=2017,
        simulator="event",
    )


@pytest.fixture(scope="session")
def fast_bench_config(bench_config) -> StudyConfig:
    """Same study but with the fast (no-glitch) simulator, used by ablations."""
    from dataclasses import replace
    return replace(bench_config, simulator="fast")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory collecting the regenerated tables."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated table and echo it to stdout."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
