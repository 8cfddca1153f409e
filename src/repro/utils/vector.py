"""Process-wide toggle between the vectorized and reference synthesis kernels.

The synthesis flow has two implementations of its hot inner loops — the
levelised NumPy array kernels (STA, sizing, optimize) and the original
per-gate reference code they are bit-identical to.  The vectorized path
is the default; the reference path stays selectable for equivalence
testing, benchmarking and debugging:

* per call: every kernel entry point takes ``vector: Optional[bool]``
  (``None`` defers to the process default);
* per process: the ``synth_vector`` field of the active runtime
  settings (:mod:`repro.settings`; ``REPRO_SYNTH_VECTOR=0`` selects the
  reference path), which multiprocess workers receive from the driver;
* per block: :func:`vector_override` forces one path for a ``with``
  region (used by the equivalence tests and the benchmark).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.settings import active_settings

#: Active override installed by :func:`vector_override` (wins over both
#: the settings default and, deliberately, over explicit ``vector=`` call
#: arguments *resolved inside* the block — the override is what makes a
#: whole flow run comparable end to end).
_OVERRIDE: Optional[bool] = None


def use_vector(override: Optional[bool] = None) -> bool:
    """Resolve whether the vectorized kernels should run.

    Precedence: an active :func:`vector_override` block, then the
    explicit per-call ``override``, then the active settings' default.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    if override is not None:
        return override
    return active_settings().synth_vector


@contextmanager
def vector_override(value: bool) -> Iterator[None]:
    """Force one kernel path for the duration of the ``with`` block."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = bool(value)
    try:
        yield
    finally:
        _OVERRIDE = previous
