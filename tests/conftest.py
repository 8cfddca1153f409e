"""Shared fixtures for the test suite.

Synthesis and timing simulation are the expensive operations; fixtures
that need them are session-scoped and use reduced widths/trace lengths so
the whole suite stays fast while still exercising real code paths.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import ISAConfig
from repro.synth.flow import SynthesisOptions, exact_adder_netlist, synthesize
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import uniform_workload


@pytest.fixture(autouse=True)
def _fresh_runtime_state():
    """Isolate the design memo and the runtime settings between tests.

    ``synthesize_job`` memoises per synthesis identity, so without this
    a test asserting that synthesis *ran* (phase counters, cache
    hit/miss accounting) would observe another test's warm memo.  The
    active runtime settings are restored after each test, so settings a
    test activates (``configure_synth_cache``, fault plans, CLI runs)
    never leak into the next one.
    """
    from repro.runtime.jobs import clear_design_cache
    from repro.settings import using_settings
    clear_design_cache()
    with using_settings():
        yield


@pytest.fixture
def repro_env(monkeypatch):
    """Set (or, with ``None``, unset) ``REPRO_*`` variables for one test
    and re-resolve the active runtime settings from the environment."""
    from repro.settings import RuntimeSettings, activate_settings

    def apply(**variables):
        for name, value in variables.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        activate_settings(RuntimeSettings.from_env())

    return apply


@pytest.fixture
def unresolved_settings(monkeypatch):
    """Forget the active runtime settings for one test, so that — as in
    a new process — the first consumer resolves them from the
    environment as the test has set it."""
    import repro.settings
    monkeypatch.setattr(repro.settings, "_ACTIVE", None)


@pytest.fixture
def pool_of(monkeypatch):
    """Factory of multiprocess backends with exactly the requested workers.

    ``MultiprocessBackend`` clamps a request to ``os.cpu_count()``; the
    count is patched up so a pool has the asked-for size on any host,
    and tests of worker-count independence test the count they name.
    Every backend made here is closed on teardown.
    """
    from repro.runtime import MultiprocessBackend
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    backends = []

    def make(workers, **kwargs):
        backend = MultiprocessBackend(workers=workers, **kwargs)
        backends.append(backend)
        return backend

    yield make
    for backend in backends:
        backend.close()


@pytest.fixture(scope="session")
def rng():
    """Deterministic random generator shared by the tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_isa_config():
    """A 16-bit ISA configuration small enough for exhaustive-ish checks."""
    return ISAConfig(width=16, block_size=4, spec_size=2, correction=1, reduction=2)


@pytest.fixture(scope="session")
def paper_isa_config():
    """The paper's Fig. 10 configuration (8,0,0,4) at full 32-bit width."""
    return ISAConfig.from_quadruple((8, 0, 0, 4))


@pytest.fixture(scope="session")
def synthesis_options():
    """Default synthesis options used across synthesis/timing tests."""
    return SynthesisOptions()


@pytest.fixture(scope="session")
def synthesized_small_isa(small_isa_config, synthesis_options):
    """Synthesized 16-bit ISA (netlist + delay annotation), shared by timing tests."""
    return synthesize(small_isa_config, synthesis_options)


@pytest.fixture(scope="session")
def synthesized_exact16(synthesis_options):
    """Synthesized 16-bit exact adder, shared by timing tests."""
    return synthesize(exact_adder_netlist(16), synthesis_options)


@pytest.fixture(scope="session")
def clock_plan():
    """The paper's clock plan (0.3 ns safe period, 5/10/15 % CPR)."""
    return ClockPlan.paper()


@pytest.fixture(scope="session")
def short_trace16():
    """Short 16-bit operand trace for timing-simulation tests."""
    return uniform_workload(200, width=16, seed=99)


@pytest.fixture(scope="session")
def short_trace32():
    """Short 32-bit operand trace for behavioural characterisation tests."""
    return uniform_workload(400, width=32, seed=100)
