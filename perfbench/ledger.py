"""Per-layer attribution for the traced run.

The benchmark observes the program from outside.  :func:`instrument`
wraps public functions and methods of each layer so that every call
opens a span (or bumps a counter) through the program's own
:mod:`repro.obs` tracer and metrics registry.  Methods are wrapped on
their class and module functions in every ``repro`` module that
imported them, so every import path sees the wrapper.  Forked
multiprocess workers inherit the wrappers; their spans and counters
come back through the program's existing span spill and merge, so
worker-side layer time is read from there.

Where the program already has a span or metric at a layer boundary
(``synthesize``, ``synth.*``, ``lower``, ``simulate``, ``score``,
``schedule.wait``, cache and synthesis-cache counters, planner groups,
retries, pool rebuilds) it is read as is.

:func:`layer_metrics` turns one traced run into the per-layer metrics.
Times are host seconds summed over calls and processes, taken from the
outermost span of a name so nested calls are not counted twice.  A
layer's ``self_s`` is its span time minus the time its child spans
cover; layers without one have no child spans, so their self time is
their time.  Spans of the benchmark process hang under the
``bench.setup`` and ``bench.run`` roots, worker spans under their own.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import repro
from repro.obs.metrics import metric_count
from repro.obs.trace import Tracer, span

#: Root span names the benchmark opens around set-up and the timed run.
SETUP_SPAN = "bench.setup"
RUN_SPAN = "bench.run"

#: (module, attribute path, span name) timed around every call.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.synth_cache", "SynthesisCache.load", "bench.synth_cache.load"),
    ("repro.runtime.synth_cache", "SynthesisCache.store_design", "bench.synth_cache.store"),
    ("repro.runtime.store", "ResultStore.store", "bench.store.write"),
    ("repro.runtime.store", "ResultStore.write_meta", "bench.store.write"),
    ("repro.circuit.compiled", "CompiledProgram.__init__", "bench.lower.logic"),
    ("repro.circuit.compiled", "PackedTimingProgram.__init__", "bench.lower.timing"),
    ("repro.families.adder", "AdderFamily.exact_words", "bench.simulate.golden"),
    ("repro.families.adder", "AdderFamily.golden_words", "bench.simulate.golden"),
    ("repro.runtime.plan", "PlannedBackend.run", "bench.runtime.batch"),
    ("repro.explore.pareto", "aggregate_points", "bench.pareto"),
    ("repro.explore.pareto", "pareto_frontier", "bench.pareto"),
    ("repro.explore.pareto", "rank_frontier", "bench.pareto"),
    ("repro.ml.regress", "RandomForestRegressor.fit", "bench.surrogate.fit"),
    ("repro.ml.regress", "RandomForestRegressor.predict_all", "bench.surrogate.predict"),
    ("repro.explore.adaptive", "select_batch", "bench.adaptive.select"),
    ("repro.ml.forest", "RandomForestClassifier.fit", "bench.ml.fit"),
    ("repro.ml.forest", "RandomForestClassifier.predict_proba", "bench.ml.predict"),
    ("repro.ml.features", "build_feature_matrix", "bench.ml.features"),
    ("repro.experiments.prediction", "run_prediction_study", "bench.experiments.prediction"),
    ("repro.experiments.common", "characterize_designs", "bench.experiments.characterize"),
    ("repro.experiments.fig9_rms", "run_fig9", "bench.experiments.fig9"),
    ("repro.experiments.fig10_distribution", "run_fig10", "bench.experiments.fig10"),
    ("repro.workloads.generators", "WorkloadSpec.generate", "bench.workloads.generate"),
    ("repro.workloads.generators", "uniform_workload", "bench.workloads.generate"),
)


def _transitions(args, result) -> int:
    """Transitions of the operand trace(s) of a fast-simulator trace run."""
    traces = args[1] if isinstance(args[1], (list, tuple)) else [args[1]]
    return sum(max(len(values) for values in operands.values()) - 1
               for operands in traces)


#: (module, attribute path, counter name, amount per call).
COUNTERS: Tuple[Tuple[str, str, str, Callable], ...] = (
    ("repro.circuit.compiled", "CompiledProgram.run_packed",
     "bench.simulate.logic_passes", lambda args, result: 1),
    ("repro.circuit.compiled", "CompiledProgram.run_packed_many",
     "bench.simulate.logic_passes", lambda args, result: 1),
    ("repro.timing.fast_sim", "FastTimingSimulator.run_trace_multi",
     "bench.simulate.transitions", _transitions),
    ("repro.timing.fast_sim", "FastTimingSimulator.run_traces_multi",
     "bench.simulate.transitions", _transitions),
    ("repro.explore.sweep", "score_characterization",
     "bench.score.points", lambda args, result: len(result)),
    ("repro.runtime.resilience", "retry_call",
     "bench.runtime.tasks", lambda args, result: 1),
    ("repro.ml.tree", "DecisionTreeClassifier.fit",
     "bench.ml.trees_fit", lambda args, result: 1),
)


def _span_wrapper(original: Callable, name: str) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with span(name):
            return original(*args, **kwargs)
    return wrapper


def _count_wrapper(original: Callable, name: str, amount: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        metric_count(name, amount(args, result))
        return result
    return wrapper


def _import_all() -> None:
    """Import every ``repro`` module, so a name imported lazily later
    cannot pick up a wrapper that outlives :func:`instrument`."""
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(module.name)


def _patch(module_name: str, attribute: str, make: Callable,
           undo: List[Tuple[object, str, object]]) -> None:
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:  # a method: wrap it on its class
        original = owner.__dict__[name]
        setattr(owner, name, make(original))
        undo.append((owner, name, original))
        return
    original = getattr(owner, name)
    wrapped = make(original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))


@contextmanager
def instrument() -> Iterator[None]:
    """Install every wrapper for the ``with`` block, then restore."""
    _import_all()
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, attribute, name in SPANS:
            _patch(module_name, attribute,
                   lambda original, name=name: _span_wrapper(original, name), undo)
        for module_name, attribute, name, amount in COUNTERS:
            _patch(module_name, attribute,
                   lambda original, name=name, amount=amount:
                   _count_wrapper(original, name, amount), undo)
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# --------------------------------------------------------------------- #
# Reading a traced run
# --------------------------------------------------------------------- #
class SpanTree:
    """Aggregated span paths of one traced run (this process and its workers)."""

    def __init__(self, tracer: Tracer) -> None:
        self.wall = {path: stats.wall_s for path, stats in tracer.spans.items()}
        self.calls = {path: stats.calls for path, stats in tracer.spans.items()}
        self.children: Dict[str, List[str]] = {}
        for path in self.wall:
            if "/" in path:
                self.children.setdefault(path.rsplit("/", 1)[0], []).append(path)

    def _outermost(self, name: str) -> List[str]:
        return [path for path in self.wall
                if path.split("/")[-1] == name and name not in path.split("/")[:-1]]

    def total(self, name: str) -> float:
        return float(sum(self.wall[path] for path in self._outermost(name)))

    def count(self, name: str) -> int:
        return sum(self.calls[path] for path in self._outermost(name))

    def self_time(self, name: str) -> float:
        """Time in spans ``name`` not covered by their child spans."""
        return float(sum(self.wall[path] - sum(self.wall[child]
                                         for child in self.children.get(path, ()))
                   for path in self.wall if path.split("/")[-1] == name))

    def under(self, name: str, ancestor_prefix: str) -> float:
        """Outermost ``name`` time nested under a span named ``ancestor_prefix*``."""
        return float(sum(self.wall[path] for path in self._outermost(name)
                         if any(part.startswith(ancestor_prefix)
                                for part in path.split("/")[:-1])))

    def outside(self, name: str, ancestor: str) -> float:
        """Outermost ``name`` time *not* nested under ``ancestor``."""
        return float(sum(self.wall[path] for path in self._outermost(name)
                         if ancestor not in path.split("/")[:-1]))

    def unattributed(self, root: str) -> float:
        """Share of root span ``root`` its direct child spans leave uncovered."""
        wall = self.wall.get(root, 0.0)
        if wall <= 0:
            return 1.0
        covered = sum(self.wall[child] for child in self.children.get(root, ()))
        return max(0.0, wall - covered) / wall


def layer_metrics(tracer: Tracer, counters: Dict[str, float], workers: int,
                  run_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name (unit-free values)."""
    tree = SpanTree(tracer)
    busy = sum(worker["busy_s"] for worker in tracer.workers.values())
    worker_tasks = sum(worker["tasks"] for worker in tracer.workers.values())
    count = lambda name: float(counters.get(name, 0))  # noqa: E731
    return {
        "synth.calls": float(tree.count("synthesize")),
        "synth.s": tree.total("synthesize"),
        "synth.optimize_s": tree.total("synth.optimize"),
        "synth.sizing_s": tree.total("synth.sizing"),
        "synth.sta_s": tree.total("synth.sta"),
        "synth.self_s": tree.self_time("synthesize"),
        "synth_cache.hits": count("synth_cache.hits"),
        "synth_cache.misses": count("synth_cache.misses"),
        "synth_cache.store_s": tree.total("bench.synth_cache.store"),
        "synth_cache.load_s": tree.total("bench.synth_cache.load"),
        "lower.calls": float(tree.count("lower")),
        "lower.s": tree.total("lower"),
        "lower.logic_s": tree.total("bench.lower.logic"),
        "lower.timing_s": tree.total("bench.lower.timing"),
        "lower.self_s": tree.self_time("lower"),
        "simulate.s": tree.total("simulate"),
        "simulate.golden_s": tree.total("bench.simulate.golden"),
        "simulate.transitions": count("bench.simulate.transitions"),
        "simulate.logic_passes": count("bench.simulate.logic_passes"),
        "simulate.self_s": tree.self_time("simulate"),
        "score.s": tree.total("score"),
        "score.points": count("bench.score.points"),
        "pareto.s": tree.total("bench.pareto"),
        "runtime.groups": count("plan.groups"),
        "runtime.tasks": count("bench.runtime.tasks") + worker_tasks,
        "runtime.schedule_wait_s": tree.total("schedule.wait"),
        "runtime.worker_busy_s": busy,
        "runtime.worker_util": busy / (workers * run_wall_s) if workers else 0.0,
        "runtime.tasks_retried": count("tasks.retried"),
        "runtime.pool_rebuilds": count("pool.rebuilds"),
        "runtime.self_s": tree.self_time("bench.runtime.batch"),
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "cache.store_s": tree.outside("bench.store.write", "bench.synth_cache.store"),
        "surrogate.fit_calls": float(tree.count("bench.surrogate.fit")),
        "surrogate.fit_s": tree.total("bench.surrogate.fit"),
        "surrogate.predict_s": tree.total("bench.surrogate.predict"),
        "adaptive.select_s": tree.total("bench.adaptive.select"),
        "ml.fit_s": tree.total("bench.ml.fit"),
        "ml.trees_fit": count("bench.ml.trees_fit"),
        "ml.predict_s": tree.total("bench.ml.predict"),
        "ml.features_s": tree.total("bench.ml.features"),
        "experiments.characterize_s": tree.under("bench.runtime.batch", "bench.experiments"),
        "experiments.self_s": sum(tree.self_time(name) for name in (
            "bench.experiments.prediction", "bench.experiments.characterize",
            "bench.experiments.fig9", "bench.experiments.fig10")),
        "workloads.generate_s": tree.total("bench.workloads.generate"),
        "trace.unattributed_frac": tree.unattributed(RUN_SPAN),
    }
