"""Adaptive frontier-guided exploration: surrogate-directed sweeps.

Exhaustive enumeration stops scaling no matter how fast one simulated
point gets: width 16 has 889 legal quadruples, width 32 has 5 802 and
width 64 has 41 739.  This module reuses the paper's own insight — a
cheap learned model can stand in for expensive simulation (the paper
uses Random Forest Classification for bit-level timing errors,
Section III) — to spend the simulation budget only where the Pareto
frontier might move:

1. **Seed.**  A small strided batch of the candidate space is simulated
   through the ordinary :func:`~repro.explore.sweep.run_sweep` pipeline
   (same planner, same result/synthesis caches).
2. **Fit.**  Three seeded :class:`~repro.ml.regress.RandomForestRegressor`
   surrogates learn the sweep's scoring axes from quadruple features —
   joint RMS relative error (with the CPR level as an extra feature),
   gate count and the area proxy — directly from the configuration, no
   simulation.
3. **Acquire.**  Every unsimulated candidate is scored at every clock
   point, and the next batch blends three slices.  *Exploit*: candidates
   predicted non-dominated — against the measured frontier first, then
   mutually among the survivors.  *Neighbor*: the unsimulated candidates
   closest (quadruple L1 distance) to designs already measured on the
   frontier — the frontier is connected in design space, so local
   refinement around confirmed points recovers its fine structure even
   where the surrogate misjudges; empirically this slice is what makes
   recall robust to the surrogate seed.  *Explore*: the tree-ensemble
   spread (candidates the bootstrap-decorrelated trees disagree on).
   All ranking is deterministic given the seed.
4. **Simulate, refit, repeat.**  The batch runs through the same cached
   job path (so adaptive and exhaustive runs share work), the surrogate
   refits on everything measured, and the loop stops on budget
   exhaustion, round limit, or when ``patience`` consecutive rounds
   leave the *measured* frontier unchanged.

The surrogate decides what to simulate, never what to report: the final
frontier contains measured points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.designs import DesignEntry
from repro.explore.pareto import (
    ParetoPoint,
    aggregate_points,
    frontier_keys,
    nondominated_mask,
    pareto_frontier,
)
from repro.explore.space import DesignSpace
from repro.explore.sweep import SweepPoint, SweepSpec, run_sweep
from repro.ml.regress import RandomForestRegressor
from repro.obs.trace import span
from repro.utils.rng import derive_seed

#: Names of the surrogate's quadruple-derived features, in column order.
SURROGATE_FEATURES = (
    "block", "spec", "correction", "reduction", "overhead_bits",
    "num_blocks", "provably_exact", "spec_ratio", "correction_ratio",
    "reduction_ratio", "block_ratio",
)

#: Floor added before the log transform of the RMS axis — measured RMS
#: relative errors span many orders of magnitude (and provably exact
#: designs measure exactly zero), and variance-reduction splits need the
#: axis compressed to learn the small-error end.  Dominance comparisons
#: are monotone-invariant, so predicted and measured values simply stay
#: in log space together.
RMS_LOG_FLOOR = 1e-9


def candidate_matrix(space: DesignSpace) -> np.ndarray:
    """The space's quadruples as a compact ``(candidates, 4)`` int array.

    Streams :meth:`~repro.explore.space.DesignSpace.iter_quadruples`, so
    the combinatorially large width-32/64 spaces never materialise a
    Python list of tuples.
    """
    flat = np.fromiter(
        (value for quadruple in space.iter_quadruples() for value in quadruple),
        dtype=np.int64)
    return flat.reshape(-1, 4)


def quadruple_features(quadruples: np.ndarray, width: int) -> np.ndarray:
    """Surrogate feature matrix of quadruple rows, columns per
    :data:`SURROGATE_FEATURES`.

    Vectorised over a ``(candidates, 4)`` array: the window widths, the
    overhead-bit total, the block count, the analytic exactness
    guarantee (mirroring
    :attr:`~repro.core.config.ISAConfig.is_provably_exact` for the
    pipeline's carry-in-0 convention) and the legal-window ratios that
    make windows comparable across block sizes.
    """
    quadruples = np.asarray(quadruples, dtype=np.float64).reshape(-1, 4)
    block, spec, correction, reduction = quadruples.T
    overhead = spec + correction + reduction
    num_blocks = float(width) / block
    provably_exact = ((num_blocks <= 2) & (spec == block)).astype(np.float64)
    return np.column_stack([
        block, spec, correction, reduction, overhead,
        num_blocks, provably_exact,
        spec / block, correction / block, reduction / block,
        block / float(width),
    ])


@dataclass(frozen=True)
class AdaptiveSpec:
    """One adaptive search: a candidate space plus the search knobs.

    Parameters
    ----------
    space:
        The quadruple space searched.
    sweep:
        Template sweep — clock plan, workloads, simulator tier,
        synthesis options and width; its ``entries`` are ignored and
        replaced batch by batch, so every simulated job lands in the
        same cache keyspace as an exhaustive sweep of the space.
    batch_size:
        Designs simulated per acquisition round.
    seed_batch:
        Designs in the initial strided batch (default: twice
        ``batch_size`` — the first fit deserves broader coverage than a
        steered round does).
    budget / budget_fraction:
        Cap on simulated designs, as an absolute count or (when
        ``budget`` is ``None``) a fraction of the space.  The exact
        baseline rides outside the budget, as in
        :meth:`DesignSpace.entries`.
    max_rounds:
        Acquisition rounds after the seed batch.
    patience:
        Consecutive rounds the measured frontier must stay unchanged
        before the search declares convergence.
    neighbor_fraction:
        Share of each batch reserved for the local-refinement slice
        (unsimulated candidates nearest the measured frontier designs).
    explore_fraction:
        Share of each batch reserved for the uncertainty slice.
    seed:
        Master seed of the surrogate ensembles (per-round streams are
        derived from it, so a re-run picks identical batches and a warm
        cache serves every job).
    """

    space: DesignSpace
    sweep: SweepSpec
    batch_size: int = 12
    seed_batch: Optional[int] = None
    budget: Optional[int] = None
    budget_fraction: float = 0.2
    max_rounds: int = 30
    patience: int = 3
    neighbor_fraction: float = 0.4
    explore_fraction: float = 0.1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.space.width != self.sweep.width:
            raise ConfigurationError(
                f"space width {self.space.width} does not match sweep width "
                f"{self.sweep.width}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed_batch is not None and self.seed_batch < 1:
            raise ConfigurationError(
                f"seed_batch must be at least 1, got {self.seed_batch}")
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError(f"budget must be at least 1, got {self.budget}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ConfigurationError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}")
        if self.max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be non-negative, got {self.max_rounds}")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be at least 1, got {self.patience}")
        if not 0.0 <= self.explore_fraction < 1.0:
            raise ConfigurationError(
                f"explore_fraction must be in [0, 1), got {self.explore_fraction}")
        if not 0.0 <= self.neighbor_fraction < 1.0:
            raise ConfigurationError(
                f"neighbor_fraction must be in [0, 1), got {self.neighbor_fraction}")
        if self.neighbor_fraction + self.explore_fraction >= 1.0:
            raise ConfigurationError(
                "neighbor_fraction + explore_fraction must leave room for the "
                f"exploit slice, got {self.neighbor_fraction} + {self.explore_fraction}")

    def resolved_budget(self, candidates: int) -> int:
        """Simulated-design cap for a space of ``candidates`` quadruples.

        The fractional budget rounds *down* so that the simulated share
        of the space never exceeds ``budget_fraction``.
        """
        if self.budget is not None:
            return min(self.budget, candidates)
        return min(candidates, max(1, int(self.budget_fraction * candidates)))


@dataclass(frozen=True)
class RoundLog:
    """Progress counters of one adaptive round (round 0 is the seed)."""

    index: int
    simulated: int
    total_simulated: int
    scored: int
    predicted_frontier: int
    frontier_size: int
    frontier_changed: bool

    def describe(self) -> str:
        """One-line progress report of this round."""
        tag = "seed " if self.index == 0 else f"round {self.index}"
        change = "changed" if self.frontier_changed else "stable"
        return (f"{tag}: simulated {self.simulated} (total {self.total_simulated}), "
                f"scored {self.scored} predicted points "
                f"({self.predicted_frontier} predicted on frontier), "
                f"measured frontier {self.frontier_size} ({change})")


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive search: measured points, frontier, logs."""

    spec: AdaptiveSpec
    points: List[SweepPoint]
    rounds: List[RoundLog]
    frontier: List[ParetoPoint]
    candidates: int
    simulated: int
    budget: int

    @property
    def fraction_simulated(self) -> float:
        """Simulated share of the candidate space (exact baseline excluded)."""
        return self.simulated / self.candidates if self.candidates else 0.0

    def describe(self) -> str:
        """One-line summary of the search."""
        return (f"adaptive search: simulated {self.simulated} of {self.candidates} "
                f"candidates ({self.fraction_simulated * 100:.1f}% of the space, "
                f"budget {self.budget}) over {len(self.rounds)} rounds; "
                f"measured frontier has {len(self.frontier)} points")


def frontier_recall(reference: Sequence[ParetoPoint],
                    recovered: Sequence[ParetoPoint]) -> float:
    """Frontier-membership recall of ``recovered`` against ``reference``.

    The fraction of the reference frontier's ``(quadruple, cpr)``
    identities present on the recovered frontier — the success metric of
    the adaptive search against an exhaustive sweep.  Because any
    measured subset keeps a full-space-non-dominated point non-dominated,
    this equals the fraction of reference-frontier designs the adaptive
    run chose to simulate.
    """
    reference_keys = frontier_keys(reference)
    if not reference_keys:
        return 1.0
    return len(reference_keys & frontier_keys(recovered)) / len(reference_keys)


# --------------------------------------------------------------------- #
# Surrogate: measured points -> per-axis forests -> predicted objectives
# --------------------------------------------------------------------- #
class _Surrogate:
    """The three per-axis forests, refitted from measured Pareto candidates.

    ``featurize``/``feature_names`` come from the operator family
    searched (default: the adder's), so the forests see whatever
    quadruple parameterisation the space enumerates.
    """

    def __init__(self, width: int, cpr_levels: Sequence[float], seed: Optional[int],
                 featurize: Optional[Callable] = None,
                 feature_names: Optional[Sequence[str]] = None) -> None:
        self.width = width
        self.cpr_levels = np.asarray(cpr_levels, dtype=np.float64)
        self.seed = seed
        self.featurize = featurize if featurize is not None else quadruple_features
        names = tuple(feature_names) if feature_names is not None else SURROGATE_FEATURES
        self.guarantee_column = names.index("provably_exact")
        self.rms: Optional[RandomForestRegressor] = None
        self.gates: Optional[RandomForestRegressor] = None
        self.area: Optional[RandomForestRegressor] = None

    def fit(self, measured: Sequence[ParetoPoint], round_index: int) -> None:
        """Refit every axis on the measured (non-baseline) candidates."""
        candidates = [point for point in measured if point.quadruple is not None]
        quadruples = np.array([point.quadruple for point in candidates], dtype=np.int64)
        features = self.featurize(quadruples, self.width)
        rms_rows = np.column_stack(
            [features, np.array([point.cpr for point in candidates])])
        rms_targets = np.log10(
            np.array([point.rms_re for point in candidates]) + RMS_LOG_FLOOR)
        # One design contributes one structural row (its cost axes are
        # identical at every clock point).
        first_cpr = min(point.cpr for point in candidates)
        structural = [point for point in candidates if point.cpr == first_cpr]
        structural_features = self.featurize(
            np.array([point.quadruple for point in structural], dtype=np.int64),
            self.width)
        gates_targets = np.array([float(point.gates) for point in structural])
        area_targets = np.array([point.area_proxy for point in structural])

        def forest(salt: int) -> RandomForestRegressor:
            return RandomForestRegressor(
                seed=derive_seed(self.seed, 1000 * round_index + salt))

        self.rms = forest(1).fit(rms_rows, rms_targets)
        self.gates = forest(2).fit(structural_features, gates_targets)
        self.area = forest(3).fit(structural_features, area_targets)

    def score(self, features: np.ndarray,
              clock_periods: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted objectives and uncertainty of candidate features.

        One ensemble evaluation per axis serves both outputs.  Returns
        ``(objectives, spread)``: the objective matrix has shape
        ``(candidates * cpr_levels, 5)`` with rows grouped by candidate
        and columns matching
        :data:`~repro.explore.pareto.DEFAULT_OBJECTIVES` — except the
        RMS axis stays in log space (dominance is monotone-invariant) —
        and ``spread`` is one normalised tree-disagreement score per
        candidate (higher = the training set constrains it less).  Each
        axis's spread is scaled by its own mean spread, so gate-count
        disagreement (hundreds) cannot drown out log-RMS disagreement
        (units).
        """
        count = features.shape[0]
        levels = self.cpr_levels.shape[0]
        tiled = np.repeat(features, levels, axis=0)
        cpr_column = np.tile(self.cpr_levels, count)
        rms_all = self.rms.predict_all(np.column_stack([tiled, cpr_column]))
        gates_all = self.gates.predict_all(features)
        area_all = self.area.predict_all(features)
        guarantee = np.repeat(1.0 - features[:, self.guarantee_column], levels)
        periods = np.tile(np.asarray(clock_periods, dtype=np.float64), count)
        objectives = np.column_stack([
            guarantee, rms_all.mean(axis=0),
            np.repeat(gates_all.mean(axis=0), levels),
            np.repeat(area_all.mean(axis=0), levels), periods])
        spread = np.zeros(count, dtype=np.float64)
        per_axis = (rms_all.std(axis=0).reshape(count, levels).mean(axis=1),
                    gates_all.std(axis=0), area_all.std(axis=0))
        for std in per_axis:
            scale = float(std.mean())
            if scale > 0:
                spread += std / scale
        return objectives, spread


def measured_objectives(frontier: Sequence[ParetoPoint]) -> np.ndarray:
    """Measured frontier points as rows comparable to surrogate predictions."""
    return np.array([[0.0 if point.provably_exact else 1.0,
                      np.log10(point.rms_re + RMS_LOG_FLOOR),
                      float(point.gates),
                      point.area_proxy,
                      point.clock_period] for point in frontier],
                    dtype=np.float64).reshape(len(frontier), 5)


def _lexorder(primary: np.ndarray, quadruples: np.ndarray) -> np.ndarray:
    """Indices sorting by ``primary`` ascending, quadruple lex as tie-break."""
    return np.lexsort((quadruples[:, 3], quadruples[:, 2], quadruples[:, 1],
                       quadruples[:, 0], primary))


def select_batch(surrogate: _Surrogate, features: np.ndarray,
                 quadruples: np.ndarray, remaining: np.ndarray,
                 frontier: Sequence[ParetoPoint], clock_periods: Sequence[float],
                 batch_size: int, neighbor_fraction: float,
                 explore_fraction: float) -> Tuple[np.ndarray, int]:
    """Pick the next batch of candidate indices (into the full space).

    Returns ``(chosen_indices, predicted_frontier_designs)``.  Three
    slices fill the batch, deduplicated in this order:

    * *exploit* — candidates with at least one predicted point that no
      measured frontier point and no other predicted point dominates,
      ranked by how many of their clock points survive;
    * *neighbor* — candidates ranked by quadruple L1 distance to the
      designs measured on the current frontier, walking each
      neighborhood in sorted quadruple order (systematic local coverage
      beats chasing the surrogate's noisy closeness estimates here);
    * *explore* — the rest, ranked by tree-ensemble spread.

    Every ordering ties off deterministically on the quadruple itself.
    """
    candidate_indices = np.flatnonzero(remaining)
    candidate_features = features[candidate_indices]
    candidate_quadruples = quadruples[candidate_indices]
    levels = len(surrogate.cpr_levels)

    predicted, spread = surrogate.score(candidate_features, clock_periods)
    # One mask over the measured frontier and the predictions keeps the
    # predicted points no anchor dominates, filtered mutually: whatever
    # an anchor-dominated point dominates, the anchor dominates too.
    anchors = measured_objectives(frontier)
    survivors = nondominated_mask(np.concatenate([anchors, predicted]))[anchors.shape[0]:]
    per_design = survivors.reshape(-1, levels).sum(axis=1)

    exploit_pool = np.flatnonzero(per_design > 0)
    exploit_order = exploit_pool[_lexorder(
        -per_design[exploit_pool].astype(np.float64),
        candidate_quadruples[exploit_pool])]

    frontier_quadruples = np.array(
        [point.quadruple for point in frontier if point.quadruple is not None],
        dtype=np.int64).reshape(-1, 4)
    if frontier_quadruples.shape[0]:
        distance = np.abs(
            candidate_quadruples[:, None, :] - frontier_quadruples[None, :, :]
        ).sum(axis=2).min(axis=1)
    else:
        distance = np.zeros(candidate_quadruples.shape[0], dtype=np.int64)
    neighbor_order = _lexorder(distance.astype(np.float64), candidate_quadruples)

    explore_count = int(round(explore_fraction * batch_size)) if batch_size > 1 else 0
    neighbor_count = int(round(neighbor_fraction * batch_size))
    exploit_count = max(0, batch_size - explore_count - neighbor_count)

    chosen: List[int] = []
    chosen_set: set = set()

    def take(order: np.ndarray, count: int) -> None:
        taken = 0
        for position in order:
            if taken >= count:
                break
            if int(position) not in chosen_set:
                chosen.append(int(position))
                chosen_set.add(int(position))
                taken += 1

    take(exploit_order, exploit_count)
    take(neighbor_order, neighbor_count)
    take(_lexorder(-spread, candidate_quadruples), batch_size - len(chosen))
    # Top up from the neighbor ranking if any pool ran dry.
    take(neighbor_order, batch_size - len(chosen))

    return candidate_indices[np.array(chosen, dtype=np.int64)], int((per_design > 0).sum())


# --------------------------------------------------------------------- #
# The active-learning loop
# --------------------------------------------------------------------- #
def run_adaptive(spec: AdaptiveSpec, backend="serial", workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Callable[[RoundLog], None]] = None) -> AdaptiveResult:
    """Run the surrogate-directed search loop over ``spec.space``.

    Backend handling mirrors :func:`~repro.explore.sweep.run_sweep`,
    except the resolved backend stack is held open across all rounds (a
    multiprocess pool and its worker caches stay warm from batch to
    batch) and closed on return only if it was constructed here.
    ``progress`` is invoked with each round's :class:`RoundLog` as it
    completes.

    Batch selection is deterministic given the seed, so re-running an
    interrupted search against the same result cache re-derives the same
    batches and loads the finished ones instead of re-simulating.
    """
    from repro.families import get_family
    from repro.runtime import backend_stack

    family = get_family(getattr(spec.space, "family", "adder"))
    quadruples = candidate_matrix(spec.space)
    candidates = quadruples.shape[0]
    if candidates == 0:
        raise ConfigurationError(f"the candidate space is empty: {spec.space.describe()}")
    features = family.surrogate_features(quadruples, spec.space.width)
    budget = spec.resolved_budget(candidates)
    clock_periods = tuple(spec.sweep.clock_plan.periods)
    cpr_levels = tuple(spec.sweep.clock_plan.cpr_levels)
    surrogate = _Surrogate(spec.space.width, cpr_levels, spec.seed,
                           featurize=family.surrogate_features,
                           feature_names=family.surrogate_feature_names)

    remaining = np.ones(candidates, dtype=bool)
    points: List[SweepPoint] = []
    rounds: List[RoundLog] = []
    frontier: List[ParetoPoint] = []
    previous_keys = None
    stable_rounds = 0

    def entries_for(indices: np.ndarray, include_exact: bool) -> List[DesignEntry]:
        entries = [family.design_entry(tuple(int(v) for v in quadruples[index]),
                                       width=spec.space.width)
                   for index in indices]
        if include_exact:
            entries.append(family.exact_entry(spec.space.width))
        return entries

    def simulate(indices: np.ndarray, include_exact: bool) -> None:
        batch_spec = spec.sweep.with_entries(entries_for(indices, include_exact))
        result = run_sweep(batch_spec, backend=resolved)
        points.extend(result.points)
        remaining[indices] = False

    def close_round(index: int, simulated: int, scored: int,
                    predicted_frontier: int) -> None:
        nonlocal frontier, previous_keys, stable_rounds
        with span("pareto"):
            frontier = pareto_frontier(aggregate_points(points))
        keys = frontier_keys(frontier)
        changed = keys != previous_keys
        stable_rounds = 0 if changed else stable_rounds + 1
        previous_keys = keys
        entry = RoundLog(index=index, simulated=simulated,
                         total_simulated=int((~remaining).sum()), scored=scored,
                         predicted_frontier=predicted_frontier,
                         frontier_size=len(frontier), frontier_changed=changed)
        rounds.append(entry)
        if progress is not None:
            progress(entry)

    with backend_stack(backend, workers, cache_dir) as resolved:
        # Round 0: strided seed batch (plus the exact baseline anchor).
        seed_count = min(spec.seed_batch or 2 * spec.batch_size, budget)
        seed_indices = np.array(
            sorted({(index * candidates) // seed_count for index in range(seed_count)}),
            dtype=np.int64)
        simulate(seed_indices, include_exact=True)
        close_round(0, simulated=len(seed_indices), scored=0, predicted_frontier=0)

        for round_index in range(1, spec.max_rounds + 1):
            simulated_total = int((~remaining).sum())
            batch = min(spec.batch_size, budget - simulated_total)
            if batch <= 0 or not remaining.any() or stable_rounds >= spec.patience:
                break
            with span("surrogate"):
                surrogate.fit(aggregate_points(points), round_index)
            with span("select"):
                chosen, predicted_frontier = select_batch(
                    surrogate, features, quadruples, remaining, frontier,
                    clock_periods, batch, spec.neighbor_fraction,
                    spec.explore_fraction)
            scored = int(remaining.sum()) * len(cpr_levels)
            simulate(chosen, include_exact=False)
            close_round(round_index, simulated=len(chosen), scored=scored,
                        predicted_frontier=predicted_frontier)

    return AdaptiveResult(spec=spec, points=points, rounds=rounds,
                          frontier=frontier, candidates=candidates,
                          simulated=int((~remaining).sum()), budget=budget)
