"""Persistent content-addressed cache of synthesized designs.

A design-space sweep synthesizes the same (entry, width, options)
triples on every cold run — and, worse, in *every worker process* of a
multiprocess run, because the in-memory design cache is per-process.
This module persists the synthesis flow's output the same way
:mod:`repro.runtime.cache` persists characterization results:

* :func:`synth_digest` derives a stable SHA-256 key from the *synthesis
  identity* of a job — the design entry, the target width, the
  :class:`~repro.synth.flow.SynthesisOptions` (with the technology
  library keyed by value and the variation seed normalised away when
  ``variation_sigma == 0``) and the library version.  The trace, clock
  plan and simulator are deliberately excluded: they do not influence
  the synthesized design, and jobs differing only in them must share
  one entry.
* :class:`SynthesisCache` stores the whole pickled
  :class:`~repro.synth.flow.SynthesizedDesign` — optimized netlist,
  delay annotation, sizing result and reports — through the shared
  :class:`~repro.runtime.store.ResultStore` machinery, inheriting its
  atomic writes, corruption-as-miss loads and LRU byte budget.
* :func:`active_synth_cache` is the cache the active runtime settings
  name (:mod:`repro.settings`: ``REPRO_SYNTH_CACHE`` for the directory,
  ``REPRO_SYNTH_CACHE_LIMIT_MB`` for the optional byte budget).
  :func:`configure_synth_cache` activates one programmatically; a
  multiprocess pool started afterwards hands it to its workers through
  the pool initializer.

:func:`repro.runtime.jobs.synthesize_job` is the single integration
point: every backend (serial, multiprocess workers, the planner's
grouped path and the caching backend's miss path) synthesizes through
it, so one on-disk entry serves them all.  The in-memory design cache
remains a read-through layer above this one — a disk hit is memoised
per process and never re-read.

Designs synthesized with ``variation_sigma > 0`` and a non-integer
variation seed are silently *not* cached (the draw is irreproducible,
so an entry could never be validated); everything else is.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro._version import __version__
from repro.exceptions import ConfigurationError
from repro.obs.metrics import metric_count
from repro.runtime.store import (
    CacheStats,
    ResultStore,
    _canonical,
    _canonical_synthesis,
    digest_of,
)
from repro.settings import activate_settings, active_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.designs import DesignEntry
    from repro.synth.flow import SynthesisOptions, SynthesizedDesign

#: Bumped whenever the synthesized-design payload layout changes; old
#: entries then key differently and are silently recomputed.
SYNTH_CACHE_FORMAT = 1


def cacheable(options: "SynthesisOptions") -> bool:
    """Whether a design synthesized with ``options`` may be cached.

    An irreproducible variation draw (positive sigma with a non-integer
    seed) cannot be keyed — the cache silently bypasses it rather than
    failing the run.
    """
    return options.variation_sigma == 0 or isinstance(options.variation_seed, int)


def synth_digest(entry: "DesignEntry", width: int,
                 options: "SynthesisOptions") -> str:
    """Stable content digest of one design's synthesis identity.

    Keyed like :func:`~repro.runtime.cache.job_digest` but covering only
    what determines the synthesized design: the entry, the width, the
    synthesis options (library by value, variation seed normalised when
    ``variation_sigma == 0``) and the library version.
    """
    payload = {
        "format": SYNTH_CACHE_FORMAT,
        "library_version": __version__,
        "entry": _canonical(entry),
        "width": width,
        "synthesis": _canonical_synthesis(options),
    }
    # Same conditional-key rule as job_digest: only non-adder entries
    # carry the family axis, keeping pre-registry adder digests warm.
    family = getattr(entry, "family", "adder")
    if family != "adder":
        payload["family"] = family
    return digest_of(payload)


class SynthesisCache:
    """On-disk synthesized-design cache over a :class:`ResultStore`.

    One entry per :func:`synth_digest`, holding the pickled
    :class:`~repro.synth.flow.SynthesizedDesign`.  All the durability
    properties of the store apply: concurrent writers publish complete
    files atomically, corrupt entries are discarded and recomputed, and
    ``limit_mb`` keeps the store on an LRU byte budget.
    """

    def __init__(self, root, limit_mb: Optional[float] = None) -> None:
        if limit_mb is not None and limit_mb <= 0:
            raise ConfigurationError(
                f"synthesis cache limit_mb must be positive, got {limit_mb}")
        self.stats = CacheStats()
        limit_bytes = None if limit_mb is None else max(int(limit_mb * 1024 * 1024), 1)
        self.store = ResultStore(root, stats=self.stats, limit_bytes=limit_bytes)

    # ------------------------------------------------------------------ #
    def load(self, entry: "DesignEntry", width: int,
             options: "SynthesisOptions") -> Optional["SynthesizedDesign"]:
        """The cached design, or ``None`` on a miss (counted) or when
        ``options`` is not cacheable (not counted)."""
        if not cacheable(options):
            return None
        digest = synth_digest(entry, width, options)
        payload = self.store.load(self.store.result_path(digest))
        if payload is not None:
            self.stats.hits += 1
            metric_count("synth_cache.hits")
            return payload
        self.stats.misses += 1
        metric_count("synth_cache.misses")
        return None

    def store_design(self, entry: "DesignEntry", width: int,
                     options: "SynthesisOptions",
                     synthesized: "SynthesizedDesign") -> None:
        """Persist one synthesized design (no-op when not cacheable),
        then enforce the byte budget."""
        if not cacheable(options):
            return
        digest = synth_digest(entry, width, options)
        self.store.store(self.store.result_path(digest), synthesized)
        self.store.write_meta(digest, {
            "design": entry.name,
            "width": width,
            "gates": synthesized.netlist.num_gates,
            "library_version": __version__,
        })
        self.store.prune_to_limit()


# --------------------------------------------------------------------- #
# Activation from the runtime settings
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=1)
def _cache_at(root: str, limit_mb: Optional[float]) -> SynthesisCache:
    return SynthesisCache(root, limit_mb=limit_mb)


def active_synth_cache() -> Optional[SynthesisCache]:
    """The cache the active runtime settings name, or ``None``.

    The instance persists, its stats accumulating, until the settings
    name another cache or :func:`configure_synth_cache` runs.
    """
    settings = active_settings()
    if not settings.synth_cache:
        return None
    return _cache_at(settings.synth_cache, settings.synth_cache_limit_mb)


def configure_synth_cache(root, limit_mb: Optional[float] = None) -> Optional[SynthesisCache]:
    """Activate (or with a falsy ``root``, deactivate) the synthesis cache.

    The cache becomes part of the process's active runtime settings, so
    multiprocess pools started afterwards hand it to their workers.
    Returns a fresh instance (``None`` when deactivated).
    """
    activate_settings(replace(active_settings(), synth_cache=str(root) if root else None,
                              synth_cache_limit_mb=limit_mb))
    _cache_at.cache_clear()
    return active_synth_cache()
