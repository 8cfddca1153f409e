"""Content-addressed pickle store shared by the runtime caches.

This module is the cache *mechanism*, split out of
:mod:`repro.runtime.cache` so that more than one cache can sit on top of
it: the job-level result cache (:class:`~repro.runtime.cache.CachingBackend`)
and the synthesis-level design cache
(:class:`~repro.runtime.synth_cache.SynthesisCache`) both persist through
the same :class:`ResultStore` machinery — atomic temp-file + rename
writes, corruption-as-miss loads and an LRU byte budget enforced from
one walk of the store.

It also holds the *identity* helpers shared by every digest:
:func:`_canonical` (stable canonical forms of key components),
:func:`_canonical_synthesis` (variation-seed normalisation) and
:func:`trace_digest` (content digest of an operand trace).  The
digest *composition* stays with each cache — see
:func:`repro.runtime.cache.job_digest` and
:func:`repro.runtime.synth_cache.synth_digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.circuit.library import TechnologyLibrary
from repro.exceptions import ConfigurationError
from repro.obs.metrics import active_registries, metric_count
from repro.runtime.faultinject import (
    POINT_STORE_WRITE,
    POINT_STORE_WRITE_DONE,
    fault_point,
)

#: Bumped whenever a stored payload layout changes; old entries are
#: then unreadable by design and silently recomputed.  Caches layer
#: their own format counters on top (``CACHE_FORMAT``,
#: ``SYNTH_CACHE_FORMAT``) for payload-specific evolution.
STORE_FORMAT = 1

#: Fraction of the byte budget a pruning walk evicts down to.  Stopping
#: below the budget leaves room for about a tenth of it to be written
#: before the next walk; stopping at the budget would make every write
#: after the store first fills walk the whole store again.
LOW_WATER_FRACTION = 0.9


# --------------------------------------------------------------------- #
# Identity -> digest building blocks
# --------------------------------------------------------------------- #
def _canonical(value):
    """JSON-serialisable canonical form of a cache-key component.

    Floats go through :meth:`float.hex` so the digest is exact, not
    subject to repr rounding; dataclasses flatten to name-tagged field
    dicts; libraries use their value key (the same one their ``__eq__``
    compares by).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, TechnologyLibrary):
        return {"__library__": _canonical(value._value_key())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        fields["__dataclass__"] = type(value).__name__
        return fields
    raise ConfigurationError(
        f"cannot derive a stable cache key from a {type(value).__name__} "
        f"({value!r}); cache keys are built from primitives and dataclasses")


def _canonical_synthesis(options) -> dict:
    """Synthesis options with the variation seed normalised for keying.

    With ``variation_sigma == 0`` the seed cannot influence the result,
    so it is normalised away (all unvaried runs share entries).  With a
    positive sigma only integer seeds are reproducible enough to cache
    under — generator objects carry hidden state a digest cannot see.
    """
    canonical = _canonical(
        dataclasses.replace(options, variation_seed=None)
        if options.variation_sigma == 0 else
        options if isinstance(options.variation_seed, int) else None)
    if canonical is None:
        raise ConfigurationError(
            "result caching with variation_sigma > 0 requires an integer "
            f"variation_seed, got {options.variation_seed!r}")
    return canonical


def trace_digest(trace) -> str:
    """SHA-256 of a trace's *content*: width, length and operand bytes.

    The trace name is deliberately excluded — it records provenance
    (e.g. slice positions), not stimulus, and two identically-valued
    traces must share cache entries.
    """
    digest = hashlib.sha256()
    digest.update(f"operand-trace/{trace.width}/{trace.length}/".encode())
    digest.update(np.asarray(trace.a, dtype=np.uint64).astype("<u8", copy=False).tobytes())
    digest.update(np.asarray(trace.b, dtype=np.uint64).astype("<u8", copy=False).tobytes())
    return digest.hexdigest()


def digest_of(payload: dict) -> str:
    """SHA-256 of a canonical-form key payload (sorted compact JSON)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# On-disk store
# --------------------------------------------------------------------- #
@dataclass
class CacheStats:
    """Counters of one cache (cumulative across runs).

    Shared cache instances accumulate over a whole process; callers
    reporting a single run take a :meth:`snapshot` first and describe the
    :meth:`since` delta, so one study's footer never shows another
    study's hits.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    pruned: int = 0
    write_errors: int = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counter values."""
        return dataclasses.replace(self)

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter deltas accumulated after ``baseline`` was snapshotted."""
        return CacheStats(**{
            counter.name: getattr(self, counter.name) - getattr(baseline, counter.name)
            for counter in dataclasses.fields(self)})

    def describe(self) -> str:
        """Footer-ready summary, e.g. ``"24 hits / 0 misses"``."""
        text = f"{self.hits} hits / {self.misses} misses"
        if self.corrupt:
            text += f", {self.corrupt} corrupt entries discarded"
        if self.pruned:
            text += f", {self.pruned} entries pruned to the size budget"
        if self.write_errors:
            text += f", {self.write_errors} writes skipped on I/O errors"
        return text


class ResultStore:
    """Content-addressed pickle store with atomic, corruption-safe entries.

    Layout: ``<root>/<digest[:2]>/<digest>/`` holds one ``result.pkl``.

    ``limit_bytes`` puts the store on a byte budget: after a batch of
    writes, :meth:`prune_to_limit` deletes whole entries
    least-recently-used-first (:meth:`load` refreshes the mtime of what
    it reads, so both writes and hits count as use) until the store
    holds at most :data:`LOW_WATER_FRACTION` of the budget.  An
    unbounded design-space sweep can therefore never fill the disk; the
    evicted work simply becomes a recompute-miss on its next request.

    The budget is advisory.  A prune walks the store only when the
    bytes it held at the last walk plus the bytes this store has written
    since could exceed the budget (the first prune always walks), so a
    store under budget prunes for free.  Entries written by *other*
    processes are counted at the next walk.
    """

    def __init__(self, root, stats: Optional[CacheStats] = None,
                 limit_bytes: Optional[int] = None) -> None:
        if limit_bytes is not None and limit_bytes < 1:
            raise ConfigurationError(
                f"cache limit_bytes must be positive, got {limit_bytes}")
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = stats if stats is not None else CacheStats()
        self.limit_bytes = limit_bytes
        self._write_warned = False
        #: Bytes held at the last walk plus every byte written since;
        #: ``None`` until the first prune walks the store.
        self._counted: Optional[int] = None

    # ------------------------------------------------------------------ #
    def entry_dir(self, digest: str) -> Path:
        """Directory holding every file of one cache entry."""
        return self.root / digest[:2] / digest

    def result_path(self, digest: str) -> Path:
        return self.entry_dir(digest) / "result.pkl"

    # ------------------------------------------------------------------ #
    def load(self, path: Path):
        """The stored payload, or ``None`` when absent or unreadable.

        A truncated, corrupted or foreign-format file is discarded and
        counted — the caller recomputes; a damaged cache never crashes
        a run.
        """
        try:
            with open(path, "rb") as handle:
                wrapper = pickle.load(handle)
            if wrapper["format"] != STORE_FORMAT:
                raise ValueError(f"unknown cache format {wrapper['format']!r}")
            try:
                # Refresh the mtime so budget pruning evicts by *use*, not
                # by write: an entry the current batch just hit must never
                # be the "oldest" one the same batch's prune throws away.
                os.utime(path)
            except OSError:
                pass
            return wrapper["payload"]
        except FileNotFoundError:
            return None
        except Exception:
            self.stats.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def store(self, path: Path, payload) -> None:
        """Atomically persist ``payload`` (write-to-temp + rename).

        The temp file lives in the target directory so the final
        :func:`os.replace` stays on one filesystem and is atomic;
        concurrent writers of the same key each publish a complete file
        and the last rename wins (all writers produce identical bytes
        for identical keys, so the winner does not matter).

        A transient :class:`OSError` anywhere in the write path
        (``ENOSPC``, ``EACCES``, a flaky filesystem) is absorbed: the
        entry simply stays a miss, counted in ``stats.write_errors`` and
        warned about once per store — symmetric with :meth:`load`
        treating corruption as a miss, so cache I/O never crashes a long
        sweep.  Unpicklable payloads still raise: that is a caller bug,
        not an environment fault.
        """
        try:
            fault_point(POINT_STORE_WRITE, str(path))
            self._publish(path, "wb", lambda stream: pickle.dump(
                {"format": STORE_FORMAT, "payload": payload}, stream,
                protocol=pickle.HIGHEST_PROTOCOL))
        except OSError as error:
            self._note_write_failure(path, error)
            return
        try:
            written = os.stat(path).st_size
        except OSError:  # a concurrent prune already removed it
            written = 0
        if self._counted is not None:
            self._counted += written
        if active_registries():
            metric_count("store.bytes_written", written)
        # Post-publish hook: lets the fault harness corrupt the entry we
        # just wrote (exercising the corruption-as-miss read path).
        fault_point(POINT_STORE_WRITE_DONE, str(path))

    @staticmethod
    def _publish(path: Path, mode: str, write: Callable) -> None:
        """Atomically publish ``path`` with what ``write(stream)`` writes.

        ``write`` fills a temp file opened in ``mode`` in the target
        directory, so the :func:`os.replace` that publishes it stays on
        one filesystem.  On any failure the temp file is removed and the
        error re-raised.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                             suffix=path.suffix)
        encoding = None if "b" in mode else "utf-8"
        try:
            with os.fdopen(handle, mode, encoding=encoding) as stream:
                write(stream)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _note_write_failure(self, path: Path, error: OSError) -> None:
        """Count a swallowed write error; warn on the first one only."""
        self.stats.write_errors += 1
        metric_count("store.write_errors")
        if not self._write_warned:
            self._write_warned = True
            warnings.warn(
                f"cache write to {path} failed ({error}); the entry stays a "
                f"miss and further write failures of this store will not be "
                f"re-warned", RuntimeWarning, stacklevel=3)

    # No cache writes meta.json any more: every entry is one result.pkl.
    # The method stays, uncalled, because perfbench/ledger.py wraps it by
    # name, looking it up in this class's own __dict__; deleting it would
    # fail every traced benchmark run.  It goes when the benchmark changes.
    def write_meta(self, digest: str, meta: dict) -> None:
        """Best-effort ``meta.json`` describing the entry for humans.

        An :class:`OSError` leaves the entry without one; a value JSON
        cannot encode still raises (a caller bug).
        """
        path = self.entry_dir(digest) / "meta.json"
        if path.exists():
            return
        try:
            self._publish(path, "w", lambda stream: json.dump(
                meta, stream, indent=2, sort_keys=True))
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Inventory and byte budget
    # ------------------------------------------------------------------ #
    def entry_inventory(self) -> List[Tuple[float, int, Path]]:
        """Every entry directory as ``(newest_mtime, total_bytes, path)``.

        One fresh walk of prefix -> entry -> files; no payload is read.
        An entry another process removes mid-walk is left out — the
        inventory is advisory, never load-bearing.
        """
        inventory = []
        for prefix in _subdirectories(self.root):
            for entry in _subdirectories(prefix):
                try:
                    with os.scandir(entry) as items:
                        stats = [item.stat() for item in items]
                except OSError:
                    continue
                inventory.append((max((stat.st_mtime for stat in stats), default=0.0),
                                  sum(stat.st_size for stat in stats), Path(entry)))
        return inventory

    def total_bytes(self) -> int:
        """Bytes currently held by every entry of the store."""
        return sum(size for _, size, _ in self.entry_inventory())

    def prune_to_limit(self) -> int:
        """Keep the store within ``limit_bytes``, evicting least-recently-used entries.

        Returns the number of entries removed (also accumulated into
        ``stats.pruned``).  A ``None`` budget is a no-op, and so is a
        prune whose counted bytes still fit the budget; otherwise the
        store is walked afresh and, if it is over the budget, emptied
        down to :data:`LOW_WATER_FRACTION` of it.  Eviction is
        whole-entry: the directory goes with every file in it, so no
        half-deleted entry or leftover file outlives its ``result.pkl``.
        """
        if self.limit_bytes is None or (
                self._counted is not None and self._counted <= self.limit_bytes):
            return 0
        inventory = sorted(self.entry_inventory())
        total = sum(size for _, size, _ in inventory)
        target = self.limit_bytes * LOW_WATER_FRACTION if total > self.limit_bytes else total
        removed = 0
        for _, size, entry in inventory:
            if total <= target:
                break
            shutil.rmtree(entry, ignore_errors=True)
            total -= size
            removed += 1
        self._counted = total
        self.stats.pruned += removed
        if removed:
            metric_count("store.entries_pruned", removed)
        return removed


def _subdirectories(path) -> List[str]:
    """Paths of the directories directly under ``path`` (none if unreadable)."""
    try:
        with os.scandir(path) as items:
            return [item.path for item in items if item.is_dir()]
    except OSError:
        return []
