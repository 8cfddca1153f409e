"""Content-addressed pickle store shared by the runtime caches.

This module is the cache *mechanism*, split out of
:mod:`repro.runtime.cache` so that more than one cache can sit on top of
it: the job-level result cache (:class:`~repro.runtime.cache.CachingBackend`)
and the synthesis-level design cache
(:class:`~repro.runtime.synth_cache.SynthesisCache`) both persist through
the same :class:`ResultStore` machinery — atomic temp-file + rename
writes, corruption-as-miss loads, an LRU byte budget and an
incrementally maintained inventory index.

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
from typing import Callable, Dict, List, Optional, Tuple

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
    :meth:`since` delta (or call
    :meth:`~repro.runtime.cache.CachingBackend.reset_counters`), so one
    study's footer never shows another study's hits.
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

    def reset(self) -> None:
        """Zero every counter in place (the object stays shared with its store)."""
        for counter in dataclasses.fields(self):
            setattr(self, counter.name, 0)

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

    Layout: ``<root>/<digest[:2]>/<digest>/`` holds one ``result.pkl``
    plus a best-effort human-readable ``meta.json``.

    ``limit_bytes`` puts the store on a byte budget: after a batch of
    writes, :meth:`prune_to_limit` deletes whole entries
    least-recently-used-first (:meth:`load` refreshes the mtime of what
    it reads, so both writes and hits count as use) until the store
    fits.  An unbounded design-space sweep can
    therefore never fill the disk; the evicted work simply becomes a
    recompute-miss on its next request.

    The inventory behind the budget is an in-memory ``(newest mtime,
    total bytes)`` index per entry, built by one full scan on first use
    and updated incrementally by this store's own writes, reads and
    prunes.  Work by *other* processes is detected through the mtimes of
    the 256 prefix directories (entry creation and deletion touch them),
    so a refresh costs O(prefixes) stats instead of O(entries x files);
    a concurrent writer mutating files *inside* an existing entry goes
    unseen until that entry is touched locally — acceptable, because the
    inventory is advisory (budget enforcement), never load-bearing.
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
        #: prefix dir -> {entry dir -> [newest mtime, total bytes]};
        #: None until first use.  Bucketing by prefix keeps a prefix
        #: rescan proportional to that prefix's entries, not the store.
        self._index: Optional[Dict[Path, Dict[Path, List]]] = None
        #: prefix dir -> st_mtime_ns at the last (re)scan.
        self._prefix_signatures: Dict[Path, int] = {}

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
            self._note_use(path)
            return wrapper["payload"]
        except FileNotFoundError:
            return None
        except Exception:
            self.stats.corrupt += 1
            self._discard(path)
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
            observation = self._observe_before_write(path)
            replaced = self._size_of(path)
            self._publish(path, "wb", lambda stream: pickle.dump(
                {"format": STORE_FORMAT, "payload": payload}, stream,
                protocol=pickle.HIGHEST_PROTOCOL))
        except OSError as error:
            self._note_write_failure(path, error)
            return
        self._note_write(path, replaced, observation)
        if active_registries():
            metric_count("store.bytes_written", self._size_of(path))
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

    def write_meta(self, digest: str, meta: dict) -> None:
        """Best-effort ``meta.json`` describing the entry for humans.

        An :class:`OSError` leaves the entry without one; a value JSON
        cannot encode still raises (a caller bug).
        """
        path = self.entry_dir(digest) / "meta.json"
        if path.exists():
            return
        observation = self._observe_before_write(path)
        try:
            self._publish(path, "w", lambda stream: json.dump(
                meta, stream, indent=2, sort_keys=True))
        except OSError:
            return
        self._note_write(path, 0, observation)

    def _discard(self, path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            return
        if self._index is not None:
            # Corruption implies an outside actor already touched the
            # entry, so the cheap size delta cannot be trusted — rescan
            # this one entry (corruption is rare; the scan is per-file
            # stats of a single directory).
            entry = path.parent
            bucket = self._index.setdefault(entry.parent, {})
            record = self._scan_entry(entry)
            if record is not None:
                bucket[entry] = record
            else:
                bucket.pop(entry, None)

    # ------------------------------------------------------------------ #
    # Inventory index
    # ------------------------------------------------------------------ #
    @staticmethod
    def _size_of(path: Path) -> int:
        try:
            return os.stat(path).st_size
        except OSError:
            return 0

    def _observe_before_write(self, path: Path) -> Optional[Tuple[bool, Optional[int]]]:
        """Snapshot taken before a write: is the entry dir new, and what
        was the prefix's mtime at that moment?  ``None`` before first use."""
        if self._index is None:
            return None
        entry = path.parent
        if entry.is_dir():
            return (False, None)
        try:
            return (True, entry.parent.stat().st_mtime_ns)
        except OSError:
            return (True, None)

    def _note_write(self, path: Path, replaced_bytes: int,
                    observation: Optional[Tuple[bool, Optional[int]]]) -> None:
        """Fold one written file into the index (no-op before first use)."""
        if self._index is None or observation is None:
            return
        try:
            stat = os.stat(path)
        except OSError:
            return
        entry = path.parent
        bucket = self._index.setdefault(entry.parent, {})
        record = bucket.get(entry)
        if record is None:
            bucket[entry] = [stat.st_mtime, stat.st_size]
        else:
            record[0] = max(record[0], stat.st_mtime)
            record[1] = max(record[1] + stat.st_size - replaced_bytes, 0)
        created_entry, prefix_sig_before = observation
        if created_entry:
            # Our mkdir changed the prefix mtime.  Re-record it only if
            # nothing else had changed it since our last scan — else a
            # concurrent writer's entries would be masked behind our own
            # signature; leaving it stale forces a rescan that sees both.
            prefix = entry.parent
            if prefix_sig_before is not None and \
                    self._prefix_signatures.get(prefix) == prefix_sig_before:
                try:
                    self._prefix_signatures[prefix] = prefix.stat().st_mtime_ns
                except OSError:
                    self._prefix_signatures.pop(prefix, None)

    def _note_use(self, path: Path) -> None:
        """Track a refreshed mtime so pruning sees the entry as recent."""
        if self._index is None:
            return
        record = self._index.get(path.parent.parent, {}).get(path.parent)
        if record is not None:
            try:
                record[0] = max(record[0], os.stat(path).st_mtime)
            except OSError:
                pass

    def _scan_entry(self, entry: Path) -> Optional[List]:
        newest, total = 0.0, 0
        try:
            for item in entry.iterdir():
                stat = item.stat()
                newest = max(newest, stat.st_mtime)
                total += stat.st_size
        except OSError:
            return None
        return [newest, total]

    def _rescan_prefix(self, prefix: Path) -> None:
        assert self._index is not None
        try:
            signature = prefix.stat().st_mtime_ns
        except OSError:
            signature = None
        bucket: Dict[Path, List] = {}
        try:
            children = [child for child in prefix.iterdir() if child.is_dir()]
        except OSError:
            children = []
        for entry in children:
            record = self._scan_entry(entry)
            if record is not None:
                bucket[entry] = record
        self._index[prefix] = bucket
        if signature is not None:
            self._prefix_signatures[prefix] = signature
        else:
            self._prefix_signatures.pop(prefix, None)

    def _refresh_index(self) -> None:
        """Build the index on first use; afterwards rescan only prefixes
        whose mtime changed (external entry creation or deletion)."""
        try:
            prefixes = [child for child in self.root.iterdir() if child.is_dir()]
        except OSError:
            prefixes = []
        if self._index is None:
            self._index = {}
            self._prefix_signatures = {}
            for prefix in prefixes:
                self._rescan_prefix(prefix)
            return
        current = set(prefixes)
        for prefix in prefixes:
            try:
                signature = prefix.stat().st_mtime_ns
            except OSError:
                continue
            if self._prefix_signatures.get(prefix) != signature:
                self._rescan_prefix(prefix)
        for prefix in list(self._index):
            if prefix not in current:
                self._index.pop(prefix, None)
                self._prefix_signatures.pop(prefix, None)

    def entry_inventory(self) -> List[Tuple[float, int, Path]]:
        """Every entry directory as ``(newest_mtime, total_bytes, path)``.

        Served from the incrementally maintained index — one full scan
        on first use, O(prefix-dir stats) afterwards.  Entries deleted
        by a concurrent pruner may linger until their prefix is
        rescanned — the inventory is advisory, never load-bearing.
        """
        self._refresh_index()
        assert self._index is not None
        return [(record[0], record[1], entry)
                for bucket in self._index.values()
                for entry, record in bucket.items()]

    def total_bytes(self) -> int:
        """Bytes currently held by every entry of the store."""
        return sum(size for _, size, _ in self.entry_inventory())

    def prune_to_limit(self) -> int:
        """Delete oldest entries until the store fits ``limit_bytes``.

        Returns the number of entries removed (also accumulated into
        ``stats.pruned``).  A ``None`` budget is a no-op.  Eviction is
        whole-entry: the directory goes with every file in it, so no
        half-deleted entry or leftover file outlives its ``result.pkl``.
        """
        if self.limit_bytes is None:
            return 0
        inventory = sorted(self.entry_inventory())
        total = sum(size for _, size, _ in inventory)
        removed = 0
        for _, size, entry in inventory:
            if total <= self.limit_bytes:
                break
            shutil.rmtree(entry, ignore_errors=True)
            if self._index is not None:
                self._index.get(entry.parent, {}).pop(entry, None)
            # The rmtree changed the prefix mtime; the recorded signature
            # is deliberately left stale so the next refresh rescans the
            # prefix — that also surfaces any concurrent writer's entries.
            total -= size
            removed += 1
        self.stats.pruned += removed
        if removed:
            metric_count("store.entries_pruned", removed)
        return removed
