"""A small bounded least-recently-used mapping.

The runtime keeps several identity- or digest-keyed memo caches (interned
traces, expanded stimulus, per-design simulators); they all want
the same policy — bounded size, reads refresh recency, oldest entry
evicted first.  This helper centralises that policy so capacity and
eviction live in one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()


class LRUDict(Generic[K, V]):
    """Bounded mapping evicting the least-recently-used entry.

    Both :meth:`get` hits and :meth:`put` refresh an entry's recency.
    Not thread-safe, like every other in-process cache of the library.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> V:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()


class IdentityMemo(Generic[V]):
    """Bounded memo keyed by the *identity* of one or more anchor objects.

    Entries are keyed by ``id()`` of the anchors (plus an optional
    hashable ``extra``) and hold strong references to them: a hit is
    only returned when every held anchor ``is`` the given one, so a
    recycled ``id`` can never alias a dead object's entry.  The strong
    references are also why callers should keep capacities small — an
    entry pins its anchors until evicted.
    """

    def __init__(self, capacity: int) -> None:
        self._entries: "LRUDict[tuple, Tuple[tuple, V]]" = LRUDict(capacity)

    @staticmethod
    def _key(anchors: tuple, extra) -> tuple:
        return (tuple(id(anchor) for anchor in anchors), extra)

    def get(self, anchors: tuple, extra=None) -> Optional[V]:
        hit = self._entries.get(self._key(anchors, extra))
        if hit is not None and len(hit[0]) == len(anchors) and all(
                held is given for held, given in zip(hit[0], anchors)):
            return hit[1]
        return None

    def put(self, anchors: tuple, value: V, extra=None) -> V:
        self._entries.put(self._key(anchors, extra), (tuple(anchors), value))
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
