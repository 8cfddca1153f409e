"""Operand-trace container shared by behavioural and gate-level flows."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import WorkloadError
from repro.utils.bitops import extract_bits_matrix, mask

#: Trailing slice suffix of a derived trace name (``base[start:stop]``,
#: with either bound possibly omitted as in ``base[:100]`` / ``base[50:]``).
_SLICE_SUFFIX = re.compile(r"^(?P<base>.*)\[(?P<start>\d*):(?P<stop>\d*)\]$")


@dataclass(frozen=True)
class OperandTrace:
    """A sequence of operand pairs applied cycle by cycle to an adder.

    The trace is the unit of work everywhere in the library: the
    behavioural models consume ``a``/``b`` directly, the timing simulators
    consume the dict produced by :meth:`as_operands` (adding the carry-in
    net), and the ML feature extraction uses consecutive pairs of vectors.
    """

    a: np.ndarray
    b: np.ndarray
    width: int
    name: str = "trace"

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.uint64)
        b = np.asarray(self.b, dtype=np.uint64)
        if a.shape != b.shape or a.ndim != 1:
            raise WorkloadError("operand arrays must be one-dimensional and equally long")
        limit = mask(self.width)
        if a.size and (int(a.max()) > limit or int(b.max()) > limit):
            raise WorkloadError(f"operands exceed the unsigned {self.width}-bit range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> int:
        """Number of input vectors."""
        return int(self.a.shape[0])

    @property
    def transitions(self) -> int:
        """Number of input transitions the timing simulators will exercise."""
        return max(self.length - 1, 0)

    def operand_bits(self) -> np.ndarray:
        """Read-only ``(length, 2 * width)`` 0/1 ``uint8`` matrix: ``A``'s bits, then ``B``'s,
        each LSB first.

        Every output bit's features (:func:`~repro.ml.features.build_feature_matrix`)
        share these columns, so they are unpacked once and kept on the
        instance; the memo never pickles (:meth:`__getstate__`).
        """
        cached = getattr(self, "_bits_cache", None)
        if cached is None:
            cached = np.hstack([extract_bits_matrix(self.a, self.width),
                                extract_bits_matrix(self.b, self.width)])
            cached.setflags(write=False)
            object.__setattr__(self, "_bits_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_bits_cache", None)
        return state

    def as_operands(self, cin: int = 0) -> Dict[str, np.ndarray]:
        """Dict understood by the timing simulators (buses ``A``/``B`` plus ``cin``)."""
        return {
            "A": self.a,
            "B": self.b,
            "cin": np.full(self.length, cin, dtype=np.uint64),
        }

    def slice(self, start: int, stop: int) -> "OperandTrace":
        """Sub-trace of vectors ``[start, stop)``.

        This is the chunking primitive of the execution runtime: a chunk
        of transitions ``[s, e)`` is simulated from the vector slice
        ``[s, e + 1)`` (one vector of overlap with the preceding chunk).

        Slicing a slice composes the offsets, so the name always shows
        positions in the *original* trace: ``trace[64:128]`` sliced at
        ``[0, 32)`` is named ``trace[64:96]``, not ``trace[64:128][0:32]``.
        """
        if not 0 <= start < stop <= self.length:
            raise WorkloadError(
                f"invalid trace slice [{start}, {stop}) of a {self.length}-vector trace")
        base, offset = self.name, 0
        match = _SLICE_SUFFIX.match(self.name)
        if match:
            base = match.group("base")
            offset = int(match.group("start") or 0)
        return OperandTrace(a=self.a[start:stop], b=self.b[start:stop], width=self.width,
                            name=f"{base}[{offset + start}:{offset + stop}]")

    def split(self, fraction: float) -> Tuple["OperandTrace", "OperandTrace"]:
        """Split into a leading and trailing trace (e.g. training vs evaluation)."""
        if not 0.0 < fraction < 1.0:
            raise WorkloadError(f"split fraction must lie in (0, 1), got {fraction}")
        cut = int(round(self.length * fraction))
        if cut < 2 or self.length - cut < 2:
            raise WorkloadError("split would leave a trace with fewer than two vectors")
        first = OperandTrace(self.a[:cut], self.b[:cut], self.width, f"{self.name}[:{cut}]")
        second = OperandTrace(self.a[cut:], self.b[cut:], self.width, f"{self.name}[{cut}:]")
        return first, second

    def take(self, count: int) -> "OperandTrace":
        """First ``count`` vectors of the trace."""
        if count > self.length:
            raise WorkloadError(f"cannot take {count} vectors from a trace of {self.length}")
        return OperandTrace(self.a[:count], self.b[:count], self.width, f"{self.name}[:{count}]")

    def __len__(self) -> int:
        return self.length
