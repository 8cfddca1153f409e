"""Enumeration of the legal ISA quadruple space.

The paper hand-picks eleven quadruples (`experiments/designs.py:
PAPER_QUADRUPLES`); this module generalises that selection into a
first-class :class:`DesignSpace`: every quadruple
``(block, spec, correction, reduction)`` that a
:class:`~repro.core.config.ISAConfig` of the given width accepts —
block sizes dividing the width, speculation/correction/reduction
windows bounded by the block — optionally filtered by cost constraints
and deterministically subsampled down to a design budget.

The enumeration is *exact* and *ordered*: quadruples come out sorted by
``(block, spec, correction, reduction)``, so a subsample of the space is
reproducible across processes and cache runs.  Degenerate single-block
configurations (``block == width``) are excluded — they are the exact
adder, which the sweep layer adds as its explicit baseline entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.designs import DesignEntry, exact_entry, isa_entry
from repro.utils.validation import check_positive_int

Quadruple = Tuple[int, int, int, int]


def legal_block_sizes(width: int) -> Tuple[int, ...]:
    """Divisors of ``width`` that yield a multi-block (inexact) ISA."""
    check_positive_int("width", width)
    return tuple(block for block in range(1, width) if width % block == 0)


@dataclass(frozen=True)
class DesignSpace:
    """The legal ISA quadruple space of one adder width, under constraints.

    Parameters
    ----------
    width:
        Adder width the quadruples apply to.
    block_sizes:
        Block sizes to enumerate (default: every divisor of ``width``
        below ``width``; ``width`` itself is the exact adder).
    max_spec / max_correction / max_reduction:
        Upper bounds on the three window widths (each is additionally
        bounded by the block size, the structural-validity rule of
        :class:`~repro.core.config.ISAConfig`).
    max_overhead_bits:
        Cost constraint: bound on ``spec + correction + reduction``,
        the extra logic a configuration spends per block boundary.
    """

    width: int = 32
    block_sizes: Optional[Tuple[int, ...]] = None
    max_spec: Optional[int] = None
    max_correction: Optional[int] = None
    max_reduction: Optional[int] = None
    max_overhead_bits: Optional[int] = None

    #: Registry id resolving this space's operator family (class
    #: attribute; the adaptive explorer and the CLI dispatch entry
    #: construction and surrogate features through it).
    family = "adder"

    def __post_init__(self) -> None:
        check_positive_int("width", self.width)
        for name in ("max_spec", "max_correction", "max_reduction", "max_overhead_bits"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")
        if self.block_sizes is not None:
            blocks = tuple(sorted(set(self.block_sizes)))
            legal = set(legal_block_sizes(self.width))
            illegal = [block for block in blocks if block not in legal]
            if illegal:
                raise ConfigurationError(
                    f"block sizes {illegal} are not proper divisors of width "
                    f"{self.width}; legal sizes: {sorted(legal)}")
            object.__setattr__(self, "block_sizes", blocks)

    # ------------------------------------------------------------------ #
    def resolved_block_sizes(self) -> Tuple[int, ...]:
        """The block sizes this space enumerates over, ascending."""
        if self.block_sizes is not None:
            return self.block_sizes
        return legal_block_sizes(self.width)

    def _bound(self, block: int, limit: Optional[int]) -> int:
        return block if limit is None else min(block, limit)

    def iter_quadruples(self) -> Iterator[Quadruple]:
        """Lazily yield every legal quadruple, in the sorted order.

        The streaming counterpart of :meth:`quadruples`: candidate
        scoring over the combinatorially exploding width-32/64 spaces
        consumes this iterator (building compact arrays as it goes)
        instead of materialising the full tuple list.
        """
        for block in self.resolved_block_sizes():
            spec_limit = self._bound(block, self.max_spec)
            corr_limit = self._bound(block, self.max_correction)
            red_limit = self._bound(block, self.max_reduction)
            for spec in range(spec_limit + 1):
                for correction in range(corr_limit + 1):
                    for reduction in range(red_limit + 1):
                        if (self.max_overhead_bits is not None
                                and spec + correction + reduction > self.max_overhead_bits):
                            continue
                        yield (block, spec, correction, reduction)

    def quadruples(self) -> List[Quadruple]:
        """Every legal quadruple of the space, sorted ascending."""
        return list(self.iter_quadruples())

    @property
    def size(self) -> int:
        """Number of legal quadruples in the space (no list materialised)."""
        return sum(1 for _ in self.iter_quadruples())

    def select(self, max_designs: Optional[int] = None) -> List[Quadruple]:
        """At most ``max_designs`` quadruples, evenly strided over the space.

        The stride keeps the subsample spread across every block size
        instead of clustering at the cheap end of the sorted order, and
        is deterministic — the same arguments always select the same
        designs, so cached sweep results stay reachable across runs.
        """
        quadruples = self.quadruples()
        if max_designs is None or max_designs >= len(quadruples):
            return quadruples
        check_positive_int("max_designs", max_designs)
        return [quadruples[(index * len(quadruples)) // max_designs]
                for index in range(max_designs)]

    def entries(self, max_designs: Optional[int] = None,
                include_exact: bool = True) -> List[DesignEntry]:
        """Design entries of the (subsampled) space, plus the exact baseline.

        The exact adder rides along *outside* the ``max_designs`` budget:
        it is the reference every Pareto frontier is anchored to, not one
        of the enumerated inexact configurations.
        """
        entries = [isa_entry(quadruple, width=self.width)
                   for quadruple in self.select(max_designs)]
        if include_exact:
            entries.append(exact_entry(self.width))
        return entries

    def describe(self) -> str:
        """One-line human-readable summary of the space."""
        constraints = []
        for name in ("max_spec", "max_correction", "max_reduction", "max_overhead_bits"):
            value = getattr(self, name)
            if value is not None:
                constraints.append(f"{name}={value}")
        suffix = f" ({', '.join(constraints)})" if constraints else ""
        return (f"{self.size} legal ISA quadruples at width {self.width}, "
                f"blocks {list(self.resolved_block_sizes())}{suffix}")


def enumerate_quadruples(width: int = 32, **constraints) -> List[Quadruple]:
    """Convenience wrapper: the sorted legal quadruple list of one width."""
    return DesignSpace(width=width, **constraints).quadruples()


def space_entries(width: int = 32, max_designs: Optional[int] = None,
                  include_exact: bool = True, **constraints) -> List[DesignEntry]:
    """Convenience wrapper: design entries of a constrained, subsampled space."""
    return DesignSpace(width=width, **constraints).entries(
        max_designs=max_designs, include_exact=include_exact)
