"""Per-instance delay annotation — the library's stand-in for SDF files.

The paper back-annotates gate-level simulations with an SDF file produced
by synthesis.  Here the synthesis flow (:mod:`repro.synth`) produces a
:class:`DelayAnnotation`: a mapping from gate-instance name to its
absolute delay in seconds, plus the clock constraint it was sized for.
The annotation has a small text serialisation so experiments can cache
synthesized designs on disk.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, TextIO, Union

from repro.circuit.library import TechnologyLibrary
from repro.circuit.netlist import Netlist
from repro.exceptions import NetlistError, TimingError

FORMAT_HEADER = "# repro delay annotation v1"


@dataclass
class DelayAnnotation:
    """Absolute delay of every gate instance of a netlist, in seconds."""

    design: str
    delays: Dict[str, float] = field(default_factory=dict)
    clock_constraint: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def nominal(cls, netlist: Netlist, library: TechnologyLibrary,
                clock_constraint: Optional[float] = None) -> "DelayAnnotation":
        """Annotation using every cell's nominal library delay."""
        delays = {gate.name: library.delay(gate.cell) for gate in netlist.gates}
        return cls(design=netlist.name, delays=delays, clock_constraint=clock_constraint)

    def copy(self) -> "DelayAnnotation":
        """Deep copy of the annotation."""
        return DelayAnnotation(design=self.design, delays=dict(self.delays),
                               clock_constraint=self.clock_constraint)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def delay_of(self, gate_name: str) -> float:
        """Delay of one gate instance."""
        try:
            return self.delays[gate_name]
        except KeyError:
            raise TimingError(f"no delay annotated for gate {gate_name!r}") from None

    def set_delay(self, gate_name: str, delay: float) -> None:
        """Set the delay of one gate instance."""
        if delay < 0:
            raise TimingError(f"delay must be non-negative, got {delay}")
        self.delays[gate_name] = float(delay)

    def total_delay(self) -> float:
        """Sum of all instance delays — a crude area/power proxy used in reports."""
        return float(sum(self.delays.values()))

    def validate_against(self, netlist: Netlist) -> None:
        """Check the annotation covers exactly the gates of ``netlist``."""
        gate_names = {gate.name for gate in netlist.gates}
        annotated = set(self.delays)
        missing = gate_names - annotated
        extra = annotated - gate_names
        if missing:
            raise NetlistError(f"annotation misses delays for gates: {sorted(missing)[:5]} ...")
        if extra:
            raise NetlistError(f"annotation has delays for unknown gates: {sorted(extra)[:5]} ...")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def dump(self, stream: TextIO) -> None:
        """Write the annotation to a text stream."""
        stream.write(f"{FORMAT_HEADER}\n")
        stream.write(f"design {self.design}\n")
        if self.clock_constraint is not None:
            stream.write(f"clock {self.clock_constraint!r}\n")
        for gate_name in sorted(self.delays):
            stream.write(f"{gate_name} {self.delays[gate_name]!r}\n")

    def dumps(self) -> str:
        """Serialise the annotation to a string."""
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def load(cls, stream: Union[TextIO, Iterable[str]]) -> "DelayAnnotation":
        """Read an annotation previously written by :meth:`dump`."""
        lines = iter(stream)
        header = next(lines, "").strip()
        if header != FORMAT_HEADER:
            raise TimingError(f"not a repro delay annotation (header {header!r})")
        design = ""
        clock: Optional[float] = None
        delays: Dict[str, float] = {}
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            if key == "design":
                design = value.strip()
            elif key == "clock":
                clock = float(value)
            else:
                delays[key] = float(value)
        if not design:
            raise TimingError("annotation file does not name its design")
        return cls(design=design, delays=delays, clock_constraint=clock)

    @classmethod
    def loads(cls, text: str) -> "DelayAnnotation":
        """Parse an annotation from a string."""
        return cls.load(io.StringIO(text))

    def __len__(self) -> int:
        return len(self.delays)
