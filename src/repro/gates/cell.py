"""Cell abstraction: transistor-level templates of CP logic gates.

A :class:`Cell` is a named transistor netlist over symbolic nets plus a
reference Boolean function.  Net naming conventions:

* ``vdd`` / ``gnd`` — supply rails,
* ``a``, ``b``, ``c`` … — primary inputs,
* ``a_n``, ``b_n`` … — complemented inputs (DP gates receive input
  complements, as drawn in the paper's Fig. 2),
* ``out`` — the cell output,
* ``x1``, ``x2`` … — internal nodes.

Each transistor records which nets drive its five terminals and a
``role`` tag ('pull_up' / 'pull_down' / 'pass') used by fault-model
bookkeeping (Table III distinguishes pull-up from pull-down faults).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

RAIL_NETS = ("vdd", "gnd")

#: Category constants (paper Section III-C).
STATIC_POLARITY = "SP"
DYNAMIC_POLARITY = "DP"


@dataclasses.dataclass(frozen=True)
class Transistor:
    """One TIG-SiNWFET in a cell template.

    Attributes:
        name: Instance name; follows the paper's t1..t4 labels where the
            paper names them.
        d: Net on the drain terminal.
        cg: Net driving the control gate.
        pgs: Net driving the source-side polarity gate.
        pgd: Net driving the drain-side polarity gate.
        s: Net on the source terminal.
        role: 'pull_up', 'pull_down' or 'pass'.
    """

    name: str
    d: str
    cg: str
    pgs: str
    pgd: str
    s: str
    role: str

    def __post_init__(self) -> None:
        if self.role not in ("pull_up", "pull_down", "pass"):
            raise ValueError(f"bad role {self.role!r}")

    @property
    def pg(self) -> str:
        """The polarity net when both polarity gates share a driver."""
        if self.pgs != self.pgd:
            raise ValueError(
                f"{self.name}: polarity gates driven by different nets"
            )
        return self.pgs

    def nets(self) -> set[str]:
        return {self.d, self.cg, self.pgs, self.pgd, self.s}


@dataclasses.dataclass(frozen=True)
class Cell:
    """A CP logic-gate template.

    Attributes:
        name: Cell name (e.g. 'XOR2').
        inputs: Ordered primary-input names.
        transistors: The transistor netlist.
        category: ``'SP'`` (polarity gates tied to rails) or ``'DP'``
            (polarity gates driven by input signals).
        function: Reference Boolean function mapping an input tuple
            (ordered as ``inputs``) to 0/1.
    """

    name: str
    inputs: tuple[str, ...]
    transistors: tuple[Transistor, ...]
    category: str
    function: Callable[[tuple[int, ...]], int]

    def __post_init__(self) -> None:
        if self.category not in (STATIC_POLARITY, DYNAMIC_POLARITY):
            raise ValueError(f"bad category {self.category!r}")
        names = [t.name for t in self.transistors]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate transistor names")
        if self.category == STATIC_POLARITY:
            for t in self.transistors:
                if t.pgs not in RAIL_NETS or t.pgd not in RAIL_NETS:
                    raise ValueError(
                        f"{self.name}: SP cell has signal-driven polarity "
                        f"gate on {t.name}"
                    )
        # A cell is immutable and keys the switch-level fault-image
        # memo, so its (netlist-wide) hash is computed once.
        object.__setattr__(self, "_hash", hash((
            self.name, self.inputs, self.transistors, self.category,
            self.function,
        )))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def transistor(self, name: str) -> Transistor:
        for t in self.transistors:
            if t.name == name:
                return t
        raise KeyError(f"{self.name} has no transistor {name!r}")

    def complement_nets(self) -> tuple[str, ...]:
        """Input-complement nets used by this cell (DP gates only)."""
        used: set[str] = set()
        for t in self.transistors:
            used.update(t.nets())
        return tuple(
            sorted(n for n in used if n.endswith("_n"))
        )

    def internal_nets(self) -> tuple[str, ...]:
        special = set(RAIL_NETS) | set(self.inputs) | {"out"}
        special.update(self.complement_nets())
        used: set[str] = set()
        for t in self.transistors:
            used.update(t.nets())
        return tuple(sorted(used - special))

    def truth_table(self) -> dict[tuple[int, ...], int]:
        """Reference truth table from the cell's Boolean function."""
        table = {}
        for vector in itertools.product((0, 1), repeat=self.n_inputs):
            value = self.function(vector)
            if value not in (0, 1):
                raise ValueError(
                    f"{self.name}.function returned {value!r} for {vector}"
                )
            table[vector] = value
        return table

    def net_values(
        self, vector: tuple[int, ...], vdd_level: int = 1
    ) -> dict[str, int]:
        """Logic values of every driven net for an input vector.

        Covers rails, inputs and input complements — the nets whose values
        are imposed from outside the transistor network.
        """
        if len(vector) != self.n_inputs:
            raise ValueError(
                f"{self.name} expects {self.n_inputs} inputs, "
                f"got {len(vector)}"
            )
        values: dict[str, int] = {"vdd": vdd_level, "gnd": 0}
        for net, bit in zip(self.inputs, vector):
            if bit not in (0, 1):
                raise ValueError(f"input bits must be 0/1, got {bit!r}")
            values[net] = bit
            values[net + "_n"] = 1 - bit
        return values
