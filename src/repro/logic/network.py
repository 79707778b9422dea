"""Gate-level networks (combinational core plus D flip-flops).

A :class:`Network` is a DAG of library gates over named nets, with
primary inputs and outputs.  Gate types map 1:1 onto the transistor-level
cells of :mod:`repro.gates.library` (plus ``BUF``, and the AND/OR
conveniences which map to NAND/NOR followed by an inverter on silicon).
The ATPG engine (:mod:`repro.atpg`) runs on these networks; the
:mod:`repro.logic.bench_format` module reads/writes them as text.

Sequential circuits are modelled with edge-triggered D flip-flops
(:meth:`Network.add_flop`): a flop's output net behaves like a primary
input within one clock cycle, and the value on its data net is latched
at the cycle boundary.  The combinational engines never see flops —
:mod:`repro.logic.sequential` time-frame expands a sequential network
into a plain combinational one first, and :func:`compile_network
<repro.logic.compiled.compile_network>` raises
:class:`SequentialNetworkError` if handed an un-expanded one.
"""

from __future__ import annotations

import dataclasses

GATE_ARITY = {
    "BUF": 1,
    "INV": 1,
    "NAND2": 2,
    "NAND3": 3,
    "NOR2": 2,
    "NOR3": 3,
    "AND2": 2,
    "AND3": 3,
    "OR2": 2,
    "OR3": 3,
    "XOR2": 2,
    "XNOR2": 2,
    "XOR3": 3,
    "MAJ3": 3,
    "MIN3": 3,
}

#: Gate types realised as dynamic-polarity cells (polarity faults apply).
DP_GATE_TYPES = frozenset({"XOR2", "XNOR2", "XOR3", "MAJ3", "MIN3"})

#: Gate types realised as static-polarity cells.
SP_GATE_TYPES = frozenset(
    {"BUF", "INV", "NAND2", "NAND3", "NOR2", "NOR3",
     "AND2", "AND3", "OR2", "OR3"}
)


class SequentialNetworkError(ValueError):
    """A sequential network reached a combinational-only code path.

    Raised by :func:`repro.logic.compiled.compile_network` (and the
    serial simulator) when handed a network with flip-flops: time-frame
    expand it first via :func:`repro.logic.sequential.unroll_network`.
    """


@dataclasses.dataclass(frozen=True)
class Gate:
    """One gate instance.

    Attributes:
        name: Unique instance name.
        gtype: Gate type from :data:`GATE_ARITY`.
        inputs: Input net names (ordered).
        output: Output net name.
    """

    name: str
    gtype: str
    inputs: tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        if self.gtype not in GATE_ARITY:
            raise ValueError(f"unknown gate type {self.gtype!r}")
        if len(self.inputs) != GATE_ARITY[self.gtype]:
            raise ValueError(
                f"{self.name}: {self.gtype} takes "
                f"{GATE_ARITY[self.gtype]} inputs, got {len(self.inputs)}"
            )

    @property
    def is_dp(self) -> bool:
        return self.gtype in DP_GATE_TYPES


class Network:
    """A gate-level network (combinational, or sequential with DFFs)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        #: Flop output net -> flop data net, in insertion order.
        self.flops: dict[str, str] = {}
        self._driver: dict[str, str] = {}  # net -> gate name
        self._levelized: list[Gate] | None = None
        self._fanout: dict[str, list[Gate]] | None = None
        self._compiled = None

    def _drop_derived(self) -> None:
        """Forget every form derived from the structure (levelization,
        fanout index, compiled form); called by each structural edit."""
        self._levelized = None
        self._fanout = None
        self._compiled = None

    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        if net in self.primary_inputs:
            raise ValueError(f"duplicate primary input {net!r}")
        if net in self._driver:
            raise ValueError(f"net {net!r} already driven by a gate")
        if net in self.flops:
            raise ValueError(f"net {net!r} already driven by a flop")
        self.primary_inputs.append(net)
        self._drop_derived()

    def add_output(self, net: str) -> None:
        if net in self.primary_outputs:
            raise ValueError(f"duplicate primary output {net!r}")
        self.primary_outputs.append(net)
        self._drop_derived()

    def add_gate(
        self, name: str, gtype: str, inputs: list[str] | tuple[str, ...],
        output: str,
    ) -> Gate:
        if name in self.gates:
            raise ValueError(f"duplicate gate name {name!r}")
        if output in self._driver:
            raise ValueError(f"net {output!r} already driven")
        if output in self.primary_inputs:
            raise ValueError(f"net {output!r} is a primary input")
        if output in self.flops:
            raise ValueError(f"net {output!r} already driven by a flop")
        gate = Gate(name, gtype.upper(), tuple(inputs), output)
        self.gates[name] = gate
        self._driver[output] = name
        self._drop_derived()
        return gate

    def add_flop(self, output: str, data: str) -> None:
        """Add a D flip-flop driving ``output`` from ``data``.

        Within a cycle the flop output is a state net (treated like a
        pseudo primary input); at the cycle boundary it latches the
        value on ``data``.  Clock/reset are implicit (single global
        clock, as in the ISCAS-89 ``q = DFF(d)`` convention).
        """
        if output in self.flops:
            raise ValueError(f"duplicate flop output {output!r}")
        if output in self._driver:
            raise ValueError(f"net {output!r} already driven by a gate")
        if output in self.primary_inputs:
            raise ValueError(f"net {output!r} is a primary input")
        self.flops[output] = data
        self._drop_derived()

    @property
    def is_sequential(self) -> bool:
        return bool(self.flops)

    # ------------------------------------------------------------------
    def driver_of(self, net: str) -> Gate | None:
        """The gate driving ``net``, or None for primary inputs."""
        name = self._driver.get(net)
        return self.gates[name] if name is not None else None

    def fanout_of(self, net: str) -> list[Gate]:
        """Gates that consume ``net``, in gate insertion order (a gate
        reading ``net`` on several pins is listed once)."""
        return list(self._fanout_index().get(net, ()))

    def _fanout_index(self) -> dict[str, list[Gate]]:
        """Net -> consuming gates (built lazily, cached until the next
        structural edit)."""
        if self._fanout is None:
            index: dict[str, list[Gate]] = {}
            for g in self.gates.values():
                for net in dict.fromkeys(g.inputs):
                    index.setdefault(net, []).append(g)
            self._fanout = index
        return self._fanout

    def nets(self) -> list[str]:
        found = set(self.primary_inputs)
        for g in self.gates.values():
            found.update(g.inputs)
            found.add(g.output)
        for output, data in self.flops.items():
            found.add(output)
            found.add(data)
        return sorted(found)

    def _driven(self, net: str) -> bool:
        return (
            net in self.primary_inputs
            or net in self._driver
            or net in self.flops
        )

    def validate(self) -> None:
        """Check structural sanity: drivers exist, no loops."""
        for g in self.gates.values():
            for net in g.inputs:
                if not self._driven(net):
                    raise ValueError(
                        f"gate {g.name}: input net {net!r} has no driver"
                    )
        for output, data in self.flops.items():
            if not self._driven(data):
                raise ValueError(
                    f"flop {output!r}: data net {data!r} has no driver"
                )
        for net in self.primary_outputs:
            if not self._driven(net):
                raise ValueError(f"primary output {net!r} has no driver")
        self.levelized()  # raises on combinational loops

    def levelized(self) -> list[Gate]:
        """Gates in topological order (cached).

        Flop outputs count as placed from the start — within one clock
        cycle they are state inputs, so feedback through a flop is not
        a combinational loop.

        The order is by ``(level, name)``, where a gate's level is one
        more than the deepest gate driving its inputs (primary inputs
        and flop outputs are level 0): the wave in which the gate
        first has all its inputs placed.  Levels come from one
        topological sweep over the fanout index, so this is linear in
        the network size.
        """
        if self._levelized is not None:
            return self._levelized
        fanout = self._fanout_index()
        level: dict[str, int] = dict.fromkeys(self.primary_inputs, 0)
        level.update(dict.fromkeys(self.flops, 0))
        # Gate name -> number of its distinct input nets not yet placed.
        waiting: dict[str, int] = {}
        ready: list[Gate] = []
        for g in self.gates.values():
            count = sum(1 for n in dict.fromkeys(g.inputs) if n not in level)
            if count:
                waiting[g.name] = count
            else:
                ready.append(g)
        gate_level: dict[str, int] = {}
        while ready:
            g = ready.pop()
            lvl = 1 + max(level[n] for n in g.inputs)
            gate_level[g.name] = lvl
            level[g.output] = lvl
            for consumer in fanout.get(g.output, ()):
                waiting[consumer.name] -= 1
                if not waiting[consumer.name]:
                    ready.append(consumer)
        if len(gate_level) != len(self.gates):
            raise ValueError(
                f"combinational loop or missing driver in {self.name!r}"
            )
        order = sorted(
            self.gates.values(), key=lambda g: (gate_level[g.name], g.name)
        )
        self._levelized = order
        return order

    def compiled(self):
        """The flattened bit-parallel form (memoized per structure).

        Returns a :class:`repro.logic.compiled.CompiledNetwork`.  The
        per-instance cache is invalidated by any structural edit; on a
        miss the lookup goes through the process-wide
        :func:`repro.logic.compiled.compile_network` memo, so
        structurally identical networks (e.g. a benchmark rebuilt per
        campaign) share one compiled form.
        """
        if self._compiled is None:
            from repro.logic.compiled import compile_network

            compile_network(self)
        return self._compiled

    def invalidate(self) -> None:
        """Drop every cached derived form (levelization, fanout index,
        compiled form).

        The structural-edit methods call the per-instance part of this
        automatically; use it directly after mutating the network
        behind the API or to force a recompile — it also evicts the
        shared compilation memo entry.
        """
        from repro.logic.compiled import invalidate_network

        invalidate_network(self)

    def depth(self) -> int:
        """Logic depth (levels of gates on the longest path per cycle)."""
        level: dict[str, int] = {n: 0 for n in self.primary_inputs}
        level.update({n: 0 for n in self.flops})
        depth = 0
        for g in self.levelized():
            lvl = 1 + max((level.get(n, 0) for n in g.inputs), default=0)
            level[g.output] = lvl
            depth = max(depth, lvl)
        return depth

    def stats(self) -> dict[str, int]:
        """Size summary: gate counts by type plus totals."""
        by_type: dict[str, int] = {}
        for g in self.gates.values():
            by_type[g.gtype] = by_type.get(g.gtype, 0) + 1
        stats = {
            "gates": len(self.gates),
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "depth": self.depth(),
            **{f"n_{t.lower()}": c for t, c in sorted(by_type.items())},
        }
        if self.flops:
            stats["flops"] = len(self.flops)
        return stats

    def __repr__(self) -> str:
        flops = f", {len(self.flops)} FF" if self.flops else ""
        return (
            f"Network({self.name!r}: {len(self.primary_inputs)} PI, "
            f"{len(self.primary_outputs)} PO, {len(self.gates)} gates"
            f"{flops})"
        )
