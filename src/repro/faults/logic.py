"""Logic-layer fault classes and universes (the ATPG-facing layer).

Canonical home of the gate-level fault vocabulary:

* **Classic stuck-at** — s-a-0/s-a-1 on every net stem and every gate
  input pin (branch faults), with structural equivalence collapsing.
* **Polarity faults** (the paper's new models) — stuck-at n-type /
  p-type on every transistor of every DP gate instance.  Their local
  behaviour (faulty truth table + IDDQ activation vectors) is read from
  the switch-level fault image
  (:func:`repro.logic.switch_level.fault_image`), so the gate-level
  fault is exactly the transistor-level defect's image.
* **Stuck-open faults** — full channel break per transistor of every
  gate instance; detectable by two-pattern tests on SP gates, and
  masked (requiring the paper's procedure) on DP gates.

Each flavour is also wrapped as a registered :class:`FaultUniverse`
(``stuck_at`` / ``polarity`` / ``stuck_open``), so campaign tasks and
the CLI address them by name through :func:`repro.faults.get_universe`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.faults.universe import FaultUniverse, register_universe
from repro.gates.library import ALL_CELLS
from repro.logic.network import Gate, Network
from repro.logic.switch_level import DeviceState, FaultImage, fault_image
from repro.logic.values import X


# ---------------------------------------------------------------------------
# Stuck-at faults
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault.

    ``gate``/``pin`` identify a branch fault on one gate input; when both
    are None the fault sits on the net stem (PI or gate output).
    """

    net: str
    value: int
    gate: str | None = None
    pin: int | None = None

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")

    @property
    def is_branch(self) -> bool:
        return self.gate is not None

    @property
    def name(self) -> str:
        location = (
            f"{self.gate}.in{self.pin}" if self.is_branch else self.net
        )
        return f"{location}/sa{self.value}"

    def overrides(self) -> dict:
        """Simulation overrides for :func:`repro.logic.simulator.simulate`."""
        if self.is_branch:
            return {"pin_overrides": {(self.gate, self.pin): self.value}}
        return {"line_overrides": {self.net: self.value}}


def stuck_at_faults(network: Network, collapse: bool = True) -> list[StuckAtFault]:
    """Enumerate stuck-at faults, optionally equivalence-collapsed.

    Collapsing applies the standard structural rules: on fanout-free
    nets, branch faults are equivalent to the stem fault; through
    BUF/INV, input faults are equivalent to (possibly inverted) output
    faults and are dropped.
    """
    faults: list[StuckAtFault] = []
    for net in network.nets():
        for value in (0, 1):
            faults.append(StuckAtFault(net, value))
    flop_data = _flop_data_counts(network)
    for gate in network.gates.values():
        for pin, net in enumerate(gate.inputs):
            fanout = len(network.fanout_of(net)) + flop_data.get(net, 0)
            is_po = net in network.primary_outputs
            if collapse and fanout <= 1 and not is_po:
                continue  # branch == stem on fanout-free nets
            for value in (0, 1):
                faults.append(
                    StuckAtFault(net, value, gate=gate.name, pin=pin)
                )
    if collapse:
        faults = [
            f
            for f in faults
            if not _collapsible_buffer_input(network, f)
        ]
    return faults


def _flop_data_counts(network: Network) -> dict[str, int]:
    """Net -> number of flop data inputs it feeds (sequential fanout)."""
    counts: dict[str, int] = {}
    for data in network.flops.values():
        counts[data] = counts.get(data, 0) + 1
    return counts


def _collapsible_buffer_input(network: Network, fault: StuckAtFault) -> bool:
    """Drop stem faults on BUF/INV inputs (equivalent to output faults),
    unless the net is a primary output or has fanout (gate or flop)."""
    if fault.is_branch:
        return False
    fanout = network.fanout_of(fault.net)
    if len(fanout) != 1:
        return False
    if fault.net in network.primary_outputs:
        return False
    if fault.net in _flop_data_counts(network):
        return False  # also latched: the stem fault reaches next state
    consumer = fanout[0]
    if consumer.gtype not in ("BUF", "INV"):
        return False
    # Keep primary-input and state-net faults (no upstream
    # representative — a flop output is a pseudo input within a cycle).
    return (
        fault.net not in network.primary_inputs
        and fault.net not in network.flops
    )


# ---------------------------------------------------------------------------
# Polarity faults (stuck-at n-type / p-type)
# ---------------------------------------------------------------------------

#: Switch-level state of each polarity fault kind.
_POLARITY_STATES = {"n": DeviceState.STUCK_AT_N, "p": DeviceState.STUCK_AT_P}


@dataclasses.dataclass(frozen=True)
class PolarityFault:
    """Stuck-at n-type or p-type on one transistor of a gate instance."""

    gate: str
    gtype: str
    transistor: str
    kind: str  # 'n' | 'p'

    def __post_init__(self) -> None:
        if self.kind not in ("n", "p"):
            raise ValueError("kind must be 'n' or 'p'")
        if self.gtype not in ALL_CELLS:
            raise ValueError(
                f"gate type {self.gtype!r} has no transistor-level cell"
            )

    @property
    def name(self) -> str:
        return f"{self.gate}.{self.transistor}/sa-{self.kind}-type"

    def image(self) -> FaultImage:
        """The switch-level image of this fault in its cell type."""
        return fault_image(
            ALL_CELLS[self.gtype], self.transistor,
            _POLARITY_STATES[self.kind],
        )

    def faulty_table(self) -> dict[tuple[int, ...], int]:
        """Local table: 0/1/X per binary input vector (X = contention
        tie); a floating output keeps the good value."""
        return self.image().held_table

    def iddq_vectors(self) -> tuple[tuple[int, ...], ...]:
        return self.image().iddq

    def output_detecting_vectors(self) -> list[tuple[int, ...]]:
        """Local vectors where the faulty output is a definite wrong
        value, the only entries logic simulation and PODEM can see
        (contention ties are :attr:`FaultImage.tied`)."""
        return list(self.image().wrong)

    def gate_override(self):
        """Override callable for the ternary simulator."""
        table = self.faulty_table()

        def override(gate: Gate, pins) -> int:
            key = tuple(pins)
            if any(p not in (0, 1) for p in key):
                return X
            return table[key]

        return override

    def overrides(self) -> dict:
        return {"gate_overrides": {self.gate: self.gate_override()}}


def polarity_faults(network: Network) -> list[PolarityFault]:
    """Stuck-at n/p faults on every transistor of every DP gate."""
    faults: list[PolarityFault] = []
    for gate in network.levelized():
        if not gate.is_dp or gate.gtype not in ALL_CELLS:
            continue
        cell = ALL_CELLS[gate.gtype]
        for t in cell.transistors:
            for kind in ("n", "p"):
                faults.append(
                    PolarityFault(gate.name, gate.gtype, t.name, kind)
                )
    return faults


# ---------------------------------------------------------------------------
# Stuck-open (channel break) faults
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StuckOpenFault:
    """Full channel break on one transistor of a gate instance.

    Two-pattern semantics: under the second pattern, if the broken
    transistor's network would drive the output alone, the output floats
    and retains the first pattern's value.
    """

    gate: str
    gtype: str
    transistor: str

    def __post_init__(self) -> None:
        if self.gtype not in ALL_CELLS:
            raise ValueError(
                f"gate type {self.gtype!r} has no transistor-level cell"
            )

    @property
    def name(self) -> str:
        return f"{self.gate}.{self.transistor}/sop"

    def image(self) -> FaultImage:
        """The switch-level image of the broken channel."""
        return fault_image(
            ALL_CELLS[self.gtype], self.transistor, DeviceState.STUCK_OPEN
        )

    def broken_table(self) -> dict[tuple[int, ...], int]:
        """Local table with the channel broken: 0/1/X/Z per binary input
        vector (Z = the output floats and retains its previous value)."""
        return self.image().table

    def is_masked(self) -> bool:
        """True when no local vector makes this transistor essential
        (DP redundancy): the break never floats the output."""
        return not self.image().floating

    def floating_vectors(self) -> list[tuple[int, ...]]:
        """Local vectors under which the broken gate's output floats."""
        return list(self.image().floating)


def stuck_open_faults(network: Network) -> list[StuckOpenFault]:
    """Channel-break faults on every transistor of every mapped gate."""
    faults: list[StuckOpenFault] = []
    for gate in network.levelized():
        if gate.gtype not in ALL_CELLS:
            continue
        cell = ALL_CELLS[gate.gtype]
        for t in cell.transistors:
            faults.append(StuckOpenFault(gate.name, gate.gtype, t.name))
    return faults


# ---------------------------------------------------------------------------
# Registered universes
# ---------------------------------------------------------------------------

class StuckAtUniverse(FaultUniverse):
    """Classic single stuck-at fault universe.

    ``enumerate`` yields the full stem+branch list; ``collapse`` applies
    the structural equivalence rules — both delegate to
    :func:`stuck_at_faults`, so the universe is bit-identical to the
    historical enumerator.
    """

    layer = "logic"
    description = "classic stuck-at-0/1 on net stems and gate-input branches"

    def enumerate(self, network: Network) -> list[StuckAtFault]:
        return stuck_at_faults(network, collapse=False)

    def collapse(
        self, network: Network, faults: Sequence[StuckAtFault] | None = None
    ) -> list[StuckAtFault]:
        collapsed = stuck_at_faults(network, collapse=True)
        if faults is None:
            return collapsed
        keep = {f.name for f in collapsed}
        return [f for f in faults if f.name in keep]

    def kind_of(self, fault: StuckAtFault) -> str:
        return f"sa{fault.value}"


class PolarityUniverse(FaultUniverse):
    """The paper's stuck-at n-type / p-type universe (Section V-B)."""

    layer = "logic"
    description = "stuck-at n-/p-type per transistor of every DP gate"

    def enumerate(self, network: Network) -> list[PolarityFault]:
        return polarity_faults(network)

    def kind_of(self, fault: PolarityFault) -> str:
        return f"sa-{fault.kind}-type"


class StuckOpenUniverse(FaultUniverse):
    """Channel-break (stuck-open) universe (Section V-C).

    No collapsing: DP-masked breaks stay in the list — they are exactly
    the faults routed to the paper's polarity-inversion procedure.
    """

    layer = "logic"
    description = "full channel break per transistor of every mapped gate"

    def enumerate(self, network: Network) -> list[StuckOpenFault]:
        return stuck_open_faults(network)

    def kind_of(self, fault: StuckOpenFault) -> str:
        return "sop"


register_universe("stuck_at", StuckAtUniverse())
register_universe("polarity", PolarityUniverse())
register_universe("stuck_open", StuckOpenUniverse())
