"""Physical fault universes: fabrication mechanism → device → circuit.

This module re-expresses the repo's two physical taxonomies as
registered universes and implements the paper's central mapping as
:meth:`~repro.faults.universe.FaultUniverse.lower` hops:

* ``defect_mechanism`` (layer *mechanism*) — Table I defect sites
  (:func:`repro.core.defects.enumerate_defect_sites`) instantiated per
  mapped gate of a network;
* ``device_defect`` (layer *device*) — the device-internal defects of
  :mod:`repro.device.defects` (channel break, GOS at each gate,
  parameter drift) per transistor of every mapped gate;
* ``circuit_fault`` (layer *circuit*) — the injectable descriptors of
  :mod:`repro.core.fault_models`, derived by lowering every mechanism
  site (plus the drive-drift delay-fault mechanism).

The lowering chain mirrors Section IV/V of the paper:

* nanowire break → :class:`ChannelBreak` → :class:`ChannelBreakFault` →
  :class:`~repro.faults.logic.StuckOpenFault`;
* gate-oxide short → :class:`GateOxideShort` → :class:`GOSFault`
  (analog-only signature: delay/IDDQ, no logic image);
* PG-to-rail bridge → :class:`StuckAtNType`/:class:`StuckAtPType` →
  :class:`~repro.faults.logic.PolarityFault` (on DP gates);
* CG-PG bridge → :class:`TerminalBridgeFault`; interconnect bridge →
  :class:`InterconnectBridgeFault`; floating PG →
  :class:`FloatingPolarityGate` — all analog-domain screens.

Every fault object here is an *instance* wrapper: it carries the gate
instance name and cell type alongside the cell-local descriptor, so
cross-layer images land on the right network locations.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.defects import (
    DefectMechanism,
    DefectSite,
    enumerate_defect_sites,
)
from repro.core.fault_models import (
    ChannelBreakFault,
    CircuitFault,
    DriveDriftFault,
    FloatingPolarityGate,
    GOSFault,
    InterconnectBridgeFault,
    StuckAtNType,
    StuckAtPType,
    TerminalBridgeFault,
)
from repro.faults.logic import PolarityFault, StuckOpenFault
from repro.faults.universe import FaultUniverse, register_universe
from repro.gates.cell import Cell
from repro.gates.library import ALL_CELLS
from repro.logic.network import Network
from repro.logic.switch_level import DeviceState

if TYPE_CHECKING:
    from repro.device.defects import DeviceDefect

#: Floating-PG voltage assumed when lowering a floating-gate site to an
#: injectable :class:`FloatingPolarityGate` (mid-rail — the worst-case
#: region of the Fig. 5 sweeps).
DEFAULT_VCUT = 0.6

#: Drive weakening assumed when lowering parameter drift to an
#: injectable :class:`DriveDriftFault` (the delay-fault screen).
DEFAULT_DRIFT_FACTOR = 0.5

#: Mechanism -> short slug used in fault names and census kinds.
MECHANISM_SLUGS = {
    DefectMechanism.NANOWIRE_BREAK: "break",
    DefectMechanism.GATE_OXIDE_SHORT: "gos",
    DefectMechanism.TERMINAL_BRIDGE: "bridge",
    DefectMechanism.INTERCONNECT_BRIDGE: "xbridge",
    DefectMechanism.FLOATING_GATE: "float",
}


def switch_state_for_site(site: DefectSite) -> DeviceState | None:
    """Switch-level image of a defect site, when one exists.

    The lookup behind the inductive fault analysis
    (:mod:`repro.core.inductive`): mechanisms whose first-order
    signature is parametric (GOS, CG-PG bridges, floating CG,
    interconnect bridges) return ``None`` and are screened in the
    analog domain instead.
    """
    m = site.mechanism
    if m is DefectMechanism.NANOWIRE_BREAK:
        return DeviceState.STUCK_OPEN
    if m is DefectMechanism.TERMINAL_BRIDGE:
        if site.detail == "pg-vdd":
            return DeviceState.STUCK_AT_N
        if site.detail == "pg-gnd":
            return DeviceState.STUCK_AT_P
        return None  # cg-pg bridges need analog treatment
    if m is DefectMechanism.FLOATING_GATE:
        if site.detail in ("pgs", "pgd"):
            return DeviceState.FLOATING_PG
        return None  # floating CG: analog (coupling-dependent)
    return None


# ---------------------------------------------------------------------------
# Instance wrappers
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MechanismFault:
    """One Table I defect site placed on one gate instance."""

    gate: str
    gtype: str
    site: DefectSite

    @property
    def name(self) -> str:
        slug = MECHANISM_SLUGS[self.site.mechanism]
        location = (
            f"{self.gate}.{self.site.transistor}"
            if self.site.transistor
            else self.gate
        )
        detail = f":{self.site.detail}" if self.site.detail else ""
        return f"{location}/{slug}{detail}"


@dataclasses.dataclass(frozen=True)
class DeviceFault:
    """One device-internal defect on one transistor of a gate instance."""

    gate: str
    gtype: str
    transistor: str
    defect: DeviceDefect

    @property
    def name(self) -> str:
        return f"{self.gate}.{self.transistor}/{_defect_slug(self.defect)}"


@dataclasses.dataclass(frozen=True)
class CircuitFaultSite:
    """One injectable circuit-fault descriptor on one gate instance."""

    gate: str
    gtype: str
    fault: CircuitFault

    @property
    def name(self) -> str:
        return f"{self.gate}/{self.fault.describe()}"


def _defect_slug(defect: DeviceDefect) -> str:
    from repro.device.defects import (
        ChannelBreak,
        GateOxideShort,
        ParameterDrift,
    )

    if isinstance(defect, GateOxideShort):
        return f"gos:{defect.location}"
    if isinstance(defect, ChannelBreak):
        return f"break:{defect.fraction:g}"
    if isinstance(defect, ParameterDrift):
        return f"drift:{defect.i_on_factor:g}"
    return type(defect).__name__


# ---------------------------------------------------------------------------
# Cell-local lowering (shared by universes and the SPICE screens)
# ---------------------------------------------------------------------------

def device_defects_for_site(site: DefectSite) -> list[tuple[str, DeviceDefect]]:
    """Device-internal images of one site as ``(transistor, defect)``.

    Only nanowire breaks and gate-oxide shorts change a single device's
    I-V characteristics; every other mechanism is a circuit-level
    condition and lowers directly to :func:`circuit_faults_for_site`.
    """
    from repro.device.defects import ChannelBreak, GateOxideShort

    if site.mechanism is DefectMechanism.NANOWIRE_BREAK:
        return [(site.transistor, ChannelBreak(1.0))]
    if site.mechanism is DefectMechanism.GATE_OXIDE_SHORT:
        return [(site.transistor, GateOxideShort(site.detail))]
    return []


def circuit_fault_for_device_defect(
    transistor: str, defect: DeviceDefect
) -> CircuitFault | None:
    """Circuit-level wrapper of one device-internal defect."""
    from repro.device.defects import (
        ChannelBreak,
        GateOxideShort,
        ParameterDrift,
    )

    if isinstance(defect, ChannelBreak):
        return ChannelBreakFault(transistor, defect.fraction)
    if isinstance(defect, GateOxideShort):
        return GOSFault(transistor, defect.location, defect.severity)
    if isinstance(defect, ParameterDrift):
        return DriveDriftFault(transistor, defect.i_on_factor)
    return None


def circuit_faults_for_site(site: DefectSite) -> list[CircuitFault]:
    """Injectable circuit-fault image(s) of one cell-local defect site.

    Mechanisms with a device-internal image route through
    :func:`device_defects_for_site` /
    :func:`circuit_fault_for_device_defect`; the rest map directly onto
    the :mod:`repro.core.fault_models` vocabulary.  A floating CG has no
    injectable descriptor (its behaviour is coupling-dependent) and
    yields ``[]``.
    """
    lowered = [
        circuit_fault_for_device_defect(t, d)
        for t, d in device_defects_for_site(site)
    ]
    if lowered:
        return [f for f in lowered if f is not None]
    m, t, detail = site.mechanism, site.transistor, site.detail
    if m is DefectMechanism.TERMINAL_BRIDGE:
        if detail == "pg-vdd":
            return [StuckAtNType(t)]
        if detail == "pg-gnd":
            return [StuckAtPType(t)]
        a, b = detail.split("-", 1)
        return [TerminalBridgeFault(t, a, b)]
    if m is DefectMechanism.INTERCONNECT_BRIDGE:
        a, b = detail.split("-", 1)
        return [InterconnectBridgeFault(a, b)]
    if m is DefectMechanism.FLOATING_GATE and detail in ("pgs", "pgd"):
        return [FloatingPolarityGate(t, detail, DEFAULT_VCUT)]
    return []


@functools.lru_cache(maxsize=None)
def _cell_sites(gtype: str) -> tuple[DefectSite, ...]:
    return tuple(enumerate_defect_sites(ALL_CELLS[gtype]))


def circuit_faults_for_cell(cell: Cell) -> list[CircuitFault]:
    """The cell's full circuit-fault universe, in site order.

    The lowered image of every Table I site, followed by one
    drive-drift (delay-fault) descriptor per transistor — the list the
    batched SPICE defect screens iterate
    (:func:`repro.core.detection.screen_cell_faults`).
    """
    sites = (
        _cell_sites(cell.name)
        if ALL_CELLS.get(cell.name) is cell
        else enumerate_defect_sites(cell)
    )
    faults: list[CircuitFault] = []
    for site in sites:
        faults.extend(circuit_faults_for_site(site))
    for t in cell.transistors:
        faults.append(DriveDriftFault(t.name, DEFAULT_DRIFT_FACTOR))
    return faults


def _is_benign_rail_bridge(cell: Cell, site: DefectSite) -> bool:
    """Bridging a polarity terminal to the rail it is already tied to
    (SP gates) changes nothing — the IFA's 'benign' class."""
    if site.mechanism is not DefectMechanism.TERMINAL_BRIDGE:
        return False
    if site.detail not in ("pg-vdd", "pg-gnd"):
        return False
    rail = "vdd" if site.detail == "pg-vdd" else "gnd"
    return _rail_tied(cell, site.transistor, rail)


def _mapped_gates(network: Network):
    """Gates with a transistor-level cell, in levelized order (the same
    deterministic order the logic enumerators use)."""
    return [g for g in network.levelized() if g.gtype in ALL_CELLS]


# ---------------------------------------------------------------------------
# Registered universes
# ---------------------------------------------------------------------------

class DefectMechanismUniverse(FaultUniverse):
    """Table I fabrication-defect sites over a network's gate instances.

    ``collapse`` drops the benign rail bridges (a polarity terminal
    bridged to the rail it is already tied to on an SP gate) — the
    mechanism-level analogue of equivalence collapsing.
    """

    layer = "mechanism"
    description = "Table I fabrication-defect sites per mapped gate instance"

    def enumerate(self, network: Network) -> list[MechanismFault]:
        faults = []
        for gate in _mapped_gates(network):
            for site in _cell_sites(gate.gtype):
                faults.append(MechanismFault(gate.name, gate.gtype, site))
        return faults

    def collapse(
        self, network: Network, faults: Sequence[MechanismFault] | None = None
    ) -> list[MechanismFault]:
        if faults is None:
            faults = self.enumerate(network)
        return [
            f
            for f in faults
            if not _is_benign_rail_bridge(ALL_CELLS[f.gtype], f.site)
        ]

    def lower(
        self, network: Network, fault: MechanismFault
    ) -> list[tuple[str, object]]:
        lowered: list[tuple[str, object]] = []
        for t, defect in device_defects_for_site(fault.site):
            lowered.append(
                ("device_defect",
                 DeviceFault(fault.gate, fault.gtype, t, defect))
            )
        if lowered:
            return lowered
        return [
            ("circuit_fault", CircuitFaultSite(fault.gate, fault.gtype, f))
            for f in circuit_faults_for_site(fault.site)
        ]

    def kind_of(self, fault: MechanismFault) -> str:
        return MECHANISM_SLUGS[fault.site.mechanism]


class DeviceDefectUniverse(FaultUniverse):
    """Device-internal defects per transistor of every mapped gate.

    The :mod:`repro.device.defects` taxonomy: a full channel break, a
    GOS at each of the three gates, and the parameter-drift origin of
    delay faults.
    """

    layer = "device"
    description = "channel break, per-gate GOS and drive drift per transistor"

    def enumerate(self, network: Network) -> list[DeviceFault]:
        from repro.device.defects import (
            ChannelBreak,
            GateOxideShort,
            ParameterDrift,
        )

        faults = []
        for gate in _mapped_gates(network):
            cell = ALL_CELLS[gate.gtype]
            for t in cell.transistors:
                defects: list[DeviceDefect] = [ChannelBreak(1.0)]
                defects += [
                    GateOxideShort(loc) for loc in ("pgs", "cg", "pgd")
                ]
                defects.append(
                    ParameterDrift(i_on_factor=DEFAULT_DRIFT_FACTOR)
                )
                for defect in defects:
                    faults.append(
                        DeviceFault(gate.name, gate.gtype, t.name, defect)
                    )
        return faults

    def lower(
        self, network: Network, fault: DeviceFault
    ) -> list[tuple[str, object]]:
        circuit_fault = circuit_fault_for_device_defect(
            fault.transistor, fault.defect
        )
        if circuit_fault is None:
            return []
        return [
            ("circuit_fault",
             CircuitFaultSite(fault.gate, fault.gtype, circuit_fault))
        ]

    def kind_of(self, fault: DeviceFault) -> str:
        return _defect_slug(fault.defect).split(":")[0]


class CircuitFaultUniverse(FaultUniverse):
    """Injectable circuit-fault descriptors per mapped gate instance.

    Derived by lowering every Table I site (plus drive drift), so the
    circuit universe is by construction the image of the mechanism
    universe.  ``collapse`` drops descriptors whose mechanism-level
    origin is benign (rail bridges on already-tied SP transistors).
    """

    layer = "circuit"
    description = "injectable SPICE fault descriptors per mapped gate"

    def enumerate(self, network: Network) -> list[CircuitFaultSite]:
        faults = []
        for gate in _mapped_gates(network):
            for f in circuit_faults_for_cell(ALL_CELLS[gate.gtype]):
                faults.append(CircuitFaultSite(gate.name, gate.gtype, f))
        return faults

    def collapse(
        self,
        network: Network,
        faults: Sequence[CircuitFaultSite] | None = None,
    ) -> list[CircuitFaultSite]:
        if faults is None:
            faults = self.enumerate(network)
        kept = []
        for f in faults:
            cell = ALL_CELLS[f.gtype]
            if isinstance(f.fault, StuckAtNType) and _rail_tied(
                cell, f.fault.transistor, "vdd"
            ):
                continue
            if isinstance(f.fault, StuckAtPType) and _rail_tied(
                cell, f.fault.transistor, "gnd"
            ):
                continue
            kept.append(f)
        return kept

    def lower(
        self, network: Network, fault: CircuitFaultSite
    ) -> list[tuple[str, object]]:
        f = fault.fault
        if fault.gtype not in ALL_CELLS:
            return []
        if isinstance(f, (StuckAtNType, StuckAtPType)):
            # The polarity universe covers DP gates (SP polarity
            # terminals are rail-tied; their non-benign bridges are
            # screened in the analog domain).
            if not network.gates[fault.gate].is_dp:
                return []
            kind = "n" if isinstance(f, StuckAtNType) else "p"
            return [
                ("polarity",
                 PolarityFault(fault.gate, fault.gtype, f.transistor, kind))
            ]
        if isinstance(f, ChannelBreakFault) and f.fraction >= 1.0:
            return [
                ("stuck_open",
                 StuckOpenFault(fault.gate, fault.gtype, f.transistor))
            ]
        return []

    def kind_of(self, fault: CircuitFaultSite) -> str:
        return type(fault.fault).__name__


def _rail_tied(cell: Cell, transistor: str, rail: str) -> bool:
    t = cell.transistor(transistor)
    return t.pgs == rail and t.pgd == rail


register_universe("defect_mechanism", DefectMechanismUniverse())
register_universe("device_defect", DeviceDefectUniverse())
register_universe("circuit_fault", CircuitFaultUniverse())
