"""Physical-defect taxonomy derived from the fabrication process (Table I).

The paper's inductive fault analysis starts from the TIG-SiNWFET
fabrication flow; each process step contributes characteristic defect
mechanisms.  :data:`FABRICATION_STEPS` reproduces Table I;
:func:`enumerate_defect_sites` instantiates the concrete defect sites a
given cell exposes for each mechanism (the site lists drive the fault
injection campaigns in :mod:`repro.core.inductive`).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.gates.cell import Cell
from repro.logic.switch_level import DeviceState


class DefectMechanism(enum.Enum):
    """Physical defect classes of Table I."""

    NANOWIRE_BREAK = "nanowire break"
    GATE_OXIDE_SHORT = "gate oxide short"
    TERMINAL_BRIDGE = "bridge between two or more terminals"
    INTERCONNECT_BRIDGE = "bridge among interconnects"
    FLOATING_GATE = "floating gate"


@dataclasses.dataclass(frozen=True)
class FabricationStep:
    """One row of Table I."""

    index: int
    process: str
    outcome: str
    defects: tuple[DefectMechanism, ...]


FABRICATION_STEPS: tuple[FabricationStep, ...] = (
    FabricationStep(
        1,
        "HSQ-based nanowire patterning",
        "Initial pattern of nanowires",
        (DefectMechanism.NANOWIRE_BREAK,),
    ),
    FabricationStep(
        2,
        "Bosch process",
        "Nanowire formation",
        (DefectMechanism.NANOWIRE_BREAK,),
    ),
    FabricationStep(
        3,
        "Oxidation process",
        "Dielectric formation",
        (DefectMechanism.GATE_OXIDE_SHORT,),
    ),
    FabricationStep(
        4,
        "Polysilicon deposition",
        "Polarity and control gates",
        (DefectMechanism.TERMINAL_BRIDGE,),
    ),
    FabricationStep(
        5,
        "Metal layer(s) deposition",
        "Interconnections",
        (
            DefectMechanism.INTERCONNECT_BRIDGE,
            DefectMechanism.FLOATING_GATE,
        ),
    ),
)


@dataclasses.dataclass(frozen=True)
class DefectSite:
    """A concrete location where a defect mechanism can strike a cell.

    Attributes:
        mechanism: The physical mechanism.
        transistor: Affected transistor name ('' for net-level bridges).
        detail: Location detail — a gate terminal for GOS/floats, a pair
            of nets for bridges, '' for channel breaks.
    """

    mechanism: DefectMechanism
    transistor: str
    detail: str


def switch_state_for_site(site: DefectSite) -> DeviceState | None:
    """Switch-level image of a defect site, when one exists.

    The lookup behind the inductive fault analysis
    (:mod:`repro.core.inductive`) and the cross-layer lowering of
    :mod:`repro.faults.physical`: mechanisms whose first-order
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


#: Explicit sort rank per mechanism (Table I order) backing the
#: deterministic ordering contract of :func:`enumerate_defect_sites`.
_MECHANISM_RANK = {m: k for k, m in enumerate(DefectMechanism)}


def _site_sort_key(site: DefectSite) -> tuple[int, str, str]:
    return (_MECHANISM_RANK[site.mechanism], site.transistor, site.detail)


def enumerate_defect_sites(cell: Cell) -> list[DefectSite]:
    """All single-defect sites of a cell, mechanism by mechanism.

    * Nanowire break: one site per transistor channel.
    * Gate-oxide short: one site per transistor per gate (PGS, CG, PGD).
    * Terminal bridge: per transistor, CG-to-PGS and CG-to-PGD shorts
      (adjacent-gate deposition defects) plus the CP-specific
      polarity-terminal-to-rail bridges (PG-to-VDD, PG-to-GND) that
      motivate the stuck-at n-type / p-type models.
    * Interconnect bridge: unordered pairs of distinct signal nets.
    * Floating gate: per transistor, each signal-driven gate terminal can
      lose its connection.

    Ordering contract: the returned list is explicitly sorted by
    ``(mechanism, transistor, detail)`` with mechanisms in Table I
    (enum definition) order — never by dict/set iteration — so fault
    censuses, campaign stores and the CI golden files are stable across
    platforms and Python versions.
    """
    sites: list[DefectSite] = []
    for t in cell.transistors:
        sites.append(DefectSite(DefectMechanism.NANOWIRE_BREAK, t.name, ""))
        for gate in ("pgs", "cg", "pgd"):
            sites.append(
                DefectSite(DefectMechanism.GATE_OXIDE_SHORT, t.name, gate)
            )
        sites.append(
            DefectSite(DefectMechanism.TERMINAL_BRIDGE, t.name, "cg-pgs")
        )
        sites.append(
            DefectSite(DefectMechanism.TERMINAL_BRIDGE, t.name, "cg-pgd")
        )
        sites.append(
            DefectSite(DefectMechanism.TERMINAL_BRIDGE, t.name, "pg-vdd")
        )
        sites.append(
            DefectSite(DefectMechanism.TERMINAL_BRIDGE, t.name, "pg-gnd")
        )
        for gate in ("pgs", "cg", "pgd"):
            driver = getattr(t, gate)
            if driver not in ("vdd", "gnd") or cell.category == "SP":
                sites.append(
                    DefectSite(DefectMechanism.FLOATING_GATE, t.name, gate)
                )
    signal_nets = sorted(
        {net for t in cell.transistors for net in t.nets()}
        - {"vdd", "gnd"}
    )
    for i, a in enumerate(signal_nets):
        for b in signal_nets[i + 1:]:
            sites.append(
                DefectSite(
                    DefectMechanism.INTERCONNECT_BRIDGE, "", f"{a}-{b}"
                )
            )
    return sorted(sites, key=_site_sort_key)


def table_i_rows() -> list[tuple[str, str, str]]:
    """Render Table I: (process, outcome, possible defects)."""
    rows = []
    for step in FABRICATION_STEPS:
        defects = ", ".join(d.value for d in step.defects)
        rows.append(
            (f"({step.index}) {step.process}", step.outcome, defects)
        )
    return rows
