"""Inductive fault analysis (IFA) engine.

The paper's methodology: enumerate realistic defects from the fabrication
process (Table I), inject each into representative logic gates, observe
the faulty behaviour, and map each physical defect onto the logic-level
fault model(s) that can test for it.  :func:`run_ifa` performs the whole
campaign in the switch-level domain (fast, exhaustive);
:mod:`repro.core.detection` provides the SPICE-domain deep dives used by
the figure benchmarks.

The defect-site → switch-state mapping is shared with the unified
fault-universe API (:mod:`repro.faults`): network-scale enumeration and
cross-layer lowering live there (``get_universe("defect_mechanism")``),
while this module keeps the per-cell behavioural classification.
"""

from __future__ import annotations

import dataclasses

from repro.core.defects import (
    DefectMechanism,
    DefectSite,
    enumerate_defect_sites,
)
from repro.gates.cell import Cell
from repro.logic.switch_level import DeviceState, fault_image


@dataclasses.dataclass(frozen=True)
class IFAResult:
    """Outcome of injecting one defect site.

    Attributes:
        site: The injected defect site.
        behaviour: Qualitative behaviour class:
            'functional-masked', 'wrong-output', 'iddq', 'wrong-output+iddq',
            'sequential' (output floats: stuck-open memory effect), or
            'analog-only' (needs delay/leakage measurement — GOS,
            parameter drift).
        fault_models: Names of logic-level fault models that cover it.
    """

    site: DefectSite
    behaviour: str
    fault_models: tuple[str, ...]


def _switch_state_for_site(site: DefectSite) -> DeviceState | None:
    """Switch-level image of a defect site, when one exists.

    Delegates to the shared cross-layer lowering of
    :func:`repro.faults.physical.switch_state_for_site` (imported
    lazily: ``repro.faults`` wraps this module's site enumeration, so a
    top-level import would be circular), keeping the IFA sweep and the
    fault-universe API on one mapping.
    """
    from repro.faults.physical import switch_state_for_site

    return switch_state_for_site(site)


def _classify_site(cell: Cell, site: DefectSite) -> IFAResult:
    state = _switch_state_for_site(site)
    if state is None:
        # GOS, CG-PG bridges, floating CG, interconnect bridges: their
        # first-order signatures are parametric (delay/leakage shifts) or
        # depend on analog coupling; covered by delay-fault / IDDQ
        # testing as Section IV-B and V-A conclude.
        if site.mechanism is DefectMechanism.GATE_OXIDE_SHORT:
            models = ("delay fault", "stuck-on (IDDQ)")
        elif site.mechanism is DefectMechanism.INTERCONNECT_BRIDGE:
            models = ("bridging fault", "stuck-on (IDDQ)")
        else:
            models = ("delay fault", "stuck-on (IDDQ)")
        return IFAResult(site=site, behaviour="analog-only",
                         fault_models=models)

    image = fault_image(cell, site.transistor, state)
    floats = bool(image.floating)
    wrong_output = bool(image.wrong or image.tied)
    iddq = bool(image.iddq)
    polarity = state in (DeviceState.STUCK_AT_N, DeviceState.STUCK_AT_P)

    models: list[str] = []
    if floats:
        models.append("stuck-open fault (two-pattern)")
    if polarity and (wrong_output or iddq):
        models.append("stuck-at n-type/p-type")
    if not polarity and wrong_output:
        models.append("stuck-at fault")
    if not polarity and iddq:
        models.append("stuck-on (IDDQ)")
    if not (floats or wrong_output or iddq):
        if state is DeviceState.STUCK_OPEN:
            # The DP masking case: needs the paper's new procedure.
            models.append("channel-break procedure (stuck-at n/p based)")
            behaviour = "functional-masked"
        elif polarity:
            # Bridging a polarity terminal to the rail it is already tied
            # to changes nothing: benign.
            behaviour = "benign"
        else:
            models.append("delay fault")
            behaviour = "functional-masked"
    elif wrong_output and iddq:
        behaviour = "wrong-output+iddq"
    elif wrong_output:
        behaviour = "wrong-output"
    elif iddq:
        behaviour = "iddq"
    else:
        behaviour = "sequential"
    return IFAResult(
        site=site, behaviour=behaviour, fault_models=tuple(models)
    )


def run_ifa(cell: Cell) -> list[IFAResult]:
    """Run the full inductive fault analysis campaign on one cell."""
    return [
        _classify_site(cell, site) for site in enumerate_defect_sites(cell)
    ]


@dataclasses.dataclass(frozen=True)
class IFASummary:
    """Aggregated campaign statistics for one cell."""

    cell_name: str
    n_sites: int
    by_mechanism: dict[DefectMechanism, int]
    by_behaviour: dict[str, int]
    masked_breaks: tuple[str, ...]
    """Transistors whose full channel break is functionally masked."""


def summarise_ifa(cell: Cell, results: list[IFAResult]) -> IFASummary:
    by_mechanism: dict[DefectMechanism, int] = {}
    by_behaviour: dict[str, int] = {}
    masked_breaks: list[str] = []
    for r in results:
        by_mechanism[r.site.mechanism] = (
            by_mechanism.get(r.site.mechanism, 0) + 1
        )
        by_behaviour[r.behaviour] = by_behaviour.get(r.behaviour, 0) + 1
        if (
            r.site.mechanism is DefectMechanism.NANOWIRE_BREAK
            and r.behaviour == "functional-masked"
        ):
            masked_breaks.append(r.site.transistor)
    return IFASummary(
        cell_name=cell.name,
        n_sites=len(results),
        by_mechanism=by_mechanism,
        by_behaviour=by_behaviour,
        masked_breaks=tuple(sorted(masked_breaks)),
    )
