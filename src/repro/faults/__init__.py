"""repro.faults: the unified cross-layer fault-universe API.

One front door for everything fault-shaped, from fabrication physics to
ATPG.  The paper's central move — mapping Table I fabrication defects
through device-level I-V signatures onto gate-level fault models — is
encoded as a registry of :class:`FaultUniverse` objects with uniform
``enumerate`` / ``collapse`` / ``lower`` / ``image`` / ``stats``
protocols:

=================   =========  ==============================================
universe            layer      contents
=================   =========  ==============================================
defect_mechanism    mechanism  Table I defect sites per mapped gate instance
device_defect       device     channel break / GOS / drift per transistor
circuit_fault       circuit    injectable SPICE descriptors (Section IV/V)
stuck_at            logic      classic s-a-0/1 with structural collapsing
polarity            logic      stuck-at n-/p-type on DP gates (Section V-B)
stuck_open          logic      channel-break faults (Section V-C)
=================   =========  ==============================================

Campaign tasks, the ATPG entry points and ``python -m repro faults``
all select universes by name::

    from repro.faults import get_universe

    universe = get_universe("stuck_at")
    faults = universe.collapse(network)       # the ATPG target list
    census = universe.stats(network)          # counts before/after collapse

Cross-layer hops follow the paper's lowering chain
(DefectMechanism → DeviceDefect → CircuitFault → logic fault)::

    mechanism = get_universe("defect_mechanism")
    for site in mechanism.enumerate(network):
        logic_faults = mechanism.image(network, site)

A new fault class lands as a single :func:`register_universe` entry;
see ``docs/FAULT_UNIVERSES.md`` for the protocol walkthrough.

The legacy taxonomies stay importable: the gate-level classes live in
:mod:`repro.faults.logic`, while the device/circuit descriptor modules (:mod:`repro.device.defects`,
:mod:`repro.core.fault_models`, :mod:`repro.core.defects`) remain
canonical and are wrapped by the registered universes.
"""

from repro.core.defects import switch_state_for_site
from repro.faults.universe import (
    FaultUniverse,
    LAYERS,
    ReproDeprecationWarning,
    UniverseStats,
    get_universe,
    register_universe,
    universe_names,
)
from repro.faults.logic import (
    PolarityFault,
    PolarityUniverse,
    StuckAtFault,
    StuckAtUniverse,
    StuckOpenFault,
    StuckOpenUniverse,
    polarity_faults,
    stuck_at_faults,
    stuck_open_faults,
)
from repro.faults.records import (
    FAULT_TYPE_LABELS,
    PolarityFaultRecord,
)
from repro.faults.physical import (
    CircuitFaultSite,
    CircuitFaultUniverse,
    DEFAULT_DRIFT_FACTOR,
    DEFAULT_VCUT,
    DefectMechanismUniverse,
    DeviceDefectUniverse,
    DeviceFault,
    MechanismFault,
    circuit_faults_for_cell,
    circuit_faults_for_site,
    device_defects_for_site,
)

__all__ = [
    "CircuitFaultSite",
    "CircuitFaultUniverse",
    "DEFAULT_DRIFT_FACTOR",
    "DEFAULT_VCUT",
    "DefectMechanismUniverse",
    "DeviceDefectUniverse",
    "DeviceFault",
    "FAULT_TYPE_LABELS",
    "FaultUniverse",
    "LAYERS",
    "MechanismFault",
    "PolarityFault",
    "PolarityFaultRecord",
    "PolarityUniverse",
    "ReproDeprecationWarning",
    "StuckAtFault",
    "StuckAtUniverse",
    "StuckOpenFault",
    "StuckOpenUniverse",
    "UniverseStats",
    "circuit_faults_for_cell",
    "circuit_faults_for_site",
    "device_defects_for_site",
    "get_universe",
    "polarity_faults",
    "register_universe",
    "stuck_at_faults",
    "stuck_open_faults",
    "switch_state_for_site",
    "universe_names",
]
