"""PODEM test-pattern generation over the five-valued D-calculus.

The core routine :func:`generate_test` handles classic stuck-at faults;
:func:`justify_and_propagate` exposes the underlying machinery in a more
general form used by the polarity-fault and stuck-open generators: it
accepts a *condition* (required good-machine values on arbitrary nets —
typically a DP gate's local activation vector) plus a faulty-machine
*gate override*, and searches primary-input assignments that satisfy the
condition and (optionally) propagate the resulting D/D' to an output.

The search runs on the compiled kernel of
:mod:`repro.atpg.podem_compiled`: the D-calculus encoded in the
dual-rail words of :class:`repro.logic.compiled.CompiledNetwork` with
index-level event-driven implication, sharing the per-network
compilation memo with the fault simulator.  The dict-based search it
replaced is the test oracle ``tests/oracles/podem_legacy.py``; the two
agree decision for decision — vectors, backtrack counts and the
testable/untestable/aborted classification
(``tests/test_podem_compiled.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.faults.logic import PolarityFault, StuckAtFault
from repro.logic.network import Network


@dataclasses.dataclass
class PodemResult:
    """Outcome of a PODEM run.

    Attributes:
        success: A test was found.
        vector: PI assignment (nets not listed are don't-care).
        backtracks: Decision backtracks consumed.
        aborted: True when the backtrack budget ran out (fault is
            *possibly* testable); False + no success means proven
            untestable under the search bound.
    """

    success: bool
    vector: dict[str, int]
    backtracks: int
    aborted: bool = False


def justify_and_propagate(
    network: Network,
    condition: Sequence[tuple[str, int]],
    line_fault: StuckAtFault | None = None,
    gate_fault: PolarityFault | None = None,
    gate_fault_table: Mapping[tuple[int, ...], int] | None = None,
    propagate: bool = True,
    max_backtracks: int = 500,
) -> PodemResult:
    """Generic PODEM: justify ``condition`` and propagate the fault effect.

    Args:
        network: Circuit under test.
        condition: Required good-machine values as (net, value) pairs —
            the fault's activation condition.
        line_fault: Classic stuck-at fault to install (optional).
        gate_fault: Polarity fault whose faulty table overrides its gate
            (optional; ``gate_fault_table`` may be given directly).
        propagate: When False, succeed as soon as the condition is
            justified (IDDQ-style testing: no output propagation needed).
        max_backtracks: Search budget.
    """
    # Imported here: the kernel module imports PodemResult from this one.
    from repro.atpg import podem_compiled

    if gate_fault is not None and gate_fault_table is None:
        gate_fault_table = gate_fault.faulty_table()
    return podem_compiled.compiled_justify_and_propagate(
        network,
        condition,
        line_fault=line_fault,
        gate_fault_name=gate_fault.gate if gate_fault else None,
        gate_fault_table=gate_fault_table,
        propagate=propagate,
        max_backtracks=max_backtracks,
    )


def generate_test(
    network: Network,
    fault: StuckAtFault,
    max_backtracks: int = 500,
) -> PodemResult:
    """Classic PODEM for a stuck-at fault."""
    condition = [(fault.net, 1 - fault.value)]
    return justify_and_propagate(
        network, condition, line_fault=fault, max_backtracks=max_backtracks
    )


@dataclasses.dataclass
class StuckAtAtpgResult:
    """Outcome of a full stuck-at ATPG campaign with fault dropping.

    Attributes:
        tests: Generated vectors (fully specified), in generation order.
        detected: Fault name -> index into ``tests`` of the detecting
            vector (for dropped faults, the test that dropped them).
        untestable: Faults proven untestable within the search bound.
        aborted: Faults the backtrack budget gave up on.
        total_backtracks: Backtracks summed over every PODEM search of
            the campaign (the effort metric the campaign layer stores).
    """

    tests: list[dict[str, int]]
    detected: dict[str, int]
    untestable: list[str]
    aborted: list[str]
    total_backtracks: int = 0

    @property
    def coverage(self) -> float:
        total = (
            len(self.detected) + len(self.untestable) + len(self.aborted)
        )
        return len(self.detected) / total if total else 1.0


def run_stuck_at_atpg(
    network: Network,
    faults: Sequence[StuckAtFault] | None = None,
    max_backtracks: int = 500,
) -> StuckAtAtpgResult:
    """PODEM over a fault list with bit-parallel fault dropping.

    After each successful generation the new vector is fault-simulated
    (on the compiled engine) against every still-undetected fault, and
    all detected faults are dropped — the classic ATPG loop that avoids
    generating a dedicated test per fault.
    """
    from repro.atpg.fault_sim import stuck_at_injection
    from repro.atpg.podem_compiled import batch_drop_detected
    from repro.faults import get_universe
    from repro.logic.compiled import compile_network

    if faults is None:
        faults = get_universe("stuck_at").collapse(network)
    cnet = compile_network(network)
    names = [f.name for f in faults]
    injections = [stuck_at_injection(cnet, f) for f in faults]
    tests: list[dict[str, int]] = []
    detected: dict[str, int] = {}
    untestable: list[str] = []
    aborted: list[str] = []
    suspect: list[str] = []
    dead: set[str] = set()  # proven untestable / aborted: never dropped
    total_backtracks = 0
    for fault, fault_name in zip(faults, names):
        if fault_name in detected:
            continue
        result = generate_test(network, fault, max_backtracks)
        total_backtracks += result.backtracks
        if not result.success:
            (aborted if result.aborted else untestable).append(fault_name)
            dead.add(fault_name)
            continue
        vector = dict(result.vector)
        for net in network.primary_inputs:
            vector.setdefault(net, 0)
        index = len(tests)
        tests.append(vector)
        pending = {
            name: injection
            for name, injection in zip(names, injections)
            if name not in detected and name not in dead
        }
        for name in batch_drop_detected(cnet, vector, pending):
            detected[name] = index
        if fault_name not in detected:
            # PODEM claimed success but simulation disagrees; the fault
            # stays live for collateral detection and is reported as
            # aborted only if nothing ever detects it.
            suspect.append(fault_name)
    aborted.extend(n for n in suspect if n not in detected)
    return StuckAtAtpgResult(
        tests=tests,
        detected=detected,
        untestable=sorted(untestable),
        aborted=sorted(aborted),
        total_backtracks=total_backtracks,
    )
