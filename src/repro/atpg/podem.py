"""PODEM test-pattern generation over the five-valued D-calculus.

The core routine :func:`generate_test` handles classic stuck-at faults;
:func:`justify_and_propagate` exposes the underlying machinery in a more
general form used by the polarity-fault and stuck-open generators: it
accepts a *condition* (required good-machine values on arbitrary nets —
typically a DP gate's local activation vector) plus a faulty-machine
*gate override*, and searches primary-input assignments that satisfy the
condition and (optionally) propagate the resulting D/D' to an output.

Two implementations back the same search:

* the **compiled engine** (default, ``engine="compiled"`` —
  :mod:`repro.atpg.podem_compiled`): the D-calculus encoded in the
  dual-rail words of :class:`repro.logic.compiled.CompiledNetwork`
  with index-level event-driven implication, sharing the per-network
  compilation memo with the fault simulator; and
* the **legacy dict-based machine** (``engine="legacy"`` — this
  module's :class:`_FaultMachine` and helpers), kept as the
  transparent cross-check oracle.

Both make bit-identical decisions, so vectors, backtrack counts and
testable/untestable/aborted classifications agree exactly
(``tests/test_podem_compiled.py``); the compiled path is ≥5x faster
end-to-end on the benchmark circuits (``benchmarks/bench_atpg_speed``).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.faults.logic import PolarityFault, StuckAtFault
from repro.logic.eval import CONTROLLING, INVERTING, eval_dvalue
from repro.logic.network import Gate, Network
from repro.logic.values import (
    DValue,
    ONE,
    X,
    ZERO,
    from_ternary,
)


#: Accepted values of every PODEM ``engine`` argument (and of the
#: campaign CLI's ``--engine`` and the job service's ``engine`` field).
PODEM_ENGINES = ("compiled", "legacy")


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


class _FaultMachine:
    """Five-valued forward implication with a fault installed."""

    def __init__(
        self,
        network: Network,
        line_fault: StuckAtFault | None = None,
        gate_fault_name: str | None = None,
        gate_fault_table: Mapping[tuple[int, ...], int] | None = None,
    ) -> None:
        self.network = network
        self.line_fault = line_fault
        self.gate_fault_name = gate_fault_name
        self.gate_fault_table = gate_fault_table

    def _apply_line_fault(self, net: str, value: DValue) -> DValue:
        fault = self.line_fault
        if fault is None or fault.is_branch or fault.net != net:
            return value
        return DValue(value.good, fault.value)

    def imply(self, assignment: Mapping[str, int]) -> dict[str, DValue]:
        """Forward-simulate both machines from a PI assignment."""
        values: dict[str, DValue] = {}
        for net in self.network.primary_inputs:
            value = from_ternary(assignment.get(net, X))
            values[net] = self._apply_line_fault(net, value)
        for gate in self.network.levelized():
            pins: list[DValue] = []
            for k, net in enumerate(gate.inputs):
                pin = values[net]
                fault = self.line_fault
                if (
                    fault is not None
                    and fault.is_branch
                    and fault.gate == gate.name
                    and fault.pin == k
                ):
                    pin = DValue(pin.good, fault.value)
                pins.append(pin)
            if gate.name == self.gate_fault_name:
                good = eval_dvalue(
                    gate.gtype, [DValue(p.good, p.good) for p in pins]
                ).good
                faulty = self._faulty_eval(pins)
                out = DValue(good, faulty)
            else:
                out = eval_dvalue(gate.gtype, pins)
            values[gate.output] = self._apply_line_fault(gate.output, out)
        return values

    def _faulty_eval(self, pins: Sequence[DValue]) -> int:
        """Faulty-machine output of the overridden gate."""
        faulty_pins = tuple(p.faulty for p in pins)
        if any(p not in (ZERO, ONE) for p in faulty_pins):
            return X
        assert self.gate_fault_table is not None
        return self.gate_fault_table[faulty_pins]


def _d_frontier(
    network: Network,
    values: Mapping[str, DValue],
    fault_gate: str | None,
) -> list[Gate]:
    """Gates through which the fault effect could advance.

    Includes the classic D-frontier (fault effect on an input, X on the
    output) plus the faulted gate itself while its output is still
    unresolved — for branch and functional faults, the D materialises
    *at* that gate once its side inputs are assigned.
    """
    frontier = []
    for gate in network.levelized():
        out = values[gate.output]
        if out.good != X and out.faulty != X:
            continue
        if gate.name == fault_gate or any(
            values[n].is_fault_effect for n in gate.inputs
        ):
            frontier.append(gate)
    return frontier


def _x_path_exists(
    network: Network,
    values: Mapping[str, DValue],
    origin: str | None,
) -> bool:
    """Check some fault effect can still reach a primary output through
    X-valued nets.

    ``origin`` is the net where the fault effect first materialises
    (stem net, or the faulted gate's output for branch/functional
    faults); while that net is still X-ish it seeds the search even
    though no D exists yet.
    """
    effect_nets = {
        n for n, v in values.items() if v.is_fault_effect
    }
    if not effect_nets and origin is not None:
        value = values.get(origin)
        if value is not None and (value.good == X or value.faulty == X):
            effect_nets = {origin}
    if not effect_nets:
        return False
    if any(n in network.primary_outputs for n in effect_nets):
        return True
    reachable = set(effect_nets)
    changed = True
    while changed:
        changed = False
        for gate in network.levelized():
            if gate.output in reachable:
                continue
            out = values[gate.output]
            if out.good != X and out.faulty != X:
                continue  # blocked: output already resolved
            if any(n in reachable for n in gate.inputs):
                reachable.add(gate.output)
                changed = True
    return any(n in network.primary_outputs for n in reachable)


def _backtrace(
    network: Network,
    values: Mapping[str, DValue],
    net: str,
    target: int,
) -> tuple[str, int] | None:
    """Map an objective (net, value) to a PI assignment through X lines."""
    for _ in range(len(network.gates) + len(network.primary_inputs) + 1):
        if net in network.primary_inputs:
            return net, target
        gate = network.driver_of(net)
        if gate is None:
            return None
        if gate.gtype in INVERTING:
            target = 1 - target
        x_inputs = [
            n for n in gate.inputs
            if values[n].good == X or values[n].faulty == X
        ]
        if not x_inputs:
            return None
        net = x_inputs[0]
    return None


def justify_and_propagate(
    network: Network,
    condition: Sequence[tuple[str, int]],
    line_fault: StuckAtFault | None = None,
    gate_fault: PolarityFault | None = None,
    gate_fault_table: Mapping[tuple[int, ...], int] | None = None,
    propagate: bool = True,
    max_backtracks: int = 500,
    engine: str = "compiled",
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
        engine: ``"compiled"`` (index-level event-driven implication on
            the compiled network — the fast default) or ``"legacy"``
            (this module's dict-based machine, the cross-check oracle).
            Both return identical results.
    """
    if gate_fault is not None and gate_fault_table is None:
        gate_fault_table = gate_fault.faulty_table()
    if engine == "compiled":
        from repro.atpg.podem_compiled import compiled_justify_and_propagate

        return compiled_justify_and_propagate(
            network,
            condition,
            line_fault=line_fault,
            gate_fault_name=gate_fault.gate if gate_fault else None,
            gate_fault_table=gate_fault_table,
            propagate=propagate,
            max_backtracks=max_backtracks,
        )
    if engine != "legacy":
        raise ValueError(
            f"unknown PODEM engine {engine!r}; expected one of "
            f"{list(PODEM_ENGINES)}"
        )
    machine = _FaultMachine(
        network,
        line_fault=line_fault,
        gate_fault_name=gate_fault.gate if gate_fault else None,
        gate_fault_table=gate_fault_table,
    )
    # Where the fault effect first materialises.
    fault_gate_name: str | None = None
    origin: str | None = None
    if gate_fault is not None:
        fault_gate_name = gate_fault.gate
        origin = network.gates[gate_fault.gate].output
    elif line_fault is not None:
        if line_fault.is_branch:
            fault_gate_name = line_fault.gate
            origin = network.gates[line_fault.gate].output
        else:
            origin = line_fault.net
    assignment: dict[str, int] = {}
    # Decision stack: (pi, value, tried_both)
    stack: list[tuple[str, int, bool]] = []
    backtracks = 0

    def status() -> tuple[bool, bool, dict[str, DValue]]:
        """Returns (success, dead_end, values)."""
        values = machine.imply(assignment)
        # Condition conflicts?
        for net, required in condition:
            good = values[net].good
            if good != X and good != required:
                return False, True, values
        justified = all(
            values[net].good == required for net, required in condition
        )
        if not propagate:
            return justified, False, values
        if justified:
            for po in network.primary_outputs:
                if values[po].is_fault_effect:
                    return True, False, values
            if not _x_path_exists(network, values, origin):
                return False, True, values
        return False, False, values

    for _ in range(20000):  # hard safety bound
        success, dead, values = status()
        if success:
            return PodemResult(True, dict(assignment), backtracks)
        if dead:
            # Backtrack.
            while stack:
                pi, value, tried = stack.pop()
                del assignment[pi]
                if not tried:
                    assignment[pi] = 1 - value
                    stack.append((pi, 1 - value, True))
                    backtracks += 1
                    break
            else:
                return PodemResult(False, {}, backtracks)
            if backtracks > max_backtracks:
                return PodemResult(False, {}, backtracks, aborted=True)
            continue
        # Pick the next objective.
        objective: tuple[str, int] | None = None
        for net, required in condition:
            if values[net].good == X:
                objective = (net, required)
                break
        if objective is None and propagate:
            frontier = _d_frontier(network, values, fault_gate_name)
            for gate in frontier:
                x_pins = [
                    n for n in gate.inputs
                    if values[n].good == X or values[n].faulty == X
                ]
                if not x_pins:
                    continue
                control = CONTROLLING.get(gate.gtype)
                value = 1 - control[0] if control else 0
                objective = (x_pins[0], value)
                break
        if objective is None:
            # Nothing left to decide but no success: dead end.
            while stack:
                pi, value, tried = stack.pop()
                del assignment[pi]
                if not tried:
                    assignment[pi] = 1 - value
                    stack.append((pi, 1 - value, True))
                    backtracks += 1
                    break
            else:
                return PodemResult(False, {}, backtracks)
            if backtracks > max_backtracks:
                return PodemResult(False, {}, backtracks, aborted=True)
            continue
        decision = _backtrace(network, values, *objective)
        if decision is None:
            # Objective unreachable: backtrack.
            while stack:
                pi, value, tried = stack.pop()
                del assignment[pi]
                if not tried:
                    assignment[pi] = 1 - value
                    stack.append((pi, 1 - value, True))
                    backtracks += 1
                    break
            else:
                return PodemResult(False, {}, backtracks)
            if backtracks > max_backtracks:
                return PodemResult(False, {}, backtracks, aborted=True)
            continue
        pi, value = decision
        assignment[pi] = value
        stack.append((pi, value, False))
    return PodemResult(False, {}, backtracks, aborted=True)


def generate_test(
    network: Network,
    fault: StuckAtFault,
    max_backtracks: int = 500,
    engine: str = "compiled",
) -> PodemResult:
    """Classic PODEM for a stuck-at fault."""
    condition = [(fault.net, 1 - fault.value)]
    return justify_and_propagate(
        network,
        condition,
        line_fault=fault,
        max_backtracks=max_backtracks,
        engine=engine,
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
    engine: str = "compiled",
) -> StuckAtAtpgResult:
    """PODEM over a fault list with bit-parallel fault dropping.

    After each successful generation the new vector is fault-simulated
    (on the compiled engine) against every still-undetected fault, and
    all detected faults are dropped — the classic ATPG loop that avoids
    generating a dedicated test per fault.  ``engine`` selects the
    PODEM implementation (compiled default / legacy oracle); dropping
    always runs on the compiled simulator.
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
        result = generate_test(network, fault, max_backtracks, engine=engine)
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
