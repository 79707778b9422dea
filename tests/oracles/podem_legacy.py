"""The dict-based PODEM search: the oracle for the compiled kernel.

:func:`justify_and_propagate` is the five-valued D-calculus search the
library ran before :mod:`repro.atpg.podem_compiled` replaced it: a
:class:`_FaultMachine` that re-implies the whole circuit over name-keyed
dicts after every decision, a D-frontier and X-path check that walk the
levelized gate list, and a first-X-input backtrace.  It has the
signature of :func:`repro.atpg.podem_compiled.compiled_justify_and_propagate`,
whose decisions it must reproduce bit for bit: vectors, backtrack counts
and the detected / untestable / aborted outcome.

Tests put it in place of the compiled kernel with :func:`legacy_kernel`
(or :func:`on_legacy_kernel`), which patches the one entry point every
generator reaches through :func:`repro.atpg.podem.justify_and_propagate`::

    with legacy_kernel():
        oracle = run_stuck_at_atpg(network, faults)
"""

from __future__ import annotations

from typing import Mapping, Sequence
from unittest import mock

from repro.atpg.podem import PodemResult
from repro.faults.logic import StuckAtFault
from repro.logic.eval import CONTROLLING, INVERTING, eval_dvalue
from repro.logic.network import Gate, Network
from repro.logic.values import DValue, ONE, X, ZERO, from_ternary

#: The kernel entry point :func:`repro.atpg.podem.justify_and_propagate`
#: resolves on every call.
KERNEL = "repro.atpg.podem_compiled.compiled_justify_and_propagate"


def legacy_kernel():
    """Context manager routing every PODEM search through the oracle."""
    return mock.patch(KERNEL, justify_and_propagate)


def on_legacy_kernel(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the oracle kernel in place."""
    with legacy_kernel():
        return fn(*args, **kwargs)


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
    gate_fault_name: str | None = None,
    gate_fault_table: Mapping[tuple[int, ...], int] | None = None,
    propagate: bool = True,
    max_backtracks: int = 500,
) -> PodemResult:
    """Generic PODEM on the dict-based machine (see module doc)."""
    machine = _FaultMachine(
        network,
        line_fault=line_fault,
        gate_fault_name=gate_fault_name,
        gate_fault_table=gate_fault_table,
    )
    # Where the fault effect first materialises.
    fault_gate_name: str | None = None
    origin: str | None = None
    if gate_fault_name is not None:
        fault_gate_name = gate_fault_name
        origin = network.gates[gate_fault_name].output
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
