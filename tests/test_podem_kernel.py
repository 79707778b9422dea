"""Resident-state invariant of the compiled PODEM implication kernel.

:class:`repro.atpg.podem_compiled._DMachine` keeps the five-valued
state of every net resident and re-implies only what a decision or a
backtrack changes, level by level.  Seeded random decision/backtrack
sequences on random circuits and on cpx432, with stem, branch and
gate-table faults, check after every step that the resident codes equal
a from-scratch evaluation of the current assignment by the legacy dict
machine of the test oracle (``tests/oracles/podem_legacy.py``), and that fault effects only ever appear inside the fault's
static fanout cone (the only place the search scans for them).
"""

import itertools
import random

import pytest
from oracles.podem_legacy import _FaultMachine

from repro.atpg.podem_compiled import (
    F0,
    F1,
    G0,
    G1,
    _EFFECT,
    _install_fault,
    _kernel,
)
from repro.campaign import get_registry
from repro.circuits.random_circuits import random_network
from repro.faults import StuckAtFault
from repro.logic.compiled import compile_network
from repro.logic.values import X


def _code(value) -> int:
    """4-bit kernel code of a legacy :class:`DValue`."""
    good = {1: G1, 0: G0}.get(value.good, 0)
    faulty = {1: F1, 0: F0}.get(value.faulty, 0)
    return good | faulty


def _random_fault(network, rng):
    """A stem, branch or gate-table fault, or a table plus a stem."""
    gates = sorted(network.gates.values(), key=lambda g: g.name)
    nets = sorted(network.primary_inputs) + sorted(g.output for g in gates)
    kind = rng.choice(("stem", "pi_stem", "branch", "table", "table+stem"))
    line = table_gate = table = None
    if kind in ("stem", "table+stem"):
        line = StuckAtFault(rng.choice(nets), rng.randint(0, 1))
    elif kind == "pi_stem":
        line = StuckAtFault(
            rng.choice(sorted(network.primary_inputs)), rng.randint(0, 1)
        )
    elif kind == "branch":
        gate = rng.choice(gates)
        pin = rng.randrange(len(gate.inputs))
        line = StuckAtFault(
            gate.inputs[pin], rng.randint(0, 1), gate=gate.name, pin=pin
        )
    if kind in ("table", "table+stem"):
        gate = rng.choice(gates)
        table_gate = gate.name
        table = {
            bits: rng.choice((0, 1, X))
            for bits in itertools.product((0, 1), repeat=len(gate.inputs))
        }
    return line, table_gate, table


def _walk(network, seed, steps):
    rng = random.Random(seed)
    line, table_gate, table = _random_fault(network, rng)
    cnet = compile_network(network)
    machine, _, origin, cone = _install_fault(cnet, line, table_gate, table)
    may_carry = {cnet.ops[pos][1] for pos in cone}
    may_carry.update(i for i in (origin, machine.line_idx) if i >= 0)
    legacy = _FaultMachine(
        network,
        line_fault=line,
        gate_fault_name=table_gate,
        gate_fault_table=table,
    )
    names = cnet.net_names
    pis = list(cnet.pi_index)

    def check(step):
        assignment = {names[i]: v for i, v in machine.assign.items()}
        values = legacy.imply(assignment)
        expected = [_code(values[name]) for name in names]
        assert machine.code[: cnet.n_nets] == expected, (seed, step)
        assert machine.code[cnet.n_nets] == 0, (seed, step)  # padding
        for idx in range(cnet.n_nets):
            if _EFFECT[machine.code[idx]]:
                assert idx in may_carry, (seed, step, names[idx])

    check(-1)
    for step in range(steps):
        free = [i for i in pis if i not in machine.assign]
        if free and (not machine.stack or rng.random() < 0.6):
            machine.decide(rng.choice(free), rng.randint(0, 1))
        elif not machine.backtrack():
            assert not machine.assign and not machine.stack
        check(step)


@pytest.mark.parametrize("seed", range(12))
def test_random_circuits_state_matches_full_evaluation(seed):
    network = random_network(
        seed, n_gates=30 + 5 * seed, n_inputs=6 + seed % 5,
        dp_fraction=0.4,
    )
    for k in range(4):
        _walk(network, 1000 * seed + k, steps=40)


def test_cpx432_state_matches_full_evaluation():
    network = get_registry().load("cpx432")
    for seed in range(5):
        _walk(network, seed, steps=30)


@pytest.mark.parametrize("circuit", ["random", "cpx432"])
def test_levels_increase_along_every_edge(circuit):
    """Each level's event list is drained once, so an op must sit on a
    higher level than every op feeding it."""
    if circuit == "random":
        network = random_network(7, n_gates=120, dp_fraction=0.4)
    else:
        network = get_registry().load(circuit)
    cnet = compile_network(network)
    level = _kernel(cnet).level
    driver = cnet.structures().driver_op
    for pos, (_, _, ins) in enumerate(cnet.ops):
        for i in ins:
            if driver[i] >= 0:
                assert level[driver[i]] < level[pos], (pos, i)
