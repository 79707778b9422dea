"""The compiled switch-level engine and the PODEM gate tables against
their slow references.

:func:`repro.logic.switch_level.evaluate` runs on per-cell index tables;
the dict-based evaluation it replaced lives on as the oracle
``tests/oracles/switch_level_dict.py``.  Every result must be ``==``
equal to the oracle's, with ``net_values`` and ``conducting`` in the
same key order, including where the fixed point does not settle within
``max_iterations``.  The gate tables of :mod:`repro.atpg.podem_compiled`
are built over index arrays; here they are held equal to a per-index
Python rebuild.

Needs numpy and pytest only (no hypothesis, no analog stack).
"""

import itertools

import pytest
from oracles.switch_level_dict import evaluate as oracle_evaluate

from repro.atpg import podem_compiled
from repro.gates.library import ALL_CELLS, INV, XOR2, XOR3
from repro.logic import compiled as C
from repro.logic.switch_level import (
    DeviceState,
    evaluate,
    fault_free_is_consistent,
    fault_image,
    truth_table_switch_level,
)
from repro.logic.values import ONE, X, Z, ZERO

CELLS = sorted(ALL_CELLS)
PREVIOUS = (ZERO, ONE, X, Z)


def _vectors(cell):
    return list(itertools.product((0, 1), repeat=cell.n_inputs))


def _assert_same(cell, vector, states, previous=X, **kwargs):
    got = evaluate(cell, vector, states, previous, **kwargs)
    want = oracle_evaluate(cell, vector, states, previous, **kwargs)
    case = (cell.name, vector, states, previous, kwargs)
    assert got == want, case
    assert list(got.net_values) == list(want.net_values), case
    assert list(got.conducting) == list(want.conducting), case


@pytest.mark.parametrize("cell_name", CELLS)
def test_single_faults_match_oracle(cell_name):
    """No fault and every single device state, under every vector and
    every retained previous output."""
    cell = ALL_CELLS[cell_name]
    cases = [{}] + [
        {t.name: state} for t in cell.transistors for state in DeviceState
    ]
    for states in cases:
        for vector in _vectors(cell):
            for previous in PREVIOUS:
                _assert_same(cell, vector, states, previous)


@pytest.mark.slow
@pytest.mark.parametrize("cell_name", CELLS)
def test_device_pairs_match_oracle(cell_name):
    """Every two-device combination of fault states."""
    cell = ALL_CELLS[cell_name]
    names = [t.name for t in cell.transistors]
    for a, b in itertools.combinations(names, 2):
        for sa, sb in itertools.product(DeviceState, repeat=2):
            for vector in _vectors(cell):
                for previous in PREVIOUS:
                    _assert_same(cell, vector, {a: sa, b: sb}, previous)


# ---------------------------------------------------------------------------
# Evaluations whose fixed point does not settle
# ---------------------------------------------------------------------------

#: Every single-fault library evaluation that has not settled after the
#: default 8 iterations: XOR3's x-stage devices t9-t12, as
#: ``(transistor, state, vectors)``.  Each alternates with period 2.
UNSETTLED = {
    ("t9", DeviceState.STUCK_ON): {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)},
    ("t9", DeviceState.STUCK_AT_N): {(0, 0, 0), (1, 1, 0)},
    ("t9", DeviceState.STUCK_AT_P): {(0, 1, 1), (1, 0, 1)},
    ("t10", DeviceState.STUCK_ON): {
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
    },
    ("t10", DeviceState.STUCK_AT_N): {(0, 1, 1), (1, 0, 1)},
    ("t10", DeviceState.STUCK_AT_P): {(0, 0, 0), (1, 1, 0)},
    ("t11", DeviceState.STUCK_ON): {
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1),
    },
    ("t11", DeviceState.STUCK_AT_N): {(0, 0, 1), (1, 1, 1)},
    ("t11", DeviceState.STUCK_AT_P): {(0, 1, 0), (1, 0, 0)},
    ("t12", DeviceState.STUCK_ON): {
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1),
    },
    ("t12", DeviceState.STUCK_AT_N): {(0, 1, 0), (1, 0, 0)},
    ("t12", DeviceState.STUCK_AT_P): {(0, 0, 1), (1, 1, 1)},
}


def _unsettled_cases():
    return [
        (transistor, state, vector)
        for (transistor, state), vectors in UNSETTLED.items()
        for vector in sorted(vectors)
    ]


def test_unsettled_set_is_pinned():
    """The 8th iterate differs from the 7th on exactly the pinned 32
    single-fault evaluations, all of them in XOR3."""
    found = set()
    for cell_name in CELLS:
        cell = ALL_CELLS[cell_name]
        for t in cell.transistors:
            for state in DeviceState:
                for vector in _vectors(cell):
                    states = {t.name: state}
                    seventh = oracle_evaluate(
                        cell, vector, states, max_iterations=7
                    )
                    eighth = oracle_evaluate(cell, vector, states)
                    if seventh.net_values != eighth.net_values:
                        found.add((cell_name, t.name, state, vector))
    pinned = {("XOR3", *case) for case in _unsettled_cases()}
    assert len(pinned) == 32
    assert found == pinned


@pytest.mark.parametrize(
    "transistor, state, vector", _unsettled_cases(),
    ids=lambda v: v.value if isinstance(v, DeviceState) else str(v),
)
def test_unsettled_returns_last_iterate(transistor, state, vector):
    """The compiled engine returns the oracle's 8th iterate, and the
    iterates alternate with period 2."""
    states = {transistor: state}
    for bound in (7, 8, 9, 10):
        _assert_same(XOR3, vector, states, max_iterations=bound)
    eighth = evaluate(XOR3, vector, states)
    ninth = evaluate(XOR3, vector, states, max_iterations=9)
    tenth = evaluate(XOR3, vector, states, max_iterations=10)
    assert eighth.net_values != ninth.net_values
    assert eighth == tenth


def test_unsettled_output_follows_bound_parity():
    """t9 stuck-at-n at (0,0,0): a definite 0 with a conflict after 8
    iterations, X without one after 9."""
    states = {"t9": DeviceState.STUCK_AT_N}
    eighth = evaluate(XOR3, (0, 0, 0), states)
    ninth = evaluate(XOR3, (0, 0, 0), states, max_iterations=9)
    assert (eighth.output, eighth.conflict) == (ZERO, True)
    assert (ninth.output, ninth.conflict) == (X, False)


# ---------------------------------------------------------------------------
# Error contracts and iteration bounds
# ---------------------------------------------------------------------------

ENGINES = pytest.mark.parametrize(
    "engine", [evaluate, oracle_evaluate], ids=["compiled", "oracle"]
)


@ENGINES
def test_unknown_transistor_names_the_cell(engine):
    with pytest.raises(KeyError, match="XOR2 has no transistor 't9'"):
        engine(XOR2, (0, 0), {"t9": DeviceState.STUCK_OPEN})


@ENGINES
@pytest.mark.parametrize("vector", [(0,), (0, 1, 1), ()])
def test_wrong_vector_length_rejected(engine, vector):
    with pytest.raises(ValueError, match="XOR2 expects 2 inputs"):
        engine(XOR2, vector)


@ENGINES
@pytest.mark.parametrize("vector", [(0, 2), (X, 1), (0, None)])
def test_non_binary_bit_rejected(engine, vector):
    with pytest.raises(ValueError, match="input bits must be 0/1"):
        engine(XOR2, vector)


@ENGINES
def test_unknown_transistor_checked_before_vector(engine):
    with pytest.raises(KeyError):
        engine(INV, (0, 1), {"t9": DeviceState.STUCK_ON})


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("cell_name", CELLS)
def test_short_bounds_match_oracle(cell_name, bound):
    """A bound of 1 returns the first iterate (0: the initial values,
    no conducting device), as the oracle does."""
    cell = ALL_CELLS[cell_name]
    cases = [{}] + [
        {t.name: state} for t in cell.transistors for state in DeviceState
    ]
    for states in cases:
        for vector in _vectors(cell):
            _assert_same(cell, vector, states, max_iterations=bound)


# ---------------------------------------------------------------------------
# The fault-free memo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cell_name", CELLS)
def test_fault_free_memo_matches_oracle(cell_name):
    """The truth table, the consistency check and every fault image's
    good row read the one fault-free pass, equal to the oracle's."""
    cell = ALL_CELLS[cell_name]
    reference = {
        vector: oracle_evaluate(cell, vector) for vector in _vectors(cell)
    }
    assert truth_table_switch_level(cell) == {
        vector: result.output for vector, result in reference.items()
    }
    assert fault_free_is_consistent(cell) == all(
        not result.conflict and result.output == cell.function(vector)
        for vector, result in reference.items()
    )
    for t in cell.transistors:
        image = fault_image(cell, t.name, DeviceState.STUCK_ON)
        assert image.good == tuple(r.output for r in reference.values())


# ---------------------------------------------------------------------------
# PODEM gate tables
# ---------------------------------------------------------------------------

#: Every (opcode, arity) a compiled op can have.
GATE_SHAPES = (
    [(C.OP_BUF, 1), (C.OP_INV, 1), (C.OP_MAJ, 3), (C.OP_MIN, 3)]
    + [
        (opcode, arity)
        for opcode in (
            C.OP_AND, C.OP_NAND, C.OP_OR, C.OP_NOR, C.OP_XOR, C.OP_XNOR
        )
        for arity in (2, 3)
    ]
)


def _gate_table_reference(opcode, arity):
    """One packed index at a time, in plain Python."""
    pc = podem_compiled
    base = pc._BASE_OP.get(opcode, opcode)
    table = []
    for index in range(16 ** arity):
        pins = [(index >> (4 * k)) & 15 for k in range(arity)]
        if base == C.OP_BUF:
            out = pins[0]
        elif base == C.OP_MAJ:
            a, b, c = pins
            out = (a & b) | (b & c) | (a & c)
        else:
            out = pins[0]
            for pin in pins[1:]:
                out = pc._FOLDS[base](out, pin)
        table.append(pc._invert(out) if opcode in C.INVERTING_OPS else out)
    return tuple(table)


def _faulted_table_reference(opcode, arity, pin_forces, local, stem):
    """:func:`podem_compiled._faulted_table`, one index at a time."""
    pc = podem_compiled
    healthy = _gate_table_reference(opcode, arity)
    clear = force = 0
    for pin, value in pin_forces:
        clear |= pc.FAULT_BITS << (4 * pin)
        force |= (pc.F1 if value else pc.F0) << (4 * pin)
    indices = [(i & ~clear) | force for i in range(16 ** arity)]
    table = [healthy[i] for i in indices]
    if local is not None:
        faulty = {}
        for minterm, value in local:
            if value in (0, 1):
                key = 0
                for k, bit in enumerate(minterm):
                    key |= (pc.F1 if bit else pc.F0) << (4 * k)
                faulty[key] = pc.F1 if value else pc.F0
        mask = 0xAAA >> (4 * (3 - arity))
        table = [
            (healthy[i] & pc.GOOD_BITS) | faulty.get(i & mask, 0)
            for i in indices
        ]
    if stem >= 0:
        table = [pc._force_faulty(c, stem) for c in table]
    return tuple(table)


def test_gate_shapes_cover_every_opcode():
    assert len(GATE_SHAPES) == 16
    assert {opcode for opcode, _ in GATE_SHAPES} == set(range(10))


@pytest.mark.parametrize("opcode, arity", GATE_SHAPES)
def test_gate_table_matches_reference(opcode, arity):
    table = podem_compiled._gate_table(opcode, arity)
    assert table == _gate_table_reference(opcode, arity)
    assert all(type(code) is int for code in table)


@pytest.mark.parametrize("opcode, arity", GATE_SHAPES)
def test_faulted_table_matches_reference(opcode, arity):
    """Branch forces, local truth tables (with X entries) and stem
    forces, alone and together."""
    minterms = list(itertools.product((0, 1), repeat=arity))
    locals_ = [
        None,
        tuple((m, 1 - (sum(m) & 1)) for m in minterms),
        tuple((m, (0, 1, X)[k % 3]) for k, m in enumerate(minterms)),
    ]
    forces = [(), ((0, 1),), ((arity - 1, 0),), ((0, 0), (arity - 1, 1))]
    for pin_forces, local, stem in itertools.product(
        forces, locals_, (-1, 0, 1)
    ):
        got = podem_compiled._faulted_table.__wrapped__(
            opcode, arity, pin_forces, local, stem
        )
        assert got == _faulted_table_reference(
            opcode, arity, pin_forces, local, stem
        ), (pin_forces, local, stem)
        assert all(type(code) is int for code in got)
