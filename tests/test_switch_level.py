"""Tests for the switch-level CP transistor-network simulator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates.library import (
    ALL_CELLS,
    INV,
    MAJ3,
    NAND2,
    XOR2,
)
from repro.logic.switch_level import (
    DeviceState,
    evaluate,
    fault_free_is_consistent,
    fault_image,
    truth_table_switch_level,
)
from repro.logic.values import ONE, X, Z, ZERO


@pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
def test_every_cell_consistent_at_switch_level(cell_name):
    """Property: switch-level evaluation == the reference Boolean
    function for every library cell, every vector, with no conflicts."""
    assert fault_free_is_consistent(ALL_CELLS[cell_name])


class TestEvaluate:
    def test_inv_truth(self):
        assert evaluate(INV, (0,)).output == 1
        assert evaluate(INV, (1,)).output == 0

    def test_conducting_modes_reported(self):
        result = evaluate(INV, (0,))
        # Pull-up p-configured device conducts.
        assert result.conducting.get("t1") == "p"
        result = evaluate(INV, (1,))
        assert result.conducting.get("t3") == "n"

    def test_xor_redundant_pair_modes(self):
        """At every conducting vector one member is 'n' and one is 'p'."""
        for vector in itertools.product((0, 1), repeat=2):
            result = evaluate(XOR2, vector)
            modes = sorted(result.conducting.values())
            assert modes == ["n", "p"]

    def test_stuck_open_floats_output(self):
        # Break the INV pull-up and drive the input low: output floats.
        result = evaluate(
            INV, (0,), {"t1": DeviceState.STUCK_OPEN}
        )
        assert result.output == Z

    def test_charge_retention(self):
        result = evaluate(
            INV, (0,), {"t1": DeviceState.STUCK_OPEN}, previous_output=ONE
        )
        assert result.output == ONE

    def test_stuck_on_creates_conflict(self):
        result = evaluate(INV, (1,), {"t1": DeviceState.STUCK_ON})
        assert result.conflict

    def test_floating_pg_gives_unknown(self):
        result = evaluate(INV, (0,), {"t1": DeviceState.FLOATING_PG})
        assert result.output in (X, ZERO, ONE)

    def test_unknown_device_rejected(self):
        with pytest.raises(KeyError):
            evaluate(INV, (0,), {"t9": DeviceState.STUCK_OPEN})

    def test_strength_resolution_pull_up_loses(self):
        """A wrong-mode (weak) pull-up cannot corrupt a strongly held 0
        — the Table III pull-up asymmetry."""
        result = evaluate(XOR2, (0, 0), {"t1": DeviceState.STUCK_AT_N})
        assert result.conflict  # IDDQ path exists
        assert result.output == ZERO  # but the output holds


class TestTruthTables:
    def test_switch_level_matches_function_nand(self):
        table = truth_table_switch_level(NAND2)
        for vector, value in table.items():
            assert value == NAND2.function(vector)

    def test_switch_level_matches_function_maj(self):
        table = truth_table_switch_level(MAJ3)
        for vector, value in table.items():
            assert value == MAJ3.function(vector)


class TestFaultImage:
    def test_table_iii_stuck_at_n(self):
        """The paper's Table III stuck-at-n rows, exactly: the output
        detects of t3/t4 are contention ties, not wrong values."""
        expected = {
            "t1": ((0, 0), False),
            "t2": ((1, 1), False),
            "t3": ((0, 1), True),
            "t4": ((1, 0), True),
        }
        for transistor, (vector, out_detect) in expected.items():
            image = fault_image(XOR2, transistor, DeviceState.STUCK_AT_N)
            assert image.iddq == (vector,)
            assert image.wrong == ()
            assert image.tied == ((vector,) if out_detect else ())
            assert image.floating == ()

    def test_channel_break_invisible(self):
        for transistor in ("t1", "t2", "t3", "t4"):
            image = fault_image(XOR2, transistor, DeviceState.STUCK_OPEN)
            assert image.faulty == image.good
            assert not any(image.iddq_flags)
            assert not (image.wrong or image.tied or image.floating)

    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_rows_and_views_follow_evaluate(self, cell_name):
        """Every row is a faulty against a fault-free evaluation, each
        view lists exactly the vectors its rule selects, and the two
        tables read the same rows."""
        cell = ALL_CELLS[cell_name]
        vectors = tuple(itertools.product((0, 1), repeat=cell.n_inputs))
        for t in cell.transistors:
            for state in DeviceState:
                image = fault_image(cell, t.name, state)
                assert image is fault_image(cell, t.name, state)
                assert image.vectors == vectors
                views = {"wrong": [], "tied": [], "iddq": [], "floating": []}
                for vector in vectors:
                    good = evaluate(cell, vector)
                    bad = evaluate(cell, vector, {t.name: state})
                    flag = bad.conflict and not good.conflict
                    assert image.at(vector) == (good.output, bad.output, flag)
                    assert image.table[vector] == bad.output
                    assert image.held_table[vector] == (
                        good.output if bad.output == Z else bad.output
                    )
                    definite = good.output in (ZERO, ONE)
                    if definite and bad.output in (ZERO, ONE) and (
                        bad.output != good.output
                    ):
                        views["wrong"].append(vector)
                    if definite and bad.output == X:
                        views["tied"].append(vector)
                    if flag:
                        views["iddq"].append(vector)
                    if bad.output == Z:
                        views["floating"].append(vector)
                for view, expected in views.items():
                    assert getattr(image, view) == tuple(expected), view

    def test_nand_break_not_masked(self):
        """SP gates: a break floats the output (sequential behaviour) but
        never silently masks — the two-pattern test can see it."""
        from repro.logic.switch_level import evaluate as sw_eval

        floats = 0
        for vector in itertools.product((0, 1), repeat=2):
            result = sw_eval(
                NAND2, vector, {"t1": DeviceState.STUCK_OPEN}
            )
            if result.output == Z:
                floats += 1
        assert floats > 0


@given(
    st.sampled_from(sorted(ALL_CELLS)),
    st.integers(min_value=0, max_value=7),
    st.sampled_from(list(DeviceState)),
)
@settings(max_examples=60, deadline=None)
def test_single_fault_never_crashes(cell_name, vector_bits, state):
    """Property: the engine handles any single-device fault state on any
    cell/vector without exceptions, and outputs stay in the value set."""
    cell = ALL_CELLS[cell_name]
    vector = tuple(
        (vector_bits >> k) & 1 for k in range(cell.n_inputs)
    )
    target = cell.transistors[0].name
    result = evaluate(cell, vector, {target: state})
    assert result.output in (ZERO, ONE, X, Z)
