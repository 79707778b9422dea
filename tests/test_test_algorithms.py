"""Tests for the paper's test algorithms (Section V)."""

import itertools

import pytest

from repro.core import (
    channel_break_procedure,
    polarity_fault_table,
    run_channel_break_procedure,
    simulate_two_pattern,
    two_pattern_sof_tests,
)
from repro.gates import (
    ALL_CELLS,
    DP_CELLS,
    INV,
    NAND2,
    NAND3,
    NOR2,
    SP_CELLS,
    XOR2,
)
from repro.logic.switch_level import DeviceState, fault_image
from repro.logic.values import Z


class TestTwoPatternSOF:
    @pytest.mark.parametrize("cell_name", sorted(SP_CELLS))
    def test_sp_cells_fully_covered(self, cell_name):
        """Every SP-cell transistor gets a verified two-pattern test."""
        cell = SP_CELLS[cell_name]
        tests = two_pattern_sof_tests(cell)
        covered = {t for test in tests for t in test.covered}
        assert covered == {t.name for t in cell.transistors}
        for test in tests:
            for target in test.covered:
                _, final = simulate_two_pattern(cell, test, target)
                assert final != cell.function(test.test_vector)

    @pytest.mark.parametrize("cell_name", sorted(DP_CELLS))
    def test_dp_cells_have_no_usable_tests(self, cell_name):
        """DP redundancy masks all single breaks: no SOF tests exist."""
        assert two_pattern_sof_tests(DP_CELLS[cell_name]) == []

    def test_nand2_test_count_matches_paper(self):
        # The paper lists three vectors pairs; our cover is also three.
        assert len(two_pattern_sof_tests(NAND2)) == 3

    def test_papers_nand2_vectors_also_work(self):
        """The paper's own set {11->01, 11->10, 00->11} detects all four
        breaks in our implementation."""
        from repro.core.test_algorithms import TwoPatternTest

        paper_set = [
            TwoPatternTest((1, 1), (0, 1), ("t1",)),
            TwoPatternTest((1, 1), (1, 0), ("t2",)),
            TwoPatternTest((0, 0), (1, 1), ("t3", "t4")),
        ]
        for test in paper_set:
            for target in test.covered:
                _, final = simulate_two_pattern(NAND2, test, target)
                assert final != NAND2.function(test.test_vector)

    def test_fault_free_passes_two_pattern(self):
        for test in two_pattern_sof_tests(NAND2):
            _, final = simulate_two_pattern(NAND2, test, None)
            assert final == NAND2.function(test.test_vector)

    def test_nand3_covered(self):
        tests = two_pattern_sof_tests(NAND3)
        covered = {t for test in tests for t in test.covered}
        assert len(covered) == 6


class TestPolarityFaultTable:
    def test_xor2_rows_complete(self):
        rows = polarity_fault_table(XOR2)
        assert len(rows) == 8  # 4 transistors x {n, p}
        assert all(r.detecting_vector is not None for r in rows)
        assert all(r.leakage_detect for r in rows)

    def test_stuck_at_n_matches_paper(self):
        rows = {
            (r.fault_type, r.transistor): r
            for r in polarity_fault_table(XOR2)
        }
        assert rows[("stuck-at n-type", "t1")].detecting_vector == (0, 0)
        assert rows[("stuck-at n-type", "t2")].detecting_vector == (1, 1)
        assert rows[("stuck-at n-type", "t3")].detecting_vector == (0, 1)
        assert rows[("stuck-at n-type", "t4")].detecting_vector == (1, 0)
        # Pull-ups: leakage only; pull-downs: output too.
        assert not rows[("stuck-at n-type", "t1")].output_detect
        assert not rows[("stuck-at n-type", "t2")].output_detect
        assert rows[("stuck-at n-type", "t3")].output_detect
        assert rows[("stuck-at n-type", "t4")].output_detect

    def test_stuck_at_p_pair_symmetry(self):
        """s-a-p detecting vectors are the pair-swapped s-a-n ones."""
        rows = {
            (r.fault_type, r.transistor): r.detecting_vector
            for r in polarity_fault_table(XOR2)
        }
        assert rows[("stuck-at p-type", "t1")] == rows[
            ("stuck-at n-type", "t2")
        ]
        assert rows[("stuck-at p-type", "t3")] == rows[
            ("stuck-at n-type", "t4")
        ]


class TestChannelBreakProcedure:
    @pytest.mark.parametrize("cell_name", sorted(DP_CELLS))
    def test_procedure_exists_for_dp_cells(self, cell_name):
        cell = DP_CELLS[cell_name]
        for t in cell.transistors:
            procedure = channel_break_procedure(cell, t.name)
            assert procedure.steps, f"{cell_name}.{t.name}"

    def test_rejects_sp_cells(self):
        with pytest.raises(ValueError):
            channel_break_procedure(NAND2, "t1")

    @pytest.mark.parametrize("cell_name", ["XOR2", "XNOR2", "MAJ3"])
    def test_verdicts_correct_both_ways(self, cell_name):
        """Property: the procedure detects every actual break and never
        raises a false alarm on an intact device."""
        cell = ALL_CELLS[cell_name]
        for t in cell.transistors:
            assert run_channel_break_procedure(cell, t.name, broken=True)
            assert not run_channel_break_procedure(
                cell, t.name, broken=False
            )

    def test_procedure_steps_reference_table_iii(self):
        procedure = channel_break_procedure(XOR2, "t1")
        vectors = {step.vector for step in procedure.steps}
        # t1's s-a-n detecting vector 00 must be exercised.
        assert (0, 0) in vectors


class TestEssentialVectors:
    """A transistor is essential where breaking it floats the output."""

    @staticmethod
    def essential(cell, transistor):
        return fault_image(cell, transistor, DeviceState.STUCK_OPEN).floating

    def test_inv_pull_up_essential_at_zero(self):
        assert self.essential(INV, "t1") == ((0,),)
        assert self.essential(INV, "t3") == ((1,),)

    def test_nor2_series_pull_up(self):
        # Both series pull-up transistors are essential only at 00.
        assert self.essential(NOR2, "t1") == ((0, 0),)
        assert self.essential(NOR2, "t2") == ((0, 0),)

    def test_xor_has_none(self):
        for t in XOR2.transistors:
            assert self.essential(XOR2, t.name) == ()
