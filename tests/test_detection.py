"""Tests for SPICE-domain detectability measurement (core.detection)."""

import math

import pytest

from repro.core import (
    ChannelBreakFault,
    DriveDriftFault,
    StuckAtNType,
    characterise_fault,
)
from repro.core.detection import (
    DELAY_DETECT_RATIO,
    IDDQ_DETECT_RATIO,
    _static_observations,
    fault_free_reference,
    screen_cell_faults,
)
from repro.core.fault_models import GOSFault
from repro.device import TIGSiNWFET, clear_model_caches
from repro.faults import circuit_faults_for_cell
from repro.gates import (
    ALL_CELLS,
    INV,
    XOR2,
    build_cell_circuit,
    edge_pair_delays,
    get_cell,
    transition_delay,
)
from repro.gates.characterize import _flipping_transitions


@pytest.fixture(scope="module")
def polarity_report():
    return characterise_fault(
        XOR2, StuckAtNType("t1"), measure_delay=False
    )


class TestPolarityFaultDetection:
    def test_iddq_detectable(self, polarity_report):
        assert polarity_report.iddq_detectable
        assert polarity_report.worst_iddq_ratio > 1e4

    def test_detecting_vector_is_table_iii(self, polarity_report):
        assert (0, 0) in polarity_report.iddq_vectors

    def test_overall_detected(self, polarity_report):
        assert polarity_report.detected

    def test_description_carried(self, polarity_report):
        assert "t1" in polarity_report.fault_description


class TestChannelBreakDetection:
    def test_sp_break_output_detectable(self):
        report = characterise_fault(
            INV, ChannelBreakFault("t1"), measure_delay=False
        )
        # The INV pull-up break floats the output at A=0; the DC level
        # no longer reads as a valid 1.
        assert report.output_detectable

    def test_dp_break_not_output_detectable(self):
        report = characterise_fault(
            XOR2, ChannelBreakFault("t1"), measure_delay=False
        )
        assert not report.output_detectable  # masked (Section V-C)


class TestDelayDetection:
    def test_drive_drift_is_delay_fault(self):
        report = characterise_fault(
            INV,
            DriveDriftFault("t1", i_on_factor=0.3),
            measure_delay=True,
            delay_input="a",
        )
        assert report.delay_ratio > DELAY_DETECT_RATIO
        assert report.delay_detectable

    def test_fault_free_thresholds_sane(self):
        assert IDDQ_DETECT_RATIO >= 2
        assert DELAY_DETECT_RATIO > 1.0

    def test_nan_delay_when_not_measured(self):
        report = characterise_fault(
            XOR2, StuckAtNType("t2"), measure_delay=False
        )
        assert math.isnan(report.delay_ratio)


class TestObservations:
    def test_per_vector_observations_complete(self, polarity_report):
        assert len(polarity_report.observations) == 4
        vectors = {o.vector for o in polarity_report.observations}
        assert vectors == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_iddq_positive(self, polarity_report):
        assert all(o.iddq >= 0 for o in polarity_report.observations)


@pytest.fixture
def fresh_memo():
    fault_free_reference.cache_clear()
    yield fault_free_reference
    fault_free_reference.cache_clear()


class TestFaultFreeReferenceMemo:
    def test_hit_equals_fresh_compute(self, fresh_memo):
        first = fresh_memo(INV, 4)
        again = fresh_memo(INV, 4)
        assert again is first
        assert fresh_memo.cache_info().hits == 1
        fresh = _static_observations(build_cell_circuit(INV, fanout=4))
        assert first.observations == fresh

    def test_other_fanout_misses(self, fresh_memo):
        fo4 = fresh_memo(INV, 4)
        fo1 = fresh_memo(INV, 1)
        assert fo1 is not fo4
        assert fo1.fanout == 1
        assert fresh_memo.cache_info().misses == 2
        assert fo1.observations == _static_observations(
            build_cell_circuit(INV, fanout=1)
        )

    def test_later_transients_leave_cached_results_unchanged(
        self, fresh_memo
    ):
        reference = fresh_memo(INV, 4)
        observations = reference.observations
        delays = reference.edge_delays("a", {})
        # Re-drive and fault another bench of the same cell.
        other = build_cell_circuit(INV, fanout=4)
        GOSFault("t1", "cg").apply(other)
        transition_delay(other, "a", {}, rising=False)
        characterise_fault(INV, GOSFault("t1", "pgs"), delay_input="a")
        assert fresh_memo(INV, 4) is reference
        assert reference.observations == observations
        assert reference.edge_delays("a", {}) == delays
        fresh = build_cell_circuit(INV, fanout=4)
        assert delays == edge_pair_delays(fresh, "a", {})

    def test_patched_physics_needs_cache_clear(
        self, fresh_memo, monkeypatch
    ):
        before = fresh_memo(INV, 4).observations
        original = TIGSiNWFET.terminal_current_matrix
        monkeypatch.setattr(
            TIGSiNWFET, "terminal_current_matrix",
            lambda self, volts: 2.0 * original(self, volts),
        )
        # The memo does not see the patch ...
        assert fresh_memo(INV, 4).observations == before
        # ... until it is cleared alongside the device memo.
        fresh_memo.cache_clear()
        clear_model_caches()
        patched = fresh_memo(INV, 4).observations
        assert [o.iddq for o in patched] != [o.iddq for o in before]
        monkeypatch.undo()
        fresh_memo.cache_clear()
        assert fresh_memo(INV, 4).observations == before


class TestNonConvergence:
    """Bias points that do not converge are reported, not raised
    (FO4 screen: NAND2 faults 10 and 13, NOR2 fault 6)."""

    @pytest.mark.parametrize(
        "cell_name, index, description, unresolved",
        [
            ("NAND2", 10, "GOS at CG of t3", ((0, 0),)),
            ("NAND2", 13, "GOS at CG of t4", ((1, 0),)),
            ("NOR2", 6, "GOS at PGS of t1", ((1, 0), (1, 1))),
        ],
    )
    def test_unresolved_vectors_reported(
        self, cell_name, index, description, unresolved
    ):
        cell = get_cell(cell_name)
        fault = circuit_faults_for_cell(cell)[index]
        (report,) = screen_cell_faults(cell, [fault])
        assert report.fault_description == description
        assert report.unresolved_vectors == unresolved
        flagged = tuple(
            o.vector for o in report.observations if not o.converged
        )
        assert flagged == unresolved
        verdicts = set(report.output_vectors) | set(report.iddq_vectors)
        assert not verdicts & set(unresolved)

    def test_converged_screen_has_no_unresolved(self, polarity_report):
        assert polarity_report.unresolved_vectors == ()
        assert all(o.converged for o in polarity_report.observations)


class TestBatchedDelayEdges:
    """One 2-point transient sweep gives exactly the delays of the
    scalar ``transition_delay`` pair."""

    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_fault_free_cell(self, cell_name):
        cell = ALL_CELLS[cell_name]
        input_name, others, _rising = _flipping_transitions(cell)[0]
        batched = edge_pair_delays(
            build_cell_circuit(cell, fanout=4), input_name, others
        )
        bench = build_cell_circuit(cell, fanout=4)
        scalar = tuple(
            transition_delay(bench, input_name, others, rising=r)
            for r in (True, False)
        )
        assert all(math.isfinite(d) for d in scalar)
        assert batched == scalar

    @pytest.mark.parametrize(
        "fault", [GOSFault("t1", "cg"), ChannelBreakFault("t1", 0.6)],
        ids=["gos_cg", "channel_break"],
    )
    def test_faulty_delay_ratio(self, fault, fresh_memo):
        report = characterise_fault(INV, fault, delay_input="a")
        good = build_cell_circuit(INV, fanout=4)
        bad = build_cell_circuit(INV, fanout=4)
        fault.apply(bad)
        ratio = float("nan")
        for rising in (True, False):
            edge = transition_delay(bad, "a", {}, rising=rising)
            edge_ratio = edge / transition_delay(good, "a", {}, rising=rising)
            if not (edge_ratio <= ratio):
                ratio = edge_ratio
        assert report.delay_ratio == ratio
        assert ratio > 1.0
