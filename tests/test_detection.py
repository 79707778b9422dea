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
from repro.device import clear_model_caches
from repro.device.tig_model import ModelRows
from repro.faults import circuit_faults_for_cell
from repro.gates import (
    ALL_CELLS,
    INV,
    XOR2,
    build_cell_circuit,
    edge_pair_delays,
    get_cell,
    transition_delay,
    worst_case_delay,
)
from repro.gates.characterize import (
    _DT,
    _T_EDGE,
    _T_STOP,
    _delay_probes,
    _edge_overrides,
    _flipping_transitions,
)
from repro.spice import propagation_delay, run_transient_sweep


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
        original = ModelRows.terminal_currents
        monkeypatch.setattr(
            ModelRows, "terminal_currents",
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



def _edge_sweep(bench, transitions, stop):
    """One lockstep sweep of ``transitions``, early-stopped or not."""
    return run_transient_sweep(
        bench.circuit, _edge_overrides(bench, transitions, _T_EDGE),
        _T_STOP, _DT,
        stop_at_delays=_delay_probes(bench, transitions) if stop else None,
    )


def _full_window_delays(bench, transitions):
    """Delays of ``transitions`` measured on a full-window sweep."""
    results = _edge_sweep(bench, transitions, stop=False)
    assert all(r.times[-1] == pytest.approx(_T_STOP) for r in results)
    return tuple(
        propagation_delay(r, name, "out", bench.vdd)
        for (name, _others, _rising), r in zip(transitions, results)
    )


_INV_FAULTS = circuit_faults_for_cell(INV)
_INV_EDGES = [("a", {}, True), ("a", {}, False)]


class TestEarlyStoppedDelaySweeps:
    """Delay sweeps stop once every delay is fixed; the delays equal
    those of the full window, ``inf`` included."""

    @pytest.mark.parametrize("index", range(len(_INV_FAULTS)))
    def test_inv_fault_delays_equal_full_window(self, index):
        bench = build_cell_circuit(INV, fanout=4)
        _INV_FAULTS[index].apply(bench)
        early = edge_pair_delays(bench, "a", {})
        assert early == _full_window_delays(bench, _INV_EDGES)
        if index in (0, 1, 11):  # the output never responds
            assert early == (math.inf, math.inf)

    @pytest.mark.parametrize(
        "cell_name, fault",
        [
            ("XOR2", StuckAtNType("t1")),
            ("XOR2", StuckAtNType("t2")),
            ("XOR2", ChannelBreakFault("t1")),
            ("NAND2", circuit_faults_for_cell(get_cell("NAND2"))[10]),
            ("NAND2", circuit_faults_for_cell(get_cell("NAND2"))[13]),
        ],
        ids=["xor2_san_t1", "xor2_san_t2", "xor2_break_t1",
             "nand2_gos_cg_t3", "nand2_gos_cg_t4"],
    )
    def test_cell_fault_delays_equal_full_window(self, cell_name, fault):
        cell = get_cell(cell_name)
        input_name, others, _rising = _flipping_transitions(cell)[0]
        bench = build_cell_circuit(cell, fanout=4)
        fault.apply(bench)
        edges = [(input_name, others, True), (input_name, others, False)]
        early = edge_pair_delays(bench, input_name, others)
        assert early == _full_window_delays(bench, edges)

    def test_worst_case_delay_equals_full_window(self):
        """Every flipping edge of NAND2, on two input nodes, in one
        early-stopped sweep."""
        bench = build_cell_circuit(get_cell("NAND2"), fanout=4)
        transitions = _flipping_transitions(bench.cell)
        assert {name for name, _o, _r in transitions} == {"a", "b"}
        full = _full_window_delays(bench, transitions)
        assert worst_case_delay(bench) == max(full)

    def test_sweep_stops_once_delays_are_fixed(self):
        bench = build_cell_circuit(INV, fanout=4)
        for result in _edge_sweep(bench, _INV_EDGES, stop=True):
            assert result.times[-1] < _T_STOP / 2
            for wave in result.voltages.values():
                assert len(wave) == len(result.times)

    def test_sweep_without_a_crossing_ends_at_t_stop(self):
        """A full channel break of the INV pull-up: the output never
        crosses after the edge, so the sweep integrates to t_stop."""
        bench = build_cell_circuit(INV, fanout=4)
        _INV_FAULTS[0].apply(bench)
        n_steps = int(round(_T_STOP / _DT))
        for result in _edge_sweep(bench, _INV_EDGES, stop=True):
            assert len(result.times) == n_steps + 1
            assert result.times[-1] == pytest.approx(_T_STOP)

    def test_one_probe_per_point(self):
        bench = build_cell_circuit(INV, fanout=4)
        with pytest.raises(ValueError, match="per sweep point"):
            run_transient_sweep(
                bench.circuit, [{"vin_a": 0.0}], 1e-10, 1e-11,
                stop_at_delays=[],
            )
