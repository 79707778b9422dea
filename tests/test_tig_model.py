"""Tests for the TIG-SiNWFET compact model and its calibration."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import tig_segments

from repro.device import (
    DEFAULT_PARAMS,
    ChannelBreak,
    CurveMetrics,
    DeviceDefect,
    GateOxideShort,
    ParameterDrift,
    TIGSiNWFET,
    compare_to_fault_free,
    sweep_id_vcg,
)

VDD = DEFAULT_PARAMS.vdd


@pytest.fixture(scope="module")
def device():
    return TIGSiNWFET()


class TestConductionCondition:
    """The paper's core device property: conduction iff CG == PGS == PGD."""

    def test_logic_predicate(self, device):
        for cg, pgs, pgd in itertools.product((0, 1), repeat=3):
            assert device.conducts(cg, pgs, pgd) == (cg == pgs == pgd)

    def test_predicate_rejects_non_binary(self, device):
        with pytest.raises(ValueError):
            device.conducts(2, 0, 0)

    def test_on_off_separation_electrical(self, device):
        """Every 'on' corner carries >100x the current of any 'off' corner."""
        on_currents, off_currents = [], []
        for cg, pgs, pgd in itertools.product((0, 1), repeat=3):
            i = abs(
                device.drain_current(cg * VDD, pgs * VDD, pgd * VDD, VDD, 0.0)
            )
            (on_currents if cg == pgs == pgd else off_currents).append(i)
        assert min(on_currents) > 100 * max(off_currents)

    def test_polarity_labels(self, device):
        assert device.polarity(1, 1) == "n"
        assert device.polarity(0, 0) == "p"
        assert device.polarity(0, 1) == "off"
        assert device.polarity(1, 0) == "off"


class TestCalibration:
    """Anchors from the paper (Fig. 3, Table II context)."""

    def test_on_current(self, device):
        i_on = device.drain_current(VDD, VDD, VDD, VDD, 0.0)
        assert i_on == pytest.approx(DEFAULT_PARAMS.i_on, rel=1e-3)

    def test_p_mode_on_current_scaled_by_branch_factor(self, device):
        """Hole injection is weaker: p-mode Ion = p_branch_factor * Ion."""
        i_p = device.drain_current(0.0, 0.0, 0.0, VDD, 0.0)
        expected = DEFAULT_PARAMS.i_on * DEFAULT_PARAMS.p_branch_factor
        assert i_p == pytest.approx(expected, rel=1e-2)

    def test_transfer_metrics(self, device):
        m = CurveMetrics.from_curve(sweep_id_vcg(device, "n"))
        assert 0.2 < m.vth < 0.45
        assert 0.055 < m.ss < 0.085
        assert m.on_off > 1e4

    def test_n_and_p_transfer_curves_proportional(self, device):
        """The p curve mirrors the n curve scaled by the branch factor
        (floor-dominated points excluded)."""
        n = sweep_id_vcg(device, "n")
        p = sweep_id_vcg(device, "p")
        factor = DEFAULT_PARAMS.p_branch_factor
        # Compare in the drive region; near the floor the ambipolar
        # residue of the opposite branch breaks exact proportionality.
        mask = n.i_d > 1e-3 * DEFAULT_PARAMS.i_on
        np.testing.assert_allclose(
            p.i_d[mask], factor * n.i_d[mask], rtol=0.05
        )


class TestBidirectionality:
    """Pass-transistor use requires source/drain symmetry."""

    def test_antisymmetric_current(self, device):
        fwd = device.drain_current(VDD, VDD, VDD, VDD, 0.0)
        # Swap D and S (and the polarity gates swap roles physically).
        rev = device.drain_current(VDD, VDD, VDD, 0.0, VDD)
        assert rev == pytest.approx(-fwd, rel=1e-9)

    def test_zero_bias_zero_current(self, device):
        i = device.drain_current(VDD, VDD, VDD, 0.6, 0.6)
        assert abs(i) < 1e-15

    @given(
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_reversal_antisymmetry_property(self, vcg, vpgs, vpgd, vd, vs):
        """I(d,s) == -I(s,d) with polarity gates swapped alongside."""
        dev = TIGSiNWFET()
        fwd = dev.drain_current(vcg, vpgs, vpgd, vd, vs)
        rev = dev.drain_current(vcg, vpgd, vpgs, vs, vd)
        assert float(fwd) == pytest.approx(-float(rev), rel=1e-6, abs=1e-18)


class TestMonotonicity:
    def test_monotonic_in_vcg_n_mode(self, device):
        # The ambipolar hole branch fades as VCG rises, so the top of the
        # curve may dip by a few hundred femtoamps; anything beyond that
        # would be a real monotonicity bug.
        curve = sweep_id_vcg(device, "n")
        assert np.all(np.diff(curve.i_d) > -1e-12)

    def test_monotonic_in_vds(self, device):
        vds = np.linspace(0.0, VDD, 61)
        i = np.asarray(device.drain_current(VDD, VDD, VDD, vds, 0.0))
        assert np.all(np.diff(i) > -1e-15)

    def test_monotonic_in_pg(self, device):
        vpg = np.linspace(0.0, VDD, 61)
        i = np.asarray(device.drain_current(VDD, vpg, vpg, VDD, 0.0))
        assert np.all(np.diff(i) > -1e-15)


class TestTerminalCurrents:
    def test_kcl_fault_free(self, device):
        currents = device.terminal_currents(VDD, VDD, VDD, VDD, 0.0)
        assert sum(currents.values()) == pytest.approx(0.0, abs=1e-18)
        assert currents["cg"] == 0.0

    def test_kcl_with_gos(self):
        dev = TIGSiNWFET(defect=GateOxideShort("cg"))
        currents = dev.terminal_currents(VDD, VDD, VDD, VDD, 0.0)
        assert sum(currents.values()) == pytest.approx(0.0, abs=1e-15)
        assert currents["cg"] != 0.0

    def test_matrix_matches_dict(self, device):
        volts = np.array([VDD, VDD, VDD, VDD, 0.0])
        matrix = device.terminal_current_matrix(volts)
        d = device.terminal_currents(VDD, VDD, VDD, VDD, 0.0)
        expected = [d["d"], d["cg"], d["pgs"], d["pgd"], d["s"]]
        np.testing.assert_allclose(matrix, expected, rtol=1e-12)

    def test_matrix_matches_dict_with_gos(self):
        dev = TIGSiNWFET(defect=GateOxideShort("pgs"))
        volts = np.array([0.7, 0.3, 1.1, 0.2, 0.1])
        matrix = dev.terminal_current_matrix(volts)
        d = dev.terminal_currents(0.3, 1.1, 0.2, 0.7, 0.1)
        expected = [d["d"], d["cg"], d["pgs"], d["pgd"], d["s"]]
        np.testing.assert_allclose(matrix, expected, rtol=1e-10, atol=1e-20)

    def test_matrix_shape_validation(self, device):
        with pytest.raises(ValueError):
            device.terminal_current_matrix(np.zeros(4))


class TestGOSCalibration:
    """Fig. 3 anchors: ID(SAT) ratios and threshold shifts."""

    def test_gos_pgs_strongest_reduction(self):
        r = compare_to_fault_free(TIGSiNWFET(defect=GateOxideShort("pgs")))
        assert 0.3 < r["id_sat_ratio"] < 0.55
        assert r["delta_vth"] == pytest.approx(0.17, abs=0.03)

    def test_gos_cg_milder_reduction(self):
        r_cg = compare_to_fault_free(TIGSiNWFET(defect=GateOxideShort("cg")))
        r_pgs = compare_to_fault_free(
            TIGSiNWFET(defect=GateOxideShort("pgs"))
        )
        assert r_cg["id_sat_ratio"] > r_pgs["id_sat_ratio"]
        assert 0.05 < r_cg["delta_vth"] < 0.2

    def test_gos_pgd_slight_increase_no_shift(self):
        r = compare_to_fault_free(TIGSiNWFET(defect=GateOxideShort("pgd")))
        assert 1.0 < r["id_sat_ratio"] < 1.2
        assert abs(r["delta_vth"]) < 0.03

    def test_gos_cg_negative_current_at_low_vcg(self):
        """Fig. 3b: the shunt makes ID negative when the gate is low."""
        r = compare_to_fault_free(TIGSiNWFET(defect=GateOxideShort("cg")))
        assert r["i_min"] < 0.0

    def test_severity_scales_effect(self):
        mild = compare_to_fault_free(
            TIGSiNWFET(defect=GateOxideShort("pgs", severity=0.3))
        )
        full = compare_to_fault_free(
            TIGSiNWFET(defect=GateOxideShort("pgs", severity=1.0))
        )
        assert mild["id_sat_ratio"] > full["id_sat_ratio"]
        assert mild["delta_vth"] < full["delta_vth"]

    def test_rejects_bad_location(self):
        with pytest.raises(ValueError):
            GateOxideShort("gate")

    def test_rejects_bad_severity(self):
        with pytest.raises(ValueError):
            GateOxideShort("cg", severity=0.0)


class TestChannelBreak:
    def test_full_break_kills_current(self):
        dev = TIGSiNWFET(defect=ChannelBreak())
        i = dev.drain_current(VDD, VDD, VDD, VDD, 0.0)
        assert abs(i) < 1e-11

    def test_partial_break_limits_current(self):
        dev = TIGSiNWFET(defect=ChannelBreak(0.5))
        i = dev.drain_current(VDD, VDD, VDD, VDD, 0.0)
        assert i == pytest.approx(0.5 * DEFAULT_PARAMS.i_on, rel=0.01)

    def test_is_full_break_flag(self):
        assert ChannelBreak().is_full_break
        assert not ChannelBreak(0.99).is_full_break

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ChannelBreak(1.5)


class TestParameterDrift:
    def test_ion_factor(self):
        dev = TIGSiNWFET(defect=ParameterDrift(i_on_factor=0.7))
        i = dev.drain_current(VDD, VDD, VDD, VDD, 0.0)
        assert i == pytest.approx(0.7 * DEFAULT_PARAMS.i_on, rel=0.01)

    def test_vth_drift_shifts_curve(self):
        r = compare_to_fault_free(
            TIGSiNWFET(defect=ParameterDrift(dvth_cg=0.1))
        )
        assert r["delta_vth"] == pytest.approx(0.1, abs=0.02)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            ParameterDrift(i_on_factor=0.0)


@dataclasses.dataclass(frozen=True)
class _HookedDefect(DeviceDefect):
    """Overrides every query and hook of :class:`DeviceDefect`, with
    values that differ per gate and per carrier branch."""

    def vth_shift(self, gate: str, branch: str) -> float:
        shift = {"pgs": 0.03, "cg": -0.05, "pgd": 0.11}[gate]
        return shift if branch == "n" else -0.5 * shift

    def segment_factor(self, gate: str, branch: str) -> float:
        if branch == "n":
            return 0.9
        return {"pgs": 0.8, "cg": 1.3, "pgd": 0.6}[gate]

    def scale_channel_current(self, model, current):
        return current * 0.75 + 1e-12

    def extra_drain_current(self, model, v_cg, v_pgs, v_pgd, v_d, v_s):
        return 1e-9 * (v_cg - v_pgd) + 2e-10 * v_d

    def shunt_spec(self):
        return ("pgd", 2e7, 0.3)


class _CountingDefect(GateOxideShort):
    """A GOS that counts how often the model asks for its adjustments."""

    calls = 0

    def vth_shift(self, gate, branch):
        type(self).calls += 1
        return super().vth_shift(gate, branch)

    def segment_factor(self, gate, branch):
        type(self).calls += 1
        return super().segment_factor(gate, branch)


KERNEL_DEFECTS = [
    None,
    GateOxideShort("pgs"),
    GateOxideShort("cg", severity=0.5),
    GateOxideShort("pgd"),
    ChannelBreak(),
    ChannelBreak(0.4),
    ParameterDrift(dvth_cg=0.1, dvth_pg=-0.05, i_on_factor=0.7),
    _HookedDefect(),
]


@pytest.mark.parametrize("defect", KERNEL_DEFECTS, ids=repr)
class TestFusedKernelMatchesSegmentOracle:
    """The fused twelve-segment kernel is bit-identical to the
    per-segment evaluation it replaced (``tests/oracles``)."""

    @pytest.mark.parametrize(
        "shape", [(7, 6, 5), (3, 7, 6, 5), (1, 6, 5), (5,), (4096, 5)]
    )
    @pytest.mark.parametrize("span", [(-0.2, 1.4), (-6.0, 6.0)])
    def test_terminal_current_matrix(self, defect, shape, span):
        model = TIGSiNWFET(defect=defect)
        volts = np.random.default_rng(7).uniform(*span, size=shape)
        fused = model.terminal_current_matrix(volts)
        reference = tig_segments.terminal_current_matrix(model, volts)
        assert fused.shape == volts.shape
        assert np.array_equal(fused, reference)

    def test_scalar_drain_current(self, defect):
        model = TIGSiNWFET(defect=defect)
        rng = np.random.default_rng(11)
        for volts in rng.uniform(-0.3, 1.5, size=(50, 5)):
            fused = model.drain_current(*volts)
            assert type(fused) is float
            assert fused == tig_segments.drain_current(model, *volts)

    def test_broadcast_drain_current(self, defect):
        model = TIGSiNWFET(defect=defect)
        vcg = np.linspace(-0.2, 1.4, 33)
        vd = np.linspace(0.0, 1.2, 5)[:, None]
        fused = model.drain_current(vcg, VDD, 0.4, vd, 0.0)
        reference = tig_segments.drain_current(model, vcg, VDD, 0.4, vd, 0.0)
        assert fused.shape == (5, 33)
        assert np.array_equal(fused, reference)


def test_defect_adjustments_read_once_at_construction():
    _CountingDefect.calls = 0
    model = TIGSiNWFET(defect=_CountingDefect("cg"))
    at_init = _CountingDefect.calls
    assert at_init == 24  # a shift and a factor per segment
    model.terminal_current_matrix(np.full((4, 6, 5), 0.6))
    model.drain_current(VDD, VDD, VDD, VDD, 0.0)
    assert _CountingDefect.calls == at_init
