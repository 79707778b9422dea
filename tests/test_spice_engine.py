"""Tests for the MNA circuit simulator (DC + transient)."""

import dataclasses

import numpy as np
import pytest

from oracles import spice_scalar as oracle
from repro.device import (
    DEFAULT_PARAMS,
    ChannelBreak,
    DeviceDefect,
    GateOxideShort,
    ParameterDrift,
    TIGSiNWFET,
)
from repro.device.tig_model import ModelRows
from repro.gates import ALL_CELLS
from repro.spice import (
    Circuit,
    DC,
    MNASystem,
    Step,
    propagation_delay,
    run_transient,
    solve_dc,
    solve_dc_sweep,
    threshold_crossings,
)

VDD = 1.2


class TestLinearDC:
    def test_voltage_divider(self):
        c = Circuit("div")
        c.add_vsource("v1", "in", "0", 2.0)
        c.add_resistor("r1", "in", "mid", 1e3)
        c.add_resistor("r2", "mid", "0", 3e3)
        op = solve_dc(c)
        assert op.voltage("mid") == pytest.approx(1.5)
        assert op.source_currents["v1"] == pytest.approx(-2.0 / 4e3)

    def test_current_source_into_resistor(self):
        c = Circuit("isrc")
        c.add_isource("i1", "0", "n", 1e-3)  # 1 mA into node n
        c.add_resistor("r1", "n", "0", 2e3)
        op = solve_dc(c)
        assert op.voltage("n") == pytest.approx(2.0)

    def test_two_sources_superposition(self):
        c = Circuit("two")
        c.add_vsource("va", "a", "0", 1.0)
        c.add_vsource("vb", "b", "0", 2.0)
        c.add_resistor("r1", "a", "x", 1e3)
        c.add_resistor("r2", "b", "x", 1e3)
        c.add_resistor("r3", "x", "0", 1e3)
        op = solve_dc(c)
        assert op.voltage("x") == pytest.approx(1.0)

    def test_ground_aliases(self):
        c = Circuit("gnd")
        c.add_vsource("v1", "n", "gnd", 1.0)
        c.add_resistor("r1", "n", "GND", 1e3)
        op = solve_dc(c)
        assert op.voltage("n") == pytest.approx(1.0)

    def test_kcl_residual_random_network(self):
        """Property: MNA solutions satisfy KCL at every node."""
        rng = np.random.default_rng(3)
        c = Circuit("rand")
        nodes = ["n%d" % k for k in range(6)] + ["0"]
        c.add_vsource("v1", "n0", "0", 1.0)
        for k in range(12):
            a, b = rng.choice(len(nodes), size=2, replace=False)
            c.add_resistor(f"r{k}", nodes[a], nodes[b],
                           float(rng.uniform(1e2, 1e5)))
        op = solve_dc(c)
        # Check KCL at a non-source node by summing resistor currents.
        for node in nodes[1:-1]:
            total = 0.0
            for r in c.resistors.values():
                va = op.voltage(r.a)
                vb = op.voltage(r.b)
                if r.a == node:
                    total -= (va - vb) / r.resistance
                if r.b == node:
                    total += (va - vb) / r.resistance
            assert total == pytest.approx(0.0, abs=1e-9)


class TestNonlinearDC:
    def test_inverter_both_states(self):
        model = TIGSiNWFET()
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", "0", VDD)
        c.add_vsource("vin", "a", "0", 0.0)
        c.add_device("tp", model, "out", "a", "0", "0", "vdd")
        c.add_device("tn", model, "out", "a", "vdd", "vdd", "0")
        op = solve_dc(c)
        assert op.voltage("out") == pytest.approx(VDD, abs=0.05)
        c.vsources["vin"].waveform = DC(VDD)
        op = solve_dc(c)
        assert op.voltage("out") == pytest.approx(0.0, abs=0.05)

    def test_inverter_iddq_small(self):
        model = TIGSiNWFET()
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", "0", VDD)
        c.add_vsource("vin", "a", "0", VDD)
        c.add_device("tp", model, "out", "a", "0", "0", "vdd")
        c.add_device("tn", model, "out", "a", "vdd", "vdd", "0")
        op = solve_dc(c)
        assert op.supply_current("vdd") < 5e-9

    def test_transfer_curve_sweep(self):
        model = TIGSiNWFET()
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", "0", VDD)
        c.add_vsource("vin", "a", "0", 0.0)
        c.add_device("tp", model, "out", "a", "0", "0", "vdd")
        c.add_device("tn", model, "out", "a", "vdd", "vdd", "0")
        sweep = solve_dc_sweep(
            c, [{"vin": v} for v in np.linspace(0, VDD, 13)]
        )
        outs = list(sweep.voltages("out"))
        # Monotonic falling VTC.
        assert all(b <= a + 1e-6 for a, b in zip(outs, outs[1:]))
        assert outs[0] > VDD - 0.1
        assert outs[-1] < 0.1


class TestTransient:
    def test_rc_charging(self):
        c = Circuit("rc")
        c.add_vsource("vin", "in", "0", Step(0.0, 1.0, 1e-9, 1e-11))
        c.add_resistor("r", "in", "out", 1e3)
        c.add_capacitor("cap", "out", "0", 1e-12)  # tau = 1 ns
        res = run_transient(c, 6e-9, 1e-11)
        v = res.voltage("out")
        t = res.times
        # After ~3 tau from the step, expect ~95 %.
        idx = np.searchsorted(t, 4e-9)
        assert v[idx] == pytest.approx(1 - np.exp(-3), abs=0.03)

    def test_rc_crossing_time(self):
        c = Circuit("rc")
        c.add_vsource("vin", "in", "0", Step(0.0, 1.0, 0.5e-9, 1e-11))
        c.add_resistor("r", "in", "out", 1e3)
        c.add_capacitor("cap", "out", "0", 1e-12)
        res = run_transient(c, 5e-9, 5e-12)
        crossings = threshold_crossings(res.times, res.voltage("out"), 0.5)
        assert len(crossings) == 1
        # 50 % of an RC step happens ln(2) tau after the step.
        assert crossings[0] - 0.5e-9 == pytest.approx(
            0.693e-9, rel=0.05
        )

    def test_inverter_switches(self):
        model = TIGSiNWFET()
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", "0", VDD)
        c.add_vsource("vin", "a", "0", Step(0.0, VDD, 0.2e-9, 2e-11))
        c.add_device("tp", model, "out", "a", "0", "0", "vdd")
        c.add_device("tn", model, "out", "a", "vdd", "vdd", "0")
        c.add_capacitor("cl", "out", "0", 1e-15)
        res = run_transient(c, 1.2e-9, 2e-12)
        assert res.voltage("out")[0] == pytest.approx(VDD, abs=0.05)
        assert res.voltage("out")[-1] == pytest.approx(0.0, abs=0.05)
        d = propagation_delay(res, "a", "out", VDD)
        assert 1e-12 < d < 500e-12

    def test_validates_arguments(self):
        c = Circuit("bad")
        c.add_vsource("v", "n", "0", 1.0)
        c.add_resistor("r", "n", "0", 1.0)
        with pytest.raises(ValueError):
            run_transient(c, 0.0, 1e-12)


class TestMeasure:
    def test_threshold_crossing_directions(self):
        t = np.linspace(0, 1, 11)
        v = np.concatenate([np.linspace(0, 1, 6), np.linspace(0.8, 0, 5)])
        rises = threshold_crossings(t, v, 0.5, "rise")
        falls = threshold_crossings(t, v, 0.5, "fall")
        assert len(rises) == 1
        assert len(falls) == 1
        assert rises[0] < falls[0]

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            threshold_crossings(np.zeros(2), np.zeros(2), 0.5, "sideways")


class TestNetlistValidation:
    def test_duplicate_names_rejected(self):
        c = Circuit("dup")
        c.add_resistor("x", "a", "0", 1.0)
        with pytest.raises(ValueError):
            c.add_capacitor("x", "a", "0", 1e-12)

    def test_negative_resistance_rejected(self):
        c = Circuit("bad")
        with pytest.raises(ValueError):
            c.add_resistor("r", "a", "0", -1.0)

    def test_disconnect_terminal(self):
        c = Circuit("open")
        c.add_device("t1", TIGSiNWFET(), "d", "g", "p", "p", "0")
        float_node = c.disconnect_terminal("t1", "pgs")
        assert c.devices["t1"].pgs == float_node
        assert c.devices["t1"].pgd == "p"

    def test_disconnect_unknown_device(self):
        c = Circuit("open")
        with pytest.raises(KeyError):
            c.disconnect_terminal("nope", "pgs")

    def test_bridge_adds_resistor(self):
        c = Circuit("bridge")
        c.add_bridge("x", "y", resistance=100.0)
        assert any(
            r.a == "x" and r.b == "y" for r in c.resistors.values()
        )

    def test_nodes_sorted_and_exclude_ground(self):
        c = Circuit("n")
        c.add_resistor("r1", "b", "0", 1.0)
        c.add_resistor("r2", "a", "gnd", 1.0)
        assert c.nodes() == ["a", "b"]


class TestConvergenceMachinery:
    def test_floating_node_regularised_by_gmin(self):
        # A node connected only by a capacitor has no DC path; the
        # permanent 1e-12 S gmin (SPICE convention) pins it to ground
        # instead of producing a singular system.
        c = Circuit("sing")
        c.add_vsource("v", "a", "0", 1.0)
        c.add_capacitor("c1", "b", "0", 1e-12)
        c.add_resistor("r1", "a", "0", 1e3)
        assert abs(solve_dc(c).voltage("b")) < 1e-6

    def test_contended_fault_circuit_converges(self):
        """Strong polarity-fault contention (the hardest DC case in the
        fault campaigns) must converge with default options."""
        from repro.core.fault_models import StuckAtNType
        from repro.gates import build_cell_circuit, get_cell
        from repro.spice import solve_dc

        bench = build_cell_circuit(get_cell("XOR3"), fanout=4)
        StuckAtNType("t1").apply(bench)
        bench.set_vector((0, 0, 0))
        op = solve_dc(bench.circuit)
        assert op.supply_current("vdd") > 0


class _EveryHookDefect(DeviceDefect):
    """Overrides every query and hook of :class:`DeviceDefect`."""

    def vth_shift(self, gate, branch):
        return {"pgs": -0.04, "cg": 0.06, "pgd": 0.02}[gate] * (
            1.0 if branch == "n" else 0.5
        )

    def segment_factor(self, gate, branch):
        return 0.7 if (gate, branch) == ("cg", "p") else 1.1

    def channel_factor(self):
        return 0.9

    def scale_channel_current(self, model, current):
        return current * 0.85 - 3e-13

    def extra_drain_current(self, model, v_cg, v_pgs, v_pgd, v_d, v_s):
        return 4e-10 * (v_pgs - v_s) - 1e-10 * v_cg

    def shunt_spec(self):
        return ("cg", 3e7, 0.4)


#: Faults the stamp oracle installs on every library cell: two device
#: defects (each adds a second device group; a gate-oxide short also
#: drives gate currents) and two bridges (extra resistors that tie
#: terminals of one device to the same node).
_STAMP_FAULT_KINDS = (
    None, "GOSFault", "ChannelBreakFault", "TerminalBridgeFault",
    "InterconnectBridgeFault",
)


class TestDeviceContributionScatter:
    """The device stamp must reproduce the original per-device /
    per-terminal scatter loop bit for bit, for the one-point call and
    for every point of a batched call (Table III testbench circuits of
    every library cell, fault-free and faulted)."""

    @staticmethod
    def _reference_loop(system, x):
        """The pre-vectorisation triple scatter loop, verbatim.

        Reads only ``(model, names, index_matrix)`` of each group."""
        from repro.spice.mna import _FD_STEP

        i_dev = np.zeros(system.size)
        j_dev = np.zeros((system.size, system.size))
        for model, _names, index_matrix, *_ in system.device_groups:
            base = np.where(
                index_matrix >= 0, x[np.clip(index_matrix, 0, None)], 0.0
            )
            n = base.shape[0]
            pert = np.broadcast_to(base[:, None, :], (n, 6, 5)).copy()
            for j in range(5):
                pert[:, j + 1, j] += _FD_STEP
            currents = model.terminal_current_matrix(pert)
            i_base = currents[:, 0, :]
            didv = (
                currents[:, 1:, :] - currents[:, None, 0, :]
            ) / _FD_STEP
            for dev in range(n):
                rows = index_matrix[dev]
                for t_term in range(5):
                    row = rows[t_term]
                    if row < 0:
                        continue
                    i_dev[row] += i_base[dev, t_term]
                    for j_term in range(5):
                        col = rows[j_term]
                        if col < 0:
                            continue
                        j_dev[row, col] += didv[dev, j_term, t_term]
        return i_dev, j_dev

    def _xor2_bench(self, vector=(0, 1)):
        from repro.gates import build_cell_circuit, get_cell

        bench = build_cell_circuit(get_cell("XOR2"), fanout=4)
        bench.set_vector(vector)
        return bench

    @staticmethod
    def _faulted_system(cell_name, fault_kind):
        from repro.faults import circuit_faults_for_cell
        from repro.gates import build_cell_circuit, get_cell

        cell = get_cell(cell_name)
        bench = build_cell_circuit(cell, fanout=4)
        if fault_kind is not None:
            fault = next(
                f for f in circuit_faults_for_cell(cell)
                if type(f).__name__ == fault_kind
            )
            fault.apply(bench)
        return MNASystem(bench.circuit)

    @pytest.mark.parametrize("fault_kind", _STAMP_FAULT_KINDS)
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_scatter_matches_reference_loop(self, cell_name, fault_kind):
        system = self._faulted_system(cell_name, fault_kind)
        if fault_kind in ("GOSFault", "ChannelBreakFault"):
            assert len(system.device_groups) == 2
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.uniform(-0.2, VDD + 0.2, size=system.size)
            i_vec, j_vec = system.device_contributions(x)
            i_ref, j_ref = self._reference_loop(system, x)
            assert np.array_equal(i_vec, i_ref)
            assert np.array_equal(j_vec, j_ref)

    @pytest.mark.parametrize("n_batch", [1, 3, 8])
    @pytest.mark.parametrize("fault_kind", _STAMP_FAULT_KINDS)
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_batched_stamp_matches_reference_loop(
        self, cell_name, fault_kind, n_batch
    ):
        system = self._faulted_system(cell_name, fault_kind)
        rng = np.random.default_rng(n_batch)
        x = rng.uniform(-0.2, VDD + 0.2, size=(n_batch, system.size))
        i_vec, j_vec = system.device_contributions(x)
        assert i_vec.shape == (n_batch, system.size)
        assert j_vec.shape == (n_batch, system.size, system.size)
        for k in range(n_batch):
            i_ref, j_ref = self._reference_loop(system, x[k])
            assert np.array_equal(i_vec[k], i_ref)
            assert np.array_equal(j_vec[k], j_ref)

    @staticmethod
    def _assert_matches_reference(system, n_batch, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.2, VDD + 0.2, size=(n_batch, system.size))
        i_vec, j_vec = system.device_contributions(x)
        for k in range(n_batch):
            i_ref, j_ref = TestDeviceContributionScatter._reference_loop(
                system, x[k]
            )
            assert np.array_equal(i_vec[k], i_ref)
            assert np.array_equal(j_vec[k], j_ref)

    @staticmethod
    def _mixed_defect_system():
        """XOR2 FO4 bench with four defective devices: a GOS shunt, a
        partial channel break, a parameter drift and a defect that
        overrides every hook (one kernel pass, five row runs)."""
        from repro.gates import build_cell_circuit, get_cell

        bench = build_cell_circuit(get_cell("XOR2"), fanout=4)
        defects = (
            GateOxideShort("pgs"), ChannelBreak(0.6),
            ParameterDrift(dvth_cg=0.05, dvth_pg=-0.02, i_on_factor=0.8),
            _EveryHookDefect(),
        )
        for name, defect in zip(sorted(bench.circuit.devices), defects):
            bench.circuit.replace_device_model(
                name, TIGSiNWFET(defect=defect)
            )
        return MNASystem(bench.circuit)

    @staticmethod
    def _two_params_system():
        """NAND2 FO4 bench whose devices alternate between two
        parameter sets, so the groups of one set are not adjacent."""
        from repro.gates import build_cell_circuit, get_cell

        bench = build_cell_circuit(get_cell("NAND2"), fanout=4)
        other = dataclasses.replace(
            DEFAULT_PARAMS, i_on=6e-6, vth_cg=0.35, drain_weight=0.5
        )
        shared = TIGSiNWFET(other)
        names = sorted(bench.circuit.devices)
        for k, name in enumerate(names):
            if k % 2:
                bench.circuit.replace_device_model(name, shared)
        bench.circuit.replace_device_model(
            names[2], TIGSiNWFET(defect=GateOxideShort("cg"))
        )
        bench.circuit.replace_device_model(
            names[3], TIGSiNWFET(other, ChannelBreak())
        )
        return MNASystem(bench.circuit)

    @pytest.mark.parametrize("n_batch", [1, 3, 8])
    def test_mixed_defects_match_reference_loop(self, n_batch):
        system = self._mixed_defect_system()
        assert len(system.device_groups) == 5
        self._assert_matches_reference(system, n_batch, seed=n_batch)

    @pytest.mark.parametrize("n_batch", [1, 3, 8])
    def test_two_parameter_sets_match_reference_loop(self, n_batch):
        system = self._two_params_system()
        params = [group.model.params for group in system.device_groups]
        assert len(set(params)) == 2
        assert params[:3] == [params[0], params[1], params[0]]
        self._assert_matches_reference(system, n_batch, seed=n_batch)

    def test_one_kernel_pass_per_parameter_set(self, monkeypatch):
        passes = []
        kernel = ModelRows.terminal_currents

        def counted(rows, volts):
            passes.append(rows.params)
            return kernel(rows, volts)

        monkeypatch.setattr(ModelRows, "terminal_currents", counted)
        for system, n_params in (
            (self._mixed_defect_system(), 1),
            (self._two_params_system(), 2),
        ):
            for x in (
                np.full(system.size, 0.6),
                np.full((3, system.size), 0.6),
            ):
                passes.clear()
                system.device_contributions(x)
                assert len(passes) == len(set(passes)) == n_params

    @pytest.mark.slow
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_every_circuit_fault_matches_reference_loop(self, cell_name):
        from repro.faults import circuit_faults_for_cell
        from repro.gates import build_cell_circuit, get_cell

        cell = get_cell(cell_name)
        for index, fault in enumerate(circuit_faults_for_cell(cell)):
            bench = build_cell_circuit(cell, fanout=4)
            fault.apply(bench)
            system = MNASystem(bench.circuit)
            for n_batch in (1, 4):
                self._assert_matches_reference(system, n_batch, seed=index)

    def test_newton_convergence_on_table3_bench(self):
        """The Table III XOR2 testbench converges to the scalar oracle's
        operating point, fault-free and with a polarity fault installed."""
        from repro.core.fault_models import StuckAtNType

        bench = self._xor2_bench((0, 1))
        op = solve_dc(bench.circuit)
        assert op == oracle.solve_dc(bench.circuit)
        assert op.voltage("out") == pytest.approx(VDD, abs=0.1)

        faulted = self._xor2_bench((0, 0))
        StuckAtNType("t1").apply(faulted)
        op = solve_dc(faulted.circuit)
        assert op == oracle.solve_dc(faulted.circuit)
        assert op.supply_current("vdd") > 0
