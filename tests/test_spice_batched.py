"""Tests for the batched multi-point analog engine.

The contract under test: batched and sequential solvers agree to
<= 1e-9 V node voltages and 1e-6 relative supply currents on every
library cell, fault-free and defective; a non-convergent point cannot
poison its batch; and the device/table-model memo actually caches.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core.detection import fault_free_reference
from repro.core.fault_models import (
    ChannelBreakFault,
    DriveDriftFault,
    GOSFault,
    StuckAtNType,
)
from repro.device import (
    GateOxideShort,
    cached_device,
    cached_table_model,
    clear_model_caches,
    model_cache_stats,
)
from repro.gates import ALL_CELLS, build_cell_circuit, dc_truth_table
from repro.gates.characterize import gray_vectors, worst_case_delay
from repro.spice import (
    Circuit,
    ConvergenceError,
    MNASystem,
    Step,
    final_supply_currents,
    run_transient,
    run_transient_sweep,
    solve_dc,
    solve_dc_sweep,
)
from repro.spice.batched import heuristic_initial_guess

VDD = 1.2
V_TOL = 1e-9
I_REL_TOL = 1e-6


def _sequential_reference(bench, vectors):
    """Seed-style scalar loop: fresh system + cold solve per vector."""
    points = []
    for vector in vectors:
        bench.set_vector(vector)
        points.append(solve_dc(bench.circuit))
    return points


def _assert_sweep_matches(bench, vectors, sweep, reference):
    for k, _vector in enumerate(vectors):
        op = reference[k]
        for node, value in op.voltages.items():
            assert abs(value - float(sweep.voltages(node)[k])) <= V_TOL
        for src, value in op.source_currents.items():
            delta = abs(value - float(sweep.source_currents(src)[k]))
            assert delta <= I_REL_TOL * max(abs(value), 1e-15)


class TestBatchedDCEquivalence:
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_fault_free_all_vectors(self, cell_name):
        """Exact mode == scalar solves on every vector of every cell."""
        bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
        vectors = list(
            itertools.product((0, 1), repeat=bench.cell.n_inputs)
        )
        reference = _sequential_reference(bench, vectors)
        sweep = solve_dc_sweep(
            bench.circuit, [bench.vector_bias(v) for v in vectors]
        )
        assert np.all(sweep.converged)
        _assert_sweep_matches(bench, vectors, sweep, reference)

    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_fault_free_fast_mode(self, cell_name):
        """Fast mode stays within the same tolerances on library cells."""
        bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
        vectors = list(
            itertools.product((0, 1), repeat=bench.cell.n_inputs)
        )
        reference = _sequential_reference(bench, vectors)
        sweep = solve_dc_sweep(
            bench.circuit,
            [bench.vector_bias(v) for v in vectors],
            mode="fast",
        )
        _assert_sweep_matches(bench, vectors, sweep, reference)

    @pytest.mark.parametrize(
        "fault",
        [
            GOSFault("t1", "pgs"),
            GOSFault("t1", "cg"),
            ChannelBreakFault("t1"),
            DriveDriftFault("t1", 0.6),
            StuckAtNType("t1"),
        ],
        ids=lambda f: f.describe(),
    )
    @pytest.mark.parametrize("cell_name", ["INV", "NAND2", "XOR2"])
    def test_defective_cells(self, cell_name, fault):
        """Exact mode == scalar solves with injected device defects."""
        bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
        fault.apply(bench)
        vectors = list(
            itertools.product((0, 1), repeat=bench.cell.n_inputs)
        )
        reference = _sequential_reference(bench, vectors)
        sweep = solve_dc_sweep(
            bench.circuit, [bench.vector_bias(v) for v in vectors]
        )
        _assert_sweep_matches(bench, vectors, sweep, reference)

    def test_operating_point_materialisation(self):
        bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        sweep = solve_dc_sweep(
            bench.circuit,
            [bench.vector_bias((0,)), bench.vector_bias((1,))],
        )
        assert len(sweep) == 2
        op = sweep.point(1)
        assert op.voltage("out") == pytest.approx(0.0, abs=0.05)
        assert len(sweep.operating_points()) == 2
        assert op.supply_current("vdd") == pytest.approx(
            float(sweep.supply_currents("vdd")[1])
        )

    def test_validates_inputs(self):
        bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        with pytest.raises(ValueError):
            solve_dc_sweep(bench.circuit, [])
        with pytest.raises(KeyError):
            solve_dc_sweep(bench.circuit, [{"no_such_source": 0.0}])
        with pytest.raises(ValueError):
            solve_dc_sweep(
                bench.circuit, [bench.vector_bias((0,))], mode="sideways"
            )

    def test_linear_circuit_direct_solve(self):
        c = Circuit("div")
        c.add_vsource("v1", "in", "0", 2.0)
        c.add_resistor("r1", "in", "mid", 1e3)
        c.add_resistor("r2", "mid", "0", 3e3)
        sweep = solve_dc_sweep(c, [{"v1": 2.0}, {"v1": 4.0}, {}])
        assert sweep.voltages("mid") == pytest.approx([1.5, 3.0, 1.5])
        assert np.all(sweep.converged)


class TestNonConvergentIsolation:
    def _inv_bench(self):
        return build_cell_circuit(ALL_CELLS["INV"], fanout=4)

    def test_bad_point_does_not_poison_batch(self):
        """A NaN-driven bias point fails alone; its neighbours match the
        scalar path exactly."""
        bench = self._inv_bench()
        good = [bench.vector_bias((0,)), bench.vector_bias((1,))]
        reference = _sequential_reference(bench, [(0,), (1,)])
        bad = {"vin_a": float("nan")}
        sweep = solve_dc_sweep(
            bench.circuit, [good[0], bad, good[1]],
            raise_on_failure=False,
        )
        assert list(sweep.converged) == [True, False, True]
        for k, ref_k in ((0, 0), (2, 1)):
            op = reference[ref_k]
            for node, value in op.voltages.items():
                assert abs(value - float(sweep.voltages(node)[k])) <= V_TOL

    def test_raises_by_default(self):
        bench = self._inv_bench()
        with pytest.raises(ConvergenceError) as err:
            solve_dc_sweep(
                bench.circuit,
                [bench.vector_bias((0,)), {"vin_a": float("nan")}],
            )
        assert "1/2" in str(err.value)

    def test_fast_mode_falls_back_per_point(self):
        """Fast mode re-runs failures on the exact schedule — a poisoned
        point still fails, the rest still converge."""
        bench = self._inv_bench()
        sweep = solve_dc_sweep(
            bench.circuit,
            [bench.vector_bias((0,)), {"vin_a": float("nan")}],
            mode="fast",
            raise_on_failure=False,
        )
        assert list(sweep.converged) == [True, False]


class TestGrayCodeSequentialEngine:
    def test_gray_vectors_adjacency(self):
        vectors = gray_vectors(ALL_CELLS["XOR3"])
        assert len(vectors) == 8
        assert len(set(vectors)) == 8
        for a, b in zip(vectors, vectors[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    @pytest.mark.parametrize("cell_name", ["NAND2", "XOR2"])
    def test_truth_table_engines_agree(self, cell_name):
        bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
        batched = dc_truth_table(bench, engine="batched")
        warm = dc_truth_table(bench, engine="sequential")
        assert batched.keys() == warm.keys()
        for vector in batched:
            assert batched[vector][1] == warm[vector][1]
            # Warm-started solves land on the same operating point well
            # inside the Newton tolerance.
            assert batched[vector][0] == pytest.approx(
                warm[vector][0], abs=5e-6
            )

    def test_unknown_engine_rejected(self):
        bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        with pytest.raises(ValueError):
            dc_truth_table(bench, engine="psychic")

    def test_fast_mode_opt_in_matches_exact_on_library_cell(self):
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        exact = dc_truth_table(bench)
        fast = dc_truth_table(bench, mode="fast")
        for vector in exact:
            assert fast[vector][1] == exact[vector][1]
            assert abs(fast[vector][0] - exact[vector][0]) <= V_TOL

    def test_defective_screening_defaults_to_exact_schedule(self):
        """The default screening path must agree with the scalar oracle
        on a defective bench (regression: fast mode used to be the
        silent default here)."""
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        GOSFault("t1", "cg").apply(bench)
        table = dc_truth_table(bench)
        for vector, (v_out, _level) in table.items():
            bench.set_vector(vector)
            op = solve_dc(bench.circuit)
            assert abs(op.voltage("out") - v_out) <= V_TOL


class TestTransientSweep:
    def test_lockstep_matches_scalar_transients(self):
        """Per-point waveforms match run_transient bit-for-bit (within
        1e-9 V) across a Vcut-style source sweep."""
        from repro.core.fault_models import FloatingPolarityGate

        vcuts = (0.0, 0.56, 1.2)
        sequential = []
        for vcut in vcuts:
            bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
            FloatingPolarityGate("t1", "pgs", vcut).apply(bench)
            bench.set_input("a", Step(0.0, VDD, 0.1e-9, 2e-11))
            sequential.append(
                run_transient(bench.circuit, 0.5e-9, 5e-12)
            )
        bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        FloatingPolarityGate("t1", "pgs", vcuts[0]).apply(bench)
        (vcut_src,) = [
            n for n in bench.circuit.vsources if n.startswith("vcut_")
        ]
        bench.set_input("a", Step(0.0, VDD, 0.1e-9, 2e-11))
        results = run_transient_sweep(
            bench.circuit,
            [{vcut_src: v} for v in vcuts],
            0.5e-9,
            5e-12,
        )
        for ref, got in zip(sequential, results):
            for node, wave in ref.voltages.items():
                assert np.max(np.abs(wave - got.voltages[node])) <= V_TOL
        # Vectorized sweep-dimension measurement extraction agrees with
        # the per-result scalar method.
        stacked = final_supply_currents(results)
        for k, result in enumerate(results):
            assert stacked[k] == pytest.approx(
                result.final_supply_current()
            )

    def test_validates_inputs(self):
        bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        with pytest.raises(ValueError):
            run_transient_sweep(bench.circuit, [], 1e-9, 1e-12)
        with pytest.raises(KeyError):
            run_transient_sweep(
                bench.circuit, [{"nope": 0.0}], 1e-9, 1e-12
            )

    def test_batched_worst_case_delay(self):
        """The lockstep delay sweep reproduces the per-transition loop."""
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        sequential = worst_case_delay(
            bench, t_stop=0.8e-9, dt=4e-12, engine="sequential"
        )
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        batched = worst_case_delay(
            bench, t_stop=0.8e-9, dt=4e-12, engine="batched"
        )
        assert math.isfinite(sequential)
        assert batched == pytest.approx(sequential, rel=1e-9)


class TestModelMemo:
    # The fault-free reference memo of the detection layer holds results
    # solved with these models, so it is cleared alongside them.
    def setup_method(self):
        clear_model_caches()
        fault_free_reference.cache_clear()

    def teardown_method(self):
        clear_model_caches()
        fault_free_reference.cache_clear()

    def test_device_cache_hits(self):
        a = cached_device()
        b = cached_device()
        assert a is b
        stats = model_cache_stats()
        assert stats["device_misses"] == 1
        assert stats["device_hits"] == 1

    def test_defect_keys_distinguish(self):
        clean = cached_device()
        gos = cached_device(defect=GateOxideShort("pgs"))
        gos2 = cached_device(defect=GateOxideShort("pgs"))
        other = cached_device(defect=GateOxideShort("cg"))
        assert clean is not gos
        assert gos is gos2
        assert gos is not other

    def test_table_model_memo_and_invalidate(self):
        table = cached_table_model(grid_points=5, vds_points=4)
        again = cached_table_model(grid_points=5, vds_points=4)
        assert table is again
        other = cached_table_model(grid_points=6, vds_points=4)
        assert other is not table
        stats = model_cache_stats()
        assert stats["table_misses"] == 2
        assert stats["table_hits"] == 1
        clear_model_caches()
        rebuilt = cached_table_model(grid_points=5, vds_points=4)
        assert rebuilt is not table
        assert model_cache_stats()["table_misses"] == 1

    def test_cached_table_model_matches_direct_build(self):
        from repro.device.table_model import TableModel

        cached = cached_table_model(grid_points=7, vds_points=5)
        direct = TableModel(cached_device(), grid_points=7, vds_points=5)
        np.testing.assert_allclose(cached._table, direct._table)

    def test_table_model_testbench(self):
        """A table-model testbench verifies its truth table, and repeat
        builds share the one memoised grid sample."""
        from repro.gates import verify_truth_table

        bench = build_cell_circuit(ALL_CELLS["INV"], use_table_model=True)
        assert verify_truth_table(bench)
        again = build_cell_circuit(ALL_CELLS["INV"], use_table_model=True)
        assert (
            bench.circuit.devices["inv.t1"].model
            is again.circuit.devices["inv.t1"].model
        )
        assert model_cache_stats()["table_misses"] == 1

    def test_fault_injection_reuses_models(self):
        bench_a = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        bench_b = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        GOSFault("t1", "pgs").apply(bench_a)
        GOSFault("t1", "pgs").apply(bench_b)
        model_a = bench_a.circuit.devices["inv.t1"].model
        model_b = bench_b.circuit.devices["inv.t1"].model
        assert model_a is model_b


class TestHeuristicGuess:
    def test_pins_driven_nodes(self):
        bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        mna = MNASystem(bench.circuit)
        points = [bench.vector_bias((1,))]
        x0 = heuristic_initial_guess(mna, points)
        assert x0.shape == (1, mna.size)
        assert x0[0, mna.node_index["a"]] == pytest.approx(VDD)
        assert x0[0, mna.node_index["vdd"]] == pytest.approx(VDD)
        assert x0[0, mna.node_index["out"]] == pytest.approx(VDD / 2)
        # Branch-current unknowns start at zero.
        assert np.all(x0[0, mna.n_nodes:] == 0.0)
