"""Tests for the batched multi-point analog engine.

The contract under test: the batched sweeps agree with the scalar SPICE
oracle (``tests/oracles/spice_scalar.py``) to <= 1e-9 V node voltages
and 1e-6 relative supply currents on every library cell, fault-free and
defective, and on the Fig. 5 ``Vcut`` sweep; a non-convergent point
cannot poison its batch; a singular device-free circuit fails as a
:class:`ConvergenceError`; and the device memo actually caches.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import spice_scalar as oracle
from repro.analysis.sweeps import pull_up_vcut_axis, vcut_sweep
from repro.core.detection import fault_free_reference
from repro.core.fault_models import (
    ChannelBreakFault,
    DriveDriftFault,
    GOSFault,
    StuckAtNType,
    StuckAtPType,
)
from repro.device import (
    GateOxideShort,
    cached_device,
    clear_model_caches,
    model_cache_stats,
)
from repro.gates import (
    ALL_CELLS,
    build_cell_circuit,
    dc_truth_table,
    worst_static_leakage,
)
from repro.gates.characterize import worst_case_delay
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
from repro.spice.batched import _solve_stack

VDD = 1.2
V_TOL = 1e-9
I_REL_TOL = 1e-6


def _sequential_reference(bench, vectors):
    """The scalar oracle: fresh system + cold solve per vector."""
    points = []
    for vector in vectors:
        bench.set_vector(vector)
        points.append(oracle.solve_dc(bench.circuit))
    return points


def _assert_sweep_matches(bench, vectors, sweep, reference):
    for k, _vector in enumerate(vectors):
        op = reference[k]
        for node, value in op.voltages.items():
            assert abs(value - float(sweep.voltages(node)[k])) <= V_TOL
        for src, value in op.source_currents.items():
            delta = abs(value - float(sweep.source_currents(src)[k]))
            assert delta <= I_REL_TOL * max(abs(value), 1e-15)


def _well_conditioned(shape, seed):
    """A random stack of diagonally dominant systems and right-hand sides."""
    rng = np.random.default_rng(seed)
    n_batch, size, _ = shape
    jacobian = rng.normal(size=shape) + size * np.eye(size)
    return jacobian, rng.normal(size=(n_batch, size))


class TestSolveStack:
    """``_solve_stack`` calls the private gufunc behind
    ``numpy.linalg.solve``; a numpy release that changes it fails here."""

    @pytest.mark.parametrize(
        "shape", [(1, 12, 12), (4, 20, 20), (16, 20, 20)], ids=str
    )
    def test_equals_numpy_solve(self, shape):
        jacobian, rhs = _well_conditioned(shape, seed=shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _solve_stack(jacobian, rhs)
        want = np.linalg.solve(jacobian, rhs[:, :, None])[:, :, 0]
        assert got.shape == rhs.shape
        assert np.array_equal(got, want)

    def test_singular_member_is_a_nan_row(self):
        jacobian, rhs = _well_conditioned((4, 20, 20), seed=7)
        jacobian[2, 5] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jacobian, rhs[:, :, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _solve_stack(jacobian, rhs)
        assert np.isnan(got[2]).all()
        for k in (0, 1, 3):
            assert np.array_equal(got[k], np.linalg.solve(jacobian[k], rhs[k]))


class TestBatchedDCEquivalence:
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_fault_free_all_vectors(self, cell_name):
        """Batched sweep == scalar oracle on every vector of every cell
        (the full-library truth-table workload)."""
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
        """Batched sweep == scalar oracle with injected device defects."""
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
        scalar oracle."""
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

class TestGrayCodeOracle:
    def test_gray_vectors_adjacency(self):
        vectors = oracle.gray_vectors(ALL_CELLS["XOR3"])
        assert len(vectors) == 8
        assert len(set(vectors)) == 8
        for a, b in zip(vectors, vectors[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    @pytest.mark.parametrize("cell_name", ["NAND2", "XOR2"])
    def test_truth_table_matches_warm_started_oracle(self, cell_name):
        bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
        batched = dc_truth_table(bench)
        warm = oracle.dc_truth_table(bench)
        assert batched.keys() == warm.keys()
        for vector in batched:
            assert batched[vector][1] == warm[vector][1]
            # Warm-started solves land on the same operating point well
            # inside the Newton tolerance.
            assert batched[vector][0] == pytest.approx(
                warm[vector][0], abs=5e-6
            )

    def test_defective_truth_table_matches_oracle(self):
        """The screening truth table agrees with the scalar oracle on a
        defect-bistable bench (a CG gate-oxide short in a series
        stack)."""
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        GOSFault("t1", "cg").apply(bench)
        table = dc_truth_table(bench)
        for vector, (v_out, _level) in table.items():
            bench.set_vector(vector)
            op = oracle.solve_dc(bench.circuit)
            assert abs(op.voltage("out") - v_out) <= V_TOL


class TestTransientSweep:
    def test_lockstep_matches_scalar_transients(self):
        """Per-point waveforms match the scalar oracle's transients
        (within 1e-9 V) across a Vcut-style source sweep."""
        from repro.core.fault_models import FloatingPolarityGate

        vcuts = (0.0, 0.56, 1.2)
        sequential = []
        for vcut in vcuts:
            bench = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
            FloatingPolarityGate("t1", "pgs", vcut).apply(bench)
            bench.set_input("a", Step(0.0, VDD, 0.1e-9, 2e-11))
            sequential.append(
                oracle.run_transient(bench.circuit, 0.5e-9, 5e-12)
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
        """The lockstep delay sweep reproduces the oracle's per-transition
        loop of full-window scalar transients."""
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        sequential = oracle.worst_case_delay(bench, t_stop=0.8e-9, dt=4e-12)
        bench = build_cell_circuit(ALL_CELLS["NAND2"], fanout=4)
        batched = worst_case_delay(bench, t_stop=0.8e-9, dt=4e-12)
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

    def test_fault_injection_reuses_models(self):
        bench_a = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        bench_b = build_cell_circuit(ALL_CELLS["INV"], fanout=4)
        GOSFault("t1", "pgs").apply(bench_a)
        GOSFault("t1", "pgs").apply(bench_b)
        model_a = bench_a.circuit.devices["inv.t1"].model
        model_b = bench_b.circuit.devices["inv.t1"].model
        assert model_a is model_b


def _parallel_sources():
    """A device-free circuit whose stamp is singular: two voltage
    sources in parallel."""
    c = Circuit("parallel")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_vsource("v2", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    return c


class TestSingularLinearCircuit:
    @pytest.mark.parametrize("entry", [
        lambda c: MNASystem(c).linear_solve(np.zeros(3), 1e-12),
        lambda c: solve_dc(c),
        lambda c: solve_dc_sweep(c, [{}, {"v1": 2.0}]),
        lambda c: run_transient(c, 1e-10, 1e-11),
        lambda c: run_transient_sweep(c, [{}, {"v1": 2.0}], 1e-10, 1e-11),
    ], ids=["linear_solve", "solve_dc", "solve_dc_sweep", "run_transient",
            "run_transient_sweep"])
    def test_raises_convergence_error(self, entry):
        with pytest.raises(ConvergenceError):
            entry(_parallel_sources())

    def test_sweep_flags_points_without_raising(self):
        sweep = solve_dc_sweep(
            _parallel_sources(), [{}, {"v1": 2.0}], raise_on_failure=False
        )
        assert not sweep.converged.any()


class TestVcutSweepMatchesOracle:
    def test_inv_t1_pgs_eight_points(self):
        """The Fig. 5 sweep (INV t1/pgs, 8 Vcut points: DC grid plus one
        delay transient per point) against the point-at-a-time oracle:
        same functionality and stuck verdicts, delays and leakages to
        1e-6 relative."""
        cell = ALL_CELLS["INV"]
        axis = pull_up_vcut_axis(points=8)
        want = oracle.vcut_sweep(cell, "t1", "pgs", axis)
        got = vcut_sweep(cell, "t1", "pgs", axis)
        assert len(got.points) == len(want.points) == 8
        for p, q in zip(want.points, got.points):
            assert q.vcut == p.vcut
            assert q.functional == p.functional, p.vcut
            assert math.isfinite(q.delay) == math.isfinite(p.delay), p.vcut
            if math.isfinite(p.delay):
                assert abs(q.delay - p.delay) <= I_REL_TOL * p.delay
            assert abs(q.leakage - p.leakage) <= I_REL_TOL * max(
                p.leakage, 1e-15
            )


#: Faults of the defect-screening IDDQ pass, each on every library cell.
IDDQ_FAULTS = (
    StuckAtNType("t1"),
    StuckAtPType("t3"),
    ChannelBreakFault("t1"),
)


class TestIddqScreenMatchesOracle:
    @pytest.mark.parametrize(
        "fault", IDDQ_FAULTS, ids=lambda f: f.describe()
    )
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_worst_iddq(self, cell_name, fault):
        """Worst IDDQ over all vectors from one batched sweep equals the
        oracle's one-cold-solve-per-vector maximum to 1e-6 relative."""
        bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
        fault.apply(bench)
        got, _vector = worst_static_leakage(bench)
        want = oracle.worst_static_leakage(bench)
        assert abs(got - want) <= I_REL_TOL * max(abs(want), 1e-15)
