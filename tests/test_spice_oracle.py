"""The one-point analyses equal the scalar SPICE oracle, bit for bit.

:func:`repro.spice.dc.solve_dc` and
:func:`repro.spice.transient.run_transient` are the ``B = 1`` case of
the batched engine.  Their solutions must be ``np.array_equal`` to the
scalar Newton loop and backward-Euler integrator of
``tests/oracles/spice_scalar.py`` on every library cell testbench,
fault-free and faulted, and a point that does not converge must fail
on both sides.  Tier-1 runs every cell fault-free plus one circuit
fault of each kind; the slow tier runs every circuit fault of every
cell over every input vector, and the delay benches of INV, NAND2 and
XOR2 under every fault.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from oracles import spice_scalar as oracle
from repro.faults import circuit_faults_for_cell
from repro.gates import ALL_CELLS, build_cell_circuit
from repro.spice import (
    ConvergenceError,
    Step,
    run_transient,
    solve_dc,
    solve_dc_sweep,
)

VDD = 1.2

#: Circuit-fault kinds of the cell universes, one representative each in
#: tier-1 (``None`` is the fault-free bench).
FAULT_KINDS = (
    None, "GOSFault", "ChannelBreakFault", "StuckAtNType", "StuckAtPType",
    "DriveDriftFault", "FloatingPolarityGate", "TerminalBridgeFault",
    "InterconnectBridgeFault",
)
#: Gate-oxide shorts whose failing vectors run every gmin rung to the
#: iteration cap while the bench's other vectors converge, so the active
#: set of their batched sweep shrinks from four points to one or two on
#: every rung.
STALLING_FAULTS = (
    ("NAND2", "GOS at CG of t3"),
    ("NAND2", "GOS at CG of t4"),
    ("NOR2", "GOS at PGS of t1"),
)
#: Cells of the Table III delay benches.
DELAY_CELLS = ("INV", "NAND2", "XOR2")


def _bench(cell_name, fault=None):
    bench = build_cell_circuit(ALL_CELLS[cell_name], fanout=4)
    if fault is not None:
        fault.apply(bench)
    return bench


def _first_of_kind(cell_name, kind):
    if kind is None:
        return None
    return next(
        f for f in circuit_faults_for_cell(ALL_CELLS[cell_name])
        if type(f).__name__ == kind
    )


def _solution(op):
    return np.array([*op.voltages.values(), *op.source_currents.values()])


def _assert_dc_matches_oracle(bench):
    """Every input vector: both converge to equal solutions, or both
    raise :class:`ConvergenceError`.  Returns the failed vectors."""
    failed = []
    for vector in itertools.product((0, 1), repeat=bench.cell.n_inputs):
        bench.set_vector(vector)
        try:
            want = oracle.solve_dc(bench.circuit)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                solve_dc(bench.circuit)
            failed.append(vector)
            continue
        got = solve_dc(bench.circuit)
        assert got.voltages.keys() == want.voltages.keys()
        assert got.source_currents.keys() == want.source_currents.keys()
        assert np.array_equal(_solution(got), _solution(want)), vector
    return failed


def _assert_transient_matches_oracle(bench, t_stop, dt):
    bench.set_input("a", Step(0.0, VDD, 0.1e-9, 2e-11))
    for name in bench.cell.inputs[1:]:
        bench.set_input(name, VDD if bench.cell.name == "NAND2" else 0.0)
    try:
        want = oracle.run_transient(bench.circuit, t_stop, dt)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            run_transient(bench.circuit, t_stop, dt)
        return
    got = run_transient(bench.circuit, t_stop, dt)
    assert np.array_equal(got.times, want.times)
    for name, wave in want.voltages.items():
        assert np.array_equal(got.voltages[name], wave), name
    for name, wave in want.source_currents.items():
        assert np.array_equal(got.source_currents[name], wave), name


class TestDCMatchesOracle:
    @pytest.mark.parametrize("kind", FAULT_KINDS, ids=str)
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_every_vector(self, cell_name, kind):
        bench = _bench(cell_name, _first_of_kind(cell_name, kind))
        failed = _assert_dc_matches_oracle(bench)
        if kind is None:
            assert not failed

    @pytest.mark.parametrize(("cell_name", "description"), STALLING_FAULTS)
    def test_stalling_gate_oxide_short(self, cell_name, description):
        fault = next(
            f for f in circuit_faults_for_cell(ALL_CELLS[cell_name])
            if f.describe() == description
        )
        bench = _bench(cell_name, fault)
        failed = _assert_dc_matches_oracle(bench)
        assert failed
        # The batched sweep flags the same vectors, and each converged
        # point equals its one-point solve while the others stall.
        vectors = list(itertools.product((0, 1), repeat=bench.cell.n_inputs))
        sweep = solve_dc_sweep(
            bench.circuit, [bench.vector_bias(v) for v in vectors],
            raise_on_failure=False,
        )
        for k, vector in enumerate(vectors):
            assert sweep.converged[k] == (vector not in failed), vector
            if sweep.converged[k]:
                bench.set_vector(vector)
                want = _solution(solve_dc(bench.circuit))
                assert np.array_equal(sweep.x[k], want), vector

    def test_warm_start_and_time(self):
        """``x0`` and ``t`` reach the engine as they reach the oracle."""
        bench = _bench("NAND2")
        bench.set_vector((1, 0))
        x0 = np.full(len(bench.circuit.nodes()) + 3, 0.3)
        for kwargs in ({"x0": x0}, {"t": 1e-9}):
            got = solve_dc(bench.circuit, **kwargs)
            want = oracle.solve_dc(bench.circuit, **kwargs)
            assert np.array_equal(_solution(got), _solution(want))


class TestTransientMatchesOracle:
    @pytest.mark.parametrize("kind", (None, "GOSFault", "ChannelBreakFault"),
                             ids=str)
    @pytest.mark.parametrize("cell_name", DELAY_CELLS)
    def test_edge_bench(self, cell_name, kind):
        bench = _bench(cell_name, _first_of_kind(cell_name, kind))
        _assert_transient_matches_oracle(bench, 0.4e-9, 5e-12)


@pytest.mark.slow
class TestFullSweepMatchesOracle:
    @pytest.mark.parametrize("cell_name", sorted(ALL_CELLS))
    def test_every_circuit_fault_every_vector(self, cell_name):
        cell = ALL_CELLS[cell_name]
        for fault in circuit_faults_for_cell(cell):
            _assert_dc_matches_oracle(_bench(cell_name, fault))

    @pytest.mark.parametrize("cell_name", DELAY_CELLS)
    def test_every_delay_bench(self, cell_name):
        _assert_transient_matches_oracle(_bench(cell_name), 0.6e-9, 4e-12)
        for fault in circuit_faults_for_cell(ALL_CELLS[cell_name]):
            _assert_transient_matches_oracle(
                _bench(cell_name, fault), 0.6e-9, 4e-12
            )
