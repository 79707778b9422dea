"""Scalar SPICE: one bias point, one Newton loop, one point at a time.

This is the analog stack as it was solved before the batched engine
became the only one: :func:`solve_newton` and
:func:`solve_dc_continuation` (formerly ``MNASystem`` methods), the
scalar :func:`solve_dc`, the scalar backward-Euler :func:`run_transient`,
the Gray-code warm-started truth table and the point-at-a-time Fig. 5
``Vcut`` sweep.  They share only the assembly and the device stamp of
:class:`repro.spice.mna.MNASystem` with the engine.

They are the oracles of :mod:`repro.spice.batched`:
``tests/test_spice_oracle.py`` holds :func:`repro.spice.dc.solve_dc`
and :func:`repro.spice.transient.run_transient` to ``np.array_equal``
with :func:`solve_dc` and :func:`run_transient` here, and
``tests/test_spice_batched.py`` holds the batched sweeps to 1e-9 V and
1e-6 relative current.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.sweeps import VcutPoint, VcutSweep, _default_transition
from repro.core.fault_models import FloatingPolarityGate
from repro.gates.builder import Testbench, build_cell_circuit
from repro.gates.cell import Cell
from repro.gates.characterize import (
    _T_EDGE,
    _T_STOP,
    _DT,
    _flipping_transitions,
    all_vectors,
)
from repro.spice.batched import capacitor_companions
from repro.spice.measure import logic_level, propagation_delay
from repro.spice.mna import ConvergenceError, MNASystem, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.results import OperatingPoint, TransientResult
from repro.spice.waveforms import Step


def solve_newton(
    system: MNASystem,
    x0: np.ndarray,
    b: np.ndarray,
    g_extra: np.ndarray | None = None,
    i_extra: np.ndarray | None = None,
    options: NewtonOptions | None = None,
    gmin: float = 0.0,
    g_base: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``G x + I_dev(x) - b = 0`` by damped Newton iteration.

    Args:
        system: The assembled circuit.
        x0: Initial guess.
        b: Source right-hand side.
        g_extra: Additional linear conductances (capacitor companions).
        i_extra: Additional constant currents (companion histories).
        options: Newton options.
        gmin: Conductance from every node to ground (homotopy aid).
        g_base: Precomputed full linear base (``g_linear + g_extra``
            with ``gmin`` already applied); overrides the assembly
            from ``g_extra``/``gmin`` so transient loops can stamp
            the companion sum once instead of once per step.
    """
    opts = options or NewtonOptions()
    g = (
        g_base
        if g_base is not None
        else system.base_matrix(gmin=gmin, g_extra=g_extra)
    )
    x = x0.copy()
    for iteration in range(opts.max_iterations):
        i_dev, j_dev = system.device_contributions(x)
        residual = g @ x + i_dev - b
        if i_extra is not None:
            residual = residual + i_extra
        jacobian = g + j_dev
        try:
            delta = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Jacobian in circuit {system.circuit.title!r}"
            ) from exc
        # Voltage limiting on node unknowns only.  The limit shrinks
        # as iterations accumulate, which breaks the two-point limit
        # cycles steep exponential devices can otherwise sustain.
        limit = opts.v_limit_step / (1 + iteration // 60)
        v_part = delta[: system.n_nodes]
        worst = np.max(np.abs(v_part)) if v_part.size else 0.0
        if worst > limit:
            delta = delta * (limit / worst)
        x = x + delta
        if (
            np.max(np.abs(delta[: system.n_nodes]), initial=0.0)
            < opts.v_tolerance
            and np.max(np.abs(residual)) < opts.residual_tolerance
        ):
            return x
    raise ConvergenceError(
        f"Newton failed to converge in {opts.max_iterations} iterations "
        f"(circuit {system.circuit.title!r}, gmin={gmin:g})"
    )


def solve_dc_continuation(
    system: MNASystem,
    t: float = 0.0,
    x0: np.ndarray | None = None,
    options: NewtonOptions | None = None,
) -> np.ndarray:
    """DC operating point with gmin stepping.

    Starts from a heavily damped system (large gmin to ground pulls
    every node toward a solvable state) and relaxes gmin toward zero,
    reusing each solution as the next initial guess.
    """
    opts = options or NewtonOptions()
    b = system.source_rhs(t)
    if system.is_linear:
        # Device-free circuit: one prefactorised direct solve at the
        # gmin floor replaces the whole Newton/gmin ladder.
        gmin_floor = opts.gmin_steps[-1] if opts.gmin_steps else 0.0
        return system.linear_solve(b, gmin_floor)
    x = x0.copy() if x0 is not None else np.zeros(system.size)
    last_error: Exception | None = None
    for gmin in opts.gmin_steps:
        try:
            x = solve_newton(system, x, b, options=opts, gmin=gmin)
            last_error = None
        except ConvergenceError as exc:
            last_error = exc
    if last_error is not None:
        raise last_error
    return x


def solve_dc(
    circuit: Circuit,
    t: float = 0.0,
    x0: np.ndarray | None = None,
    options: NewtonOptions | None = None,
    system: MNASystem | None = None,
) -> OperatingPoint:
    """Scalar DC operating point of ``circuit`` (sources at time ``t``)."""
    mna = system if system is not None else MNASystem(circuit)
    x = solve_dc_continuation(mna, t=t, x0=x0, options=options)
    return OperatingPoint(
        voltages={name: float(x[k]) for name, k in mna.node_index.items()},
        source_currents={
            name: float(x[mna.n_nodes + k])
            for k, name in enumerate(mna.vsource_names)
        },
    )


def run_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    options: NewtonOptions | None = None,
    x0: np.ndarray | None = None,
    system: MNASystem | None = None,
) -> TransientResult:
    """Integrate the circuit from its DC operating point to ``t_stop``,
    one scalar Newton solve per backward-Euler step.

    Args:
        circuit: The circuit to simulate.
        t_stop: End time [s].
        dt: Fixed time step [s].
        options: Newton options.
        x0: Optional initial solution (defaults to the DC point at t=0).
        system: Pre-built :class:`MNASystem`.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    mna = system if system is not None else MNASystem(circuit)
    opts = options or NewtonOptions()

    # Capacitor companion pattern (constant for fixed dt).
    g_cap, a_idx, b_idx, geq_arr = capacitor_companions(mna, dt)
    cap_pairs = list(zip(a_idx, b_idx, geq_arr))

    x = (
        x0.copy()
        if x0 is not None
        else solve_dc_continuation(mna, t=0.0, options=opts)
    )
    # The time-invariant linear base (stamp + capacitor companions) is
    # summed once here and reused by every step's Newton solve; the
    # retry variant adds its gmin support lazily.
    g_base = mna.g_linear + g_cap
    g_base_retry: np.ndarray | None = None
    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    trace = np.empty((n_steps + 1, mna.size))
    trace[0] = x

    for step in range(1, n_steps + 1):
        t = times[step]
        b = mna.source_rhs(t)
        # History currents: i_extra = -C/dt * v_prev (per capacitor).
        i_extra = np.zeros(mna.size)
        for a, bb, geq in cap_pairs:
            va = x[a] if a >= 0 else 0.0
            vb = x[bb] if bb >= 0 else 0.0
            hist = geq * (va - vb)
            if a >= 0:
                i_extra[a] -= hist
            if bb >= 0:
                i_extra[bb] += hist
        try:
            x = solve_newton(
                mna, x, b, i_extra=i_extra, options=opts, g_base=g_base
            )
        except ConvergenceError:
            # Retry once from a relaxed starting point with gmin support;
            # transient steps occasionally straddle a steep device region.
            if g_base_retry is None:
                g_base_retry = g_base.copy()
                idx = np.arange(mna.n_nodes)
                g_base_retry[idx, idx] += 1e-9
            x = solve_newton(
                mna, x, b, i_extra=i_extra, options=opts,
                g_base=g_base_retry,
            )
        trace[step] = x

    voltages = {
        name: trace[:, k].copy() for name, k in mna.node_index.items()
    }
    source_currents = {
        name: trace[:, mna.n_nodes + k].copy()
        for k, name in enumerate(mna.vsource_names)
    }
    return TransientResult(
        times=times, voltages=voltages, source_currents=source_currents
    )


# ---------------------------------------------------------------------------
# Point-at-a-time measurements
# ---------------------------------------------------------------------------

def gray_vectors(cell: Cell) -> list[tuple[int, ...]]:
    """Every input vector in reflected-Gray-code order.

    Adjacent vectors differ in exactly one bit, which makes the previous
    operating point the natural warm start for the next solve.
    """
    n = cell.n_inputs
    vectors = []
    for k in range(1 << n):
        gray = k ^ (k >> 1)
        vectors.append(
            tuple((gray >> (n - 1 - bit)) & 1 for bit in range(n))
        )
    return vectors


def dc_truth_table(
    bench: Testbench, system: MNASystem | None = None
) -> dict[tuple[int, ...], tuple[float, int | None]]:
    """Measured (voltage, logic value) of ``out`` for every input vector,
    one vector at a time on a shared system, Gray-code ordered, each
    solve warm-started from the previous solution."""
    cell = bench.cell
    mna = system if system is not None else MNASystem(bench.circuit)
    table: dict[tuple[int, ...], tuple[float, int | None]] = {}
    x = None
    for vector in gray_vectors(cell):
        bench.set_vector(vector)
        x = solve_dc_continuation(mna, t=0.0, x0=x)
        v_out = float(x[mna.node_index["out"]])
        table[vector] = (v_out, logic_level(v_out, bench.vdd))
    return {v: table[v] for v in all_vectors(cell)}


def worst_static_leakage(bench: Testbench) -> float:
    """Maximum IDDQ over all input vectors, one cold solve per vector."""
    worst = 0.0
    for vector in all_vectors(bench.cell):
        bench.set_vector(vector)
        worst = max(worst, solve_dc(bench.circuit).supply_current("vdd"))
    return worst


def transition_delay(
    bench: Testbench,
    input_name: str,
    other_bits: dict[str, int],
    rising: bool = True,
    t_edge: float = _T_EDGE,
    t_stop: float = _T_STOP,
    dt: float = _DT,
) -> float:
    """Propagation delay of one input edge from a full-window scalar
    transient (``inf`` when the output never responds)."""
    vdd = bench.vdd
    for name, bit in other_bits.items():
        bench.set_input(name, bit * vdd)
    v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
    bench.set_input(input_name, Step(v0, v1, t_edge, 20e-12))
    result = run_transient(bench.circuit, t_stop, dt)
    return propagation_delay(result, input_name, "out", vdd)


def worst_case_delay(
    bench: Testbench,
    t_edge: float = _T_EDGE,
    t_stop: float = _T_STOP,
    dt: float = _DT,
) -> float:
    """Worst delay over all output-flipping single-input transitions,
    one full-window scalar transient per transition."""
    worst = 0.0
    for input_name, others, rising in _flipping_transitions(bench.cell):
        worst = max(worst, transition_delay(
            bench, input_name, others, rising=rising,
            t_edge=t_edge, t_stop=t_stop, dt=dt,
        ))
    return worst


def vcut_sweep(
    cell: Cell,
    transistor: str,
    terminal: str,
    vcuts: np.ndarray | list[float],
    fanout: int = 4,
    dt: float = 2.5e-12,
    t_stop: float = 1.4e-9,
) -> VcutSweep:
    """Point-at-a-time Fig. 5 measurement: a fresh testbench, scalar DC
    solves and one scalar transient per ``Vcut``."""
    input_name, others, rising = _default_transition(cell, transistor)
    points: list[VcutPoint] = []
    for vcut in vcuts:
        bench = build_cell_circuit(cell, fanout=fanout)
        FloatingPolarityGate(transistor, terminal, float(vcut)).apply(bench)
        vdd = bench.vdd
        # Leakage: worst static IDDQ over all vectors (+functionality).
        leakage = 0.0
        functional = True
        reference = cell.truth_table()
        for vector in itertools.product((0, 1), repeat=cell.n_inputs):
            bench.set_vector(vector)
            op = solve_dc(bench.circuit)
            leakage = max(leakage, op.supply_current("vdd"))
            if logic_level(op.voltage("out"), vdd) != reference[vector]:
                functional = False
        # Delay of the representative transition.
        for name, bit in others.items():
            bench.set_input(name, bit * vdd)
        v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
        bench.set_input(input_name, Step(v0, v1, 0.2e-9, 2e-11))
        result = run_transient(bench.circuit, t_stop, dt)
        delay = propagation_delay(result, input_name, "out", vdd)
        points.append(
            VcutPoint(
                vcut=float(vcut),
                delay=delay,
                leakage=leakage,
                functional=functional,
            )
        )
    return VcutSweep(
        cell_name=cell.name,
        transistor=transistor,
        terminal=terminal,
        points=tuple(points),
    )
