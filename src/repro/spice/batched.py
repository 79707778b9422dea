"""The analog engine: vectorized Newton DC sweeps and lockstep transients.

The measurement workloads behind the paper's Section III-D/V-B
observables (DC truth tables, IDDQ screens, Fig. 5 ``Vcut`` sweeps) are
embarrassingly parallel across bias points: the same :class:`MNASystem`
is solved at B independent source configurations.  This module stacks
those B points into one vectorized Newton loop:

* device evaluation runs the system's one stamp
  (:meth:`MNASystem.device_contributions`) over the whole ``(B, size)``
  stack: one compact-model call per device group per iteration, not
  one per point,
* the ``(B, size, size)`` Jacobian stack is solved with one call of
  the batched LU gufunc behind ``numpy.linalg.solve``,
* converged points freeze (they drop out of the active set) while
  stragglers keep iterating, and a non-convergent or singular point is
  isolated instead of poisoning the batch,
* the per-point control flow — damping, gmin ladder, convergence tests
  — does not depend on the rest of the stack, so a point follows the
  trajectory it would follow alone.

:func:`run_transient_sweep` extends the same machinery to transient
analysis: B variants of one circuit (differing only in source drive)
integrate in lockstep, one batched Newton solve per time step.

This is the only Newton solver of the package: the one-point analyses
:func:`repro.spice.dc.solve_dc` and
:func:`repro.spice.transient.run_transient` are its ``B = 1`` case.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from repro.spice.mna import ConvergenceError, MNASystem, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.results import OperatingPoint, TransientResult
from repro.spice.waveforms import Waveform

#: A bias point: voltage-source name -> DC level [V] overriding the
#: source's own waveform.  Sources not named keep their waveform value.
BiasPoint = Mapping[str, float]


# ---------------------------------------------------------------------------
# Batched linear solve
# ---------------------------------------------------------------------------

def _solve_stack(jacobian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve; singular members yield NaN rows.

    Calls the gufunc that ``numpy.linalg.solve`` wraps, without the
    wrapper's per-call type checks: on the small stacks of a Newton
    iteration those cost about as much as the LU itself.  The gufunc
    solves every member on its own and fills a singular one with NaN
    (where the wrapper would raise for the whole stack), so one bad bias
    point cannot poison the batch; the error state hides the "invalid
    value" flag that NaN row raises.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(jacobian, rhs[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# Batched Newton iteration and gmin continuation
# ---------------------------------------------------------------------------

def newton_batch(
    system: MNASystem,
    x0: np.ndarray,
    b: np.ndarray,
    options: NewtonOptions | None = None,
    gmin: float = 0.0,
    g_extra: np.ndarray | None = None,
    i_extra: np.ndarray | None = None,
    g_base: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on B stacked bias points.

    Returns ``(x, converged)`` where ``x`` is ``(B, size)`` and
    ``converged`` a boolean ``(B,)`` mask.  Unconverged entries of ``x``
    hold whatever the last iteration produced — callers are expected to
    discard them (the continuation keeps the previous gmin solution).

    Each point is damped and tested on its own: its voltage step is
    limited to ``v_limit_step / (1 + iteration // 60)`` on the node
    unknowns, and it converges once that step is below ``v_tolerance``
    and its residual below ``residual_tolerance``.  The device stamp
    does not depend on the rest of the stack either, so a point follows
    the same trajectory for every batch it is solved in.
    """
    opts = options or NewtonOptions()
    g = (
        g_base
        if g_base is not None
        else system.base_matrix(gmin=gmin, g_extra=g_extra)
    )
    n_batch = x0.shape[0]
    n_nodes = system.n_nodes
    x = x0.copy()
    converged = np.zeros(n_batch, dtype=bool)
    active = np.arange(n_batch)
    for iteration in range(opts.max_iterations):
        # Skip the fancy-index copies while every point is still active
        # (the common case: most steps/rungs converge together).
        full = active.size == n_batch
        xa = x if full else x[active]
        i_dev, j_dev = system.device_contributions(xa)
        residual = xa @ g.T
        residual += i_dev
        residual -= b if full else b[active]
        if i_extra is not None:
            residual += i_extra if full else i_extra[active]
        j_dev += g  # the Jacobian
        # The Newton step is -delta: negation is exact, so solving for
        # +residual and subtracting below gives the same bits.
        delta = _solve_stack(j_dev, residual)
        # Per-point voltage limiting on node unknowns.  The limit
        # shrinks as iterations accumulate, which breaks the two-point
        # limit cycles steep exponential devices can otherwise sustain.
        limit = opts.v_limit_step / (1 + iteration // 60)
        step = np.abs(delta[:, :n_nodes]).max(axis=1, initial=0.0)
        over = step > limit
        if over.any():
            scale = np.ones(len(active))
            scale[over] = limit / step[over]
            delta *= scale[:, None]
            step = np.abs(delta[:, :n_nodes]).max(axis=1, initial=0.0)
        x_new = xa - delta
        finite = np.isfinite(x_new).all(axis=1)
        ok = (step < opts.v_tolerance) & (
            np.abs(residual).max(axis=1) < opts.residual_tolerance
        )
        ok &= finite
        if full:
            x = x_new
        else:
            x[active] = x_new
        converged[active[ok]] = True
        active = active[finite ^ ok]  # neither converged nor blown up
        if active.size == 0:
            break
    return x, converged


def continuation_batch(
    system: MNASystem,
    b: np.ndarray,
    x0: np.ndarray,
    options: NewtonOptions | None = None,
    g_extra: np.ndarray | None = None,
    i_extra: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched gmin-stepping continuation (all points per ladder rung).

    Starts from a heavily damped system (a large gmin to ground pulls
    every node toward a solvable state) and relaxes gmin toward the
    floor, reusing each rung's solution as the next initial guess.  A
    point that fails at one gmin keeps its previous solution as the
    starting guess for the next rung, and counts as converged iff its
    final rung succeeded.
    """
    opts = options or NewtonOptions()
    x = x0.copy()
    converged = np.ones(x.shape[0], dtype=bool)
    for gmin in opts.gmin_steps:
        x_new, ok = newton_batch(
            system, x, b, options=opts, gmin=gmin,
            g_extra=g_extra, i_extra=i_extra,
        )
        x = np.where(ok[:, None], x_new, x)
        converged = ok
    return x, converged


# ---------------------------------------------------------------------------
# DC sweep entry point
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DCSweepResult:
    """Stacked DC solutions over B bias points.

    Attributes:
        bias_points: The bias points, in solve order.
        x: Solution stack, shape ``(B, size)``.
        converged: Per-point convergence flags, shape ``(B,)``.
        node_index: Node name -> column in ``x``.
        n_nodes: Number of node unknowns (source currents follow).
        vsource_names: Source names for the branch-current columns.
    """

    bias_points: tuple[BiasPoint, ...]
    x: np.ndarray
    converged: np.ndarray
    node_index: dict[str, int]
    n_nodes: int
    vsource_names: list[str]

    def __len__(self) -> int:
        return self.x.shape[0]

    def voltages(self, node: str) -> np.ndarray:
        """Voltage of ``node`` at every bias point, shape ``(B,)``."""
        if Circuit.is_ground(node):
            return np.zeros(len(self))
        return self.x[:, self.node_index[node]]

    def source_currents(self, source_name: str) -> np.ndarray:
        """Branch current of one source at every point (SPICE sign)."""
        k = self.vsource_names.index(source_name)
        return self.x[:, self.n_nodes + k]

    def supply_currents(self, source_name: str = "vdd") -> np.ndarray:
        """|branch current| — the IDDQ observable, shape ``(B,)``."""
        return np.abs(self.source_currents(source_name))

    def point(self, k: int) -> OperatingPoint:
        """Materialise one bias point as an :class:`OperatingPoint`."""
        return OperatingPoint(
            voltages={
                name: float(self.x[k, col])
                for name, col in self.node_index.items()
            },
            source_currents={
                name: float(self.x[k, self.n_nodes + j])
                for j, name in enumerate(self.vsource_names)
            },
        )

    def operating_points(self) -> list[OperatingPoint]:
        return [self.point(k) for k in range(len(self))]


def solve_dc_sweep(
    circuit: Circuit,
    bias_points: Sequence[BiasPoint],
    t: float = 0.0,
    x0: np.ndarray | None = None,
    options: NewtonOptions | None = None,
    system: MNASystem | None = None,
    raise_on_failure: bool = True,
) -> DCSweepResult:
    """Solve the DC operating point at B independent bias points at once.

    Args:
        circuit: The circuit (shared topology across all points).
        bias_points: One mapping per point of voltage-source name ->
            DC level; unnamed sources keep their own waveform value at
            time ``t``.
        t: Waveform evaluation time for non-overridden sources.
        x0: Optional initial guess — ``(size,)`` broadcast to every
            point, or ``(B, size)`` per point; defaults to zeros (a
            cold start).
        options: Newton options.  Every point runs the full gmin ladder
            of ``options.gmin_steps``.
        system: Pre-built :class:`MNASystem` to amortise assembly.
        raise_on_failure: Raise :class:`ConvergenceError` naming the
            failed points (default); when False, failed points are
            flagged in :attr:`DCSweepResult.converged` and keep their
            last pre-failure iterate.  A device-free circuit is solved
            directly; if its stamp is singular, every point fails.
    """
    mna = system if system is not None else MNASystem(circuit)
    opts = options or NewtonOptions()
    n_batch = len(bias_points)
    if n_batch == 0:
        raise ValueError("need at least one bias point")
    source_row = {
        name: mna.n_nodes + k for k, name in enumerate(mna.vsource_names)
    }
    b = np.tile(mna.source_rhs(t), (n_batch, 1))
    for k, point in enumerate(bias_points):
        for name, level in point.items():
            if name not in source_row:
                raise KeyError(f"no voltage source named {name!r}")
            b[k, source_row[name]] = float(level)

    if x0 is None:
        x = np.zeros((n_batch, mna.size))
    else:
        x0 = np.asarray(x0, dtype=float)
        x = (
            np.tile(x0, (n_batch, 1)) if x0.ndim == 1 else x0.copy()
        )

    if mna.is_linear:
        # Device-free circuit: one prefactorised direct solve at the
        # gmin floor replaces the whole Newton/gmin ladder.
        gmin_floor = opts.gmin_steps[-1] if opts.gmin_steps else 0.0
        try:
            x = mna.linear_solve(b, gmin_floor)
        except ConvergenceError:  # singular stamp: every point fails
            converged = np.zeros(n_batch, dtype=bool)
        else:
            converged = np.ones(n_batch, dtype=bool)
    else:
        x, converged = continuation_batch(mna, b, x, opts)

    if raise_on_failure and not np.all(converged):
        failed = np.flatnonzero(~converged)
        raise ConvergenceError(
            f"{failed.size}/{n_batch} bias points failed to converge in "
            f"circuit {mna.circuit.title!r} (indices {failed.tolist()})"
        )
    return DCSweepResult(
        bias_points=tuple(bias_points),
        x=x,
        converged=converged,
        node_index=mna.node_index,
        n_nodes=mna.n_nodes,
        vsource_names=mna.vsource_names,
    )


# ---------------------------------------------------------------------------
# Batched transient sweep
# ---------------------------------------------------------------------------

def capacitor_companions(
    mna: MNASystem, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward-Euler capacitor companion stamp for a fixed ``dt``.

    Returns ``(g_cap, a_idx, b_idx, geq)``: the conductance stamp to add
    to the linear base, plus per-capacitor unknown indices (−1 for
    ground) and companion conductances ``C/dt``, in netlist order.
    """
    circuit = mna.circuit
    g_cap = np.zeros((mna.size, mna.size))
    n_caps = len(circuit.capacitors)
    a_idx = np.empty(n_caps, dtype=int)
    b_idx = np.empty(n_caps, dtype=int)
    geq = np.empty(n_caps)
    for k, cap in enumerate(circuit.capacitors.values()):
        a = mna._index(cap.a)
        b = mna._index(cap.b)
        a_idx[k], b_idx[k] = a, b
        geq[k] = cap.capacitance / dt
        if a >= 0:
            g_cap[a, a] += geq[k]
        if b >= 0:
            g_cap[b, b] += geq[k]
        if a >= 0 and b >= 0:
            g_cap[a, b] -= geq[k]
            g_cap[b, a] -= geq[k]
    return g_cap, a_idx, b_idx, geq


#: Per-point source override: name -> DC level or full waveform.
SourceOverride = Mapping[str, "float | Waveform"]


class _DelayWatch:
    """Per-point record of whether a sweep point's delay is fixed.

    A point is settled once its output has crossed its threshold after
    the latest crossing of its input: that is the first output crossing
    :func:`~repro.spice.measure.propagation_delay` pairs with the input
    edge.  Crossing times use the interpolation of
    :func:`~repro.spice.measure.threshold_crossings`, so the two agree
    on which crossing comes later.
    """

    def __init__(
        self, mna: MNASystem, probes: Sequence[tuple[str, str, float]]
    ) -> None:
        # (points, [input, output]) gather of each point's probe nodes.
        self.points = np.arange(len(probes))[:, None]
        self.cols = np.array([
            [mna.node_index[i], mna.node_index[o]] for i, o, _t in probes
        ])
        self.threshold = np.array([float(t) for _i, _o, t in probes])
        self.t_in = np.full(len(probes), np.nan)
        self.settled = np.zeros(len(probes), dtype=bool)

    def _crossing_times(
        self, v0: np.ndarray, v1: np.ndarray, k: np.ndarray,
        t0: float, t1: float,
    ) -> np.ndarray:
        """When the points ``k`` crossed between ``v0`` at ``t0`` and
        ``v1`` at ``t1``."""
        frac = (self.threshold[k] - v0[k]) / (v1[k] - v0[k])
        return t0 + frac * (t1 - t0)

    def settled_after(
        self, prev: np.ndarray, cur: np.ndarray, t0: float, t1: float
    ) -> bool:
        """Take the step from ``prev`` at ``t0`` to ``cur`` at ``t1``;
        True once every point is settled."""
        v0 = prev[self.points, self.cols]
        v1 = cur[self.points, self.cols]
        threshold = self.threshold[:, None]
        crossed = (v0 < threshold) != (v1 < threshold)
        if crossed.any():
            k = np.flatnonzero(crossed[:, 0])
            self.t_in[k] = self._crossing_times(v0[:, 0], v1[:, 0], k, t0, t1)
            self.settled[k] = False  # a new input edge awaits its response
            k = np.flatnonzero(crossed[:, 1])
            t = self._crossing_times(v0[:, 1], v1[:, 1], k, t0, t1)
            self.settled[k] |= t > self.t_in[k]
        return bool(self.settled.all())


def run_transient_sweep(
    circuit: Circuit,
    overrides: Sequence[SourceOverride],
    t_stop: float,
    dt: float,
    options: NewtonOptions | None = None,
    system: MNASystem | None = None,
    *,
    stop_at_delays: Sequence[tuple[str, str, float]] | None = None,
) -> list[TransientResult]:
    """Integrate B source-drive variants of one circuit in lockstep.

    Each entry of ``overrides`` describes one sweep point as a mapping
    of voltage-source name to either a DC level or a :class:`Waveform`
    substituted for that source's own drive; the circuit topology (and
    every non-overridden source) is shared.  Backward-Euler with one
    batched Newton solve per time step; a point's trajectory does not
    depend on the other points, so it equals
    :func:`repro.spice.transient.run_transient` on that variant alone.

    ``stop_at_delays`` gives one ``(input node, output node,
    threshold)`` per point, for drives with a single input edge (a
    :class:`~repro.spice.waveforms.Step`).  The sweep then ends at the
    first step by which every point's output has crossed the threshold
    after its input did.  Backward-Euler is causal, so later steps
    cannot change the :func:`~repro.spice.measure.propagation_delay`
    of any point: the delays equal those of the full window, ``inf``
    included (a point whose output never responds keeps the sweep
    running to ``t_stop``).  Early-stopped traces end early, so
    end-of-run observables such as
    :meth:`TransientResult.final_supply_current` must not be read from
    them.  A step that would fail to converge after every delay is
    fixed is never taken, so such a sweep returns instead of raising
    :class:`ConvergenceError`.

    Returns one :class:`TransientResult` per override, in order.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    if not overrides:
        raise ValueError("need at least one sweep point")
    mna = system if system is not None else MNASystem(circuit)
    opts = options or NewtonOptions()
    n_batch = len(overrides)
    source_row = {
        name: mna.n_nodes + k for k, name in enumerate(mna.vsource_names)
    }
    # Per-point overrides: the fixed levels go in with one fancy
    # assignment per step, the waveforms are evaluated one by one.
    level_points: list[int] = []
    level_rows: list[int] = []
    levels: list[float] = []
    waves: list[tuple[int, int, Waveform]] = []
    for k, point in enumerate(overrides):
        for name, drive in point.items():
            if name not in source_row:
                raise KeyError(f"no voltage source named {name!r}")
            if isinstance(drive, Waveform):
                waves.append((k, source_row[name], drive))
            else:
                level_points.append(k)
                level_rows.append(source_row[name])
                levels.append(float(drive))
    level_at = (
        np.array(level_points, dtype=int), np.array(level_rows, dtype=int)
    )
    level_values = np.array(levels)

    # Capacitor companion stamp, plus a scatter recipe for the history
    # currents in per-capacitor order: for each capacitor, subtract at
    # node a then add at node b.
    g_cap, a_idx, b_idx, geq = capacitor_companions(mna, dt)
    a_live, b_live = a_idx >= 0, b_idx >= 0
    a_cols, b_cols = np.clip(a_idx, 0, None), np.clip(b_idx, 0, None)
    hist_cols: list[int] = []
    hist_signs: list[float] = []
    hist_targets: list[int] = []
    for k in range(len(geq)):
        if a_idx[k] >= 0:
            hist_cols.append(k)
            hist_signs.append(-1.0)
            hist_targets.append(int(a_idx[k]))
        if b_idx[k] >= 0:
            hist_cols.append(k)
            hist_signs.append(1.0)
            hist_targets.append(int(b_idx[k]))
    hist_cols_arr = np.asarray(hist_cols, dtype=int)
    hist_signs_arr = np.asarray(hist_signs)
    hist_targets_arr = (
        np.arange(n_batch)[:, None] * mna.size
        + np.asarray(hist_targets, dtype=int)
    ).ravel()
    watch = None
    if stop_at_delays is not None:
        if len(stop_at_delays) != n_batch:
            raise ValueError("need one stop_at_delays entry per sweep point")
        watch = _DelayWatch(mna, stop_at_delays)

    def batch_rhs(t: float) -> np.ndarray:
        b = np.empty((n_batch, mna.size))
        b[:] = mna.source_rhs(t)
        b[level_at] = level_values
        for k, row, wave in waves:
            b[k, row] = wave(t)
        return b

    # Initial condition: batched DC continuation at t = 0 (cold start,
    # no capacitor companions).
    b0 = batch_rhs(0.0)
    x = np.zeros((n_batch, mna.size))
    if mna.is_linear:
        gmin_floor = opts.gmin_steps[-1] if opts.gmin_steps else 0.0
        x = mna.linear_solve(b0, gmin_floor)
    else:
        x, converged = continuation_batch(mna, b0, x, opts)
        if not np.all(converged):
            failed = np.flatnonzero(~converged)
            raise ConvergenceError(
                f"transient sweep DC start failed for points "
                f"{failed.tolist()} in circuit {mna.circuit.title!r}"
            )

    g_base = mna.g_linear + g_cap
    g_base_retry: np.ndarray | None = None
    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    trace = np.empty((n_batch, n_steps + 1, mna.size))
    trace[:, 0] = x

    for step in range(1, n_steps + 1):
        b = batch_rhs(times[step])
        # History currents, scattered in per-capacitor order.
        if len(geq):
            va = np.where(a_live, x[:, a_cols], 0.0)
            vb = np.where(b_live, x[:, b_cols], 0.0)
            hist = geq[None, :] * (va - vb)
            i_extra = np.bincount(
                hist_targets_arr,
                weights=(hist[:, hist_cols_arr] * hist_signs_arr).ravel(),
                minlength=n_batch * mna.size,
            ).reshape(n_batch, mna.size)
        else:
            i_extra = np.zeros((n_batch, mna.size))
        x_new, ok = newton_batch(
            mna, x, b, options=opts, i_extra=i_extra, g_base=g_base
        )
        if not np.all(ok):
            # Per-point retry with gmin support from the pre-step state:
            # transient steps occasionally straddle a steep device region.
            if g_base_retry is None:
                g_base_retry = g_base.copy()
                idx = np.arange(mna.n_nodes)
                g_base_retry[idx, idx] += 1e-9
            retry = np.flatnonzero(~ok)
            x_retry, ok_retry = newton_batch(
                mna, x[retry], b[retry], options=opts,
                i_extra=i_extra[retry], g_base=g_base_retry,
            )
            if not np.all(ok_retry):
                failed = retry[~ok_retry]
                raise ConvergenceError(
                    f"transient sweep step {step} failed for points "
                    f"{failed.tolist()} in circuit {mna.circuit.title!r}"
                )
            x_new[retry] = x_retry
        x = x_new
        trace[:, step] = x
        if watch is not None and watch.settled_after(
            trace[:, step - 1], x, times[step - 1], times[step]
        ):
            times = times[: step + 1]
            trace = trace[:, : step + 1]
            break

    results = []
    for k in range(n_batch):
        voltages = {
            name: trace[k, :, col].copy()
            for name, col in mna.node_index.items()
        }
        source_currents = {
            name: trace[k, :, mna.n_nodes + j].copy()
            for j, name in enumerate(mna.vsource_names)
        }
        results.append(
            TransientResult(
                times=times.copy(),
                voltages=voltages,
                source_currents=source_currents,
            )
        )
    return results
