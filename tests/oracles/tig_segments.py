"""Per-segment TIG-SiNWFET evaluation: the oracle for the fused kernel.

This is the compact model as it was evaluated before
:meth:`repro.device.tig_model.TIGSiNWFET.terminal_current_matrix` fused
the twelve gated segments into one stacked pass: each direction and
carrier branch builds its three segment activations separately, asking
the defect for every threshold shift and segment factor on every call.
The fused kernel must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.device import physics


def _gate_adjustments(model, gate: str, branch: str) -> tuple[float, float]:
    if model.defect is None:
        return 0.0, 1.0
    return (
        model.defect.vth_shift(gate, branch),
        model.defect.segment_factor(gate, branch),
    )


def _segment_activations(
    model, branch, v_cg, v_pg_inj, v_pg_exit, v_ref, gate_inj, gate_exit
):
    """(injection PG, CG, exit PG) activations of one carrier branch."""
    p = model.params
    activation = (
        physics.n_activation if branch == "n" else physics.p_activation
    )
    shift, factor = _gate_adjustments(model, gate_inj, branch)
    a_inj = factor * activation(v_pg_inj - v_ref, p.vth_pg + shift, p.ss_pg)
    shift, factor = _gate_adjustments(model, "cg", branch)
    a_cg = factor * activation(v_cg - v_ref, p.vth_cg + shift, p.ss_cg)
    shift, factor = _gate_adjustments(model, gate_exit, branch)
    a_exit = activation(v_pg_exit - v_ref, p.vth_pg + shift, p.ss_pg)
    a_exit = factor * np.power(
        np.maximum(a_exit, physics.ACTIVATION_FLOOR), p.drain_weight
    )
    return a_inj, a_cg, a_exit


def _directional_current(
    model, v_cg, v_pg_low, v_pg_high, v_low, v_high, gate_low, gate_high
):
    """Channel current magnitude for carriers flowing low -> high."""
    p = model.params
    vds_eff = physics.smooth_positive(v_high - v_low)
    n_segments = _segment_activations(
        model, "n", v_cg, v_pg_low, v_pg_high, v_low, gate_low, gate_high
    )
    p_segments = _segment_activations(
        model, "p", v_cg, v_pg_high, v_pg_low, v_high, gate_high, gate_low
    )
    g_n = np.asarray(physics.series_activation(*n_segments))
    g_p = np.asarray(physics.series_activation(*p_segments))
    sat = physics.saturation_factor(vds_eff, p.v_dsat, p.v_early)
    current = model._i0 * (g_n + p.p_branch_factor * g_p) * sat
    if model.defect is not None:
        current = model.defect.scale_channel_current(model, current)
    return current


def drain_current(model, v_cg, v_pgs, v_pgd, v_d, v_s):
    """Per-segment :meth:`TIGSiNWFET.drain_current`."""
    v_cg = np.asarray(v_cg, dtype=float)
    v_pgs = np.asarray(v_pgs, dtype=float)
    v_pgd = np.asarray(v_pgd, dtype=float)
    v_d = np.asarray(v_d, dtype=float)
    v_s = np.asarray(v_s, dtype=float)
    forward = _directional_current(
        model, v_cg, v_pgs, v_pgd, v_s, v_d, "pgs", "pgd"
    )
    reverse = _directional_current(
        model, v_cg, v_pgd, v_pgs, v_d, v_s, "pgd", "pgs"
    )
    floor = model.params.i_floor * np.tanh((v_d - v_s) / 0.05)
    current = forward - reverse + floor
    if model.defect is not None:
        current = current + model.defect.extra_drain_current(
            model, v_cg, v_pgs, v_pgd, v_d, v_s
        )
    if current.shape == ():
        return float(current)
    return current


def terminal_current_matrix(model, volts):
    """Per-segment :meth:`TIGSiNWFET.terminal_current_matrix`."""
    volts = np.asarray(volts, dtype=float)
    v_d, v_cg, v_pgs, v_pgd, v_s = (volts[..., k] for k in range(5))
    i_d = np.asarray(drain_current(model, v_cg, v_pgs, v_pgd, v_d, v_s))
    out = np.zeros_like(volts)
    out[..., 0] = i_d
    out[..., 4] = -i_d
    if model.defect is not None:
        spec = model.defect.shunt_spec()
        if spec is not None:
            gate, resistance, alpha = spec
            gate_col = {"cg": 1, "pgs": 2, "pgd": 3}[gate]
            v_channel = alpha * v_d + (1.0 - alpha) * v_s
            i_shunt = (volts[..., gate_col] - v_channel) / resistance
            out[..., gate_col] -= i_shunt
            out[..., 4] += i_shunt
    return out
