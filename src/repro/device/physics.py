"""Smooth activation and combination primitives for the compact model.

The TIG-SiNWFET compact model describes the channel as three gated barrier
segments in series (source Schottky junction under PGS, thermionic channel
barrier under CG, drain Schottky junction under PGD).  Each segment
contributes a dimensionless *activation* in (0, 1]: an exponential
(subthreshold-like) turn-on below its threshold that saturates to one above
it.  These helpers are shared by the analytic model, the defect models and
the TCAD-lite calibration, and are written to be smooth everywhere so that
Newton-based circuit solvers converge reliably.
"""

from __future__ import annotations

import math

import numpy as np

LN10 = math.log(10.0)

#: Lower clip for activations; keeps series combination finite without
#: affecting any observable quantity (device leakage floors are many orders
#: of magnitude above ``i_on * ACTIVATION_FLOOR``).
ACTIVATION_FLOOR = 1e-30


def expit(
    x: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray | float:
    """Return the logistic sigmoid ``1 / (1 + exp(-x))`` elementwise.

    ``exp(-x)`` overflows to ``inf`` below ``x ~ -709``, which gives an
    exact 0 without a warning.  ``out`` may be ``x`` itself, which the
    compact-model kernel uses to evaluate in place.  Without ``out``, a
    0-d input gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    scalar = out is None and x.ndim == 0
    if out is None:
        out = np.empty_like(x)
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out[()] if scalar else out


def logistic10(x: np.ndarray | float) -> np.ndarray | float:
    """Return ``1 / (1 + 10**-x)`` computed without overflow.

    This is a logistic function expressed in decades: for ``x << 0`` it
    behaves as ``10**x`` (one decade of attenuation per unit), and it
    saturates to 1 for ``x >> 0``.
    """
    return expit(np.asarray(x, dtype=float) * LN10)


def n_activation(
    v_gate_rel: np.ndarray | float, vth: float, ss: float
) -> np.ndarray | float:
    """Electron-branch activation of a gated barrier segment.

    Args:
        v_gate_rel: Gate voltage relative to the carrier-injection terminal.
        vth: Segment threshold voltage.
        ss: Subthreshold slope in volts per decade.

    Returns:
        Activation in (0, 1]: ``~10**((V - vth)/ss)`` below threshold,
        saturating to one above it.
    """
    return logistic10((np.asarray(v_gate_rel, dtype=float) - vth) / ss)


def p_activation(
    v_gate_rel: np.ndarray | float, vth: float, ss: float
) -> np.ndarray | float:
    """Hole-branch activation: the mirror image of :func:`n_activation`.

    Conduction requires the gate to sit at least ``vth`` *below* the
    injection terminal.
    """
    return logistic10((-np.asarray(v_gate_rel, dtype=float) - vth) / ss)


def series_activation(*segments: np.ndarray | float) -> np.ndarray | float:
    """Combine segment activations in series.

    Uses the harmonic mean scaled so that all-ones maps to one: the
    composite is limited by the most opaque barrier, reproducing the
    conduction condition of the TIG device (any blocking gate switches the
    branch off) while remaining smooth.
    """
    if not segments:
        raise ValueError("series_activation needs at least one segment")
    arrays = [
        np.maximum(np.asarray(s, dtype=float), ACTIVATION_FLOOR)
        for s in segments
    ]
    inverse_sum = sum(1.0 / a for a in arrays)
    return len(arrays) / inverse_sum


def smooth_positive(x: np.ndarray | float, eps: float = 1e-4) -> np.ndarray | float:
    """Smooth approximation of ``max(x, 0)``.

    Used to split the drain-source voltage into forward/reverse parts
    without introducing a derivative kink at zero (which would destabilise
    Newton iterations around bidirectional pass-transistor operation).
    """
    x = np.asarray(x, dtype=float)
    return 0.5 * (x + np.sqrt(x * x + eps * eps))


def saturation_factor(
    vds_eff: np.ndarray | float, v_dsat: float, v_early: float
) -> np.ndarray | float:
    """Drain-voltage dependence: smooth linear-to-saturation transition.

    ``tanh`` gives the triode-to-saturation knee at ``v_dsat``; the Early
    term models channel-length modulation.
    """
    vds_eff = np.asarray(vds_eff, dtype=float)
    return np.tanh(vds_eff / v_dsat) * (1.0 + vds_eff / v_early)


def decades(ratio: float) -> float:
    """Return ``log10(ratio)`` guarding against non-positive input."""
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return math.log10(ratio)
