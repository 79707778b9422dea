"""Measurement utilities: crossings, propagation delay, leakage, swing.

Crossing detection is fully vectorized (one boolean diff over the whole
trace instead of a Python loop per sample), and the ``*_currents`` /
``propagation_delays`` helpers extract measurements over a whole sweep
dimension at once — reporting should not dominate a batched solver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.spice.results import TransientResult


def threshold_crossings(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float,
    direction: str = "both",
) -> list[float]:
    """Interpolated times where ``values`` crosses ``threshold``.

    Args:
        direction: 'rise', 'fall' or 'both'.
    """
    if direction not in ("rise", "fall", "both"):
        raise ValueError(f"bad direction {direction!r}")
    values = np.asarray(values)
    times = np.asarray(times)
    below = values < threshold
    k = np.flatnonzero(below[:-1] != below[1:]) + 1
    if direction == "rise":
        k = k[below[k - 1]]
    elif direction == "fall":
        k = k[~below[k - 1]]
    if k.size == 0:
        return []
    v0, v1 = values[k - 1], values[k]
    t0, t1 = times[k - 1], times[k]
    frac = (threshold - v0) / (v1 - v0)
    return [float(t) for t in t0 + frac * (t1 - t0)]


def propagation_delay(
    result: TransientResult,
    input_node: str,
    output_node: str,
    vdd: float,
    edge: str = "both",
) -> float:
    """Worst-case 50 %-to-50 % propagation delay.

    Pairs each input edge with the first subsequent output crossing and
    returns the maximum delay over the requested ``edge`` kinds ('rise'
    and 'fall' refer to the *input* edge).  Returns ``inf`` when an input
    edge never produces an output response — the transient signature of a
    stuck (non-functional) gate.
    """
    threshold = vdd / 2.0
    v_in = result.voltage(input_node)
    v_out = result.voltage(output_node)
    kinds = ("rise", "fall") if edge == "both" else (edge,)
    worst = 0.0
    for kind in kinds:
        in_edges = threshold_crossings(
            result.times, v_in, threshold, direction=kind
        )
        out_edges = threshold_crossings(result.times, v_out, threshold)
        for t_in in in_edges:
            later = [t for t in out_edges if t > t_in]
            if not later:
                return float("inf")
            worst = max(worst, later[0] - t_in)
    return worst


def output_swing(result: TransientResult, node: str) -> tuple[float, float]:
    """(min, max) voltage reached at ``node`` over the run."""
    v = result.voltage(node)
    return float(np.min(v)), float(np.max(v))


def settles_to(
    result: TransientResult,
    node: str,
    level: float,
    tolerance: float,
    tail_fraction: float = 0.05,
) -> bool:
    """True when the node's trailing average is within ``tolerance`` of
    ``level``."""
    v = result.voltage(node)
    tail = max(1, int(len(v) * tail_fraction))
    return abs(float(np.mean(v[-tail:])) - level) <= tolerance


def final_supply_currents(
    results: Sequence[TransientResult],
    source_name: str = "vdd",
    tail_fraction: float = 0.05,
) -> np.ndarray:
    """Tail-averaged |supply current| of every sweep point at once.

    Vectorized over the sweep dimension: the (lockstep) traces stack
    into one ``(B, n)`` array and the tail mean reduces along the time
    axis in a single call — the batched counterpart of calling
    :meth:`TransientResult.final_supply_current` per point.
    """
    stacked = np.abs(
        np.stack([r.source_currents[source_name] for r in results])
    )
    tail = max(1, int(stacked.shape[1] * tail_fraction))
    return np.mean(stacked[:, -tail:], axis=1)


def propagation_delays(
    results: Sequence[TransientResult],
    input_node: str,
    output_node: str,
    vdd: float,
    edge: str = "both",
) -> np.ndarray:
    """Worst-case propagation delay of every sweep point, as an array."""
    return np.asarray([
        propagation_delay(r, input_node, output_node, vdd, edge=edge)
        for r in results
    ])


def logic_level(
    voltage: float, vdd: float, low_fraction: float = 0.35,
    high_fraction: float = 0.65,
) -> int | None:
    """Interpret a node voltage as a logic value.

    Returns 0/1, or ``None`` in the indeterminate band — which a tester
    flags as a failing output.
    """
    if voltage <= vdd * low_fraction:
        return 0
    if voltage >= vdd * high_fraction:
        return 1
    return None
