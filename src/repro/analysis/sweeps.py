"""Vcut sweeps: leakage/delay of gates with a floating polarity gate.

This is the engine behind Fig. 5: for a chosen transistor of a cell,
float one (or both) of its polarity-gate terminals at a swept voltage
``Vcut`` and measure, at each point,

* the worst static supply current over all input vectors (leakage),
* the propagation delay of a representative output transition,
* whether the DC truth table still holds (functionality).

The whole sweep is batched: one testbench and one
:class:`~repro.spice.mna.MNASystem` are shared across every ``Vcut``
point (the floating-node source level is just a per-point bias), the
``len(vcuts) * 2**n_inputs`` DC operating points solve as a single
vectorized multi-point Newton call, and the per-point delay transients
integrate in lockstep through one batched backward-Euler loop.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from repro.core.classify import (
    BehaviourPoint,
    SweepClassification,
    classify_sweep,
)
from repro.core.fault_models import FloatingPolarityGate
from repro.gates.builder import build_cell_circuit
from repro.gates.cell import Cell
from repro.spice.batched import run_transient_sweep, solve_dc_sweep
from repro.spice.measure import logic_level, propagation_delay
from repro.spice.mna import MNASystem
from repro.spice.waveforms import Step


@dataclasses.dataclass(frozen=True)
class VcutPoint:
    vcut: float
    delay: float
    leakage: float
    functional: bool


@dataclasses.dataclass(frozen=True)
class VcutSweep:
    """A full Vcut sweep for one (cell, transistor, terminal) case."""

    cell_name: str
    transistor: str
    terminal: str
    points: tuple[VcutPoint, ...]

    @property
    def vcuts(self) -> list[float]:
        return [p.vcut for p in self.points]

    @property
    def delays(self) -> list[float]:
        return [p.delay for p in self.points]

    @property
    def leakages(self) -> list[float]:
        return [p.leakage for p in self.points]

    def nominal(self) -> VcutPoint:
        """The point closest to the fault-free polarity bias."""
        return self.points[0]

    def delay_ratio(self) -> float:
        """Max finite delay over the nominal delay."""
        nominal = self.nominal().delay
        finite = [p.delay for p in self.points if math.isfinite(p.delay)]
        if not finite or nominal <= 0:
            return float("inf")
        return max(finite) / nominal

    def leakage_ratio(self) -> float:
        nominal = max(self.nominal().leakage, 1e-15)
        return max(p.leakage for p in self.points) / nominal

    def classification(self) -> SweepClassification:
        nominal_delay = max(self.nominal().delay, 1e-15)
        nominal_leak = max(self.nominal().leakage, 1e-15)
        points = [
            BehaviourPoint(
                functional=p.functional and math.isfinite(p.delay),
                delay_ratio=(
                    p.delay / nominal_delay
                    if math.isfinite(p.delay)
                    else float("inf")
                ),
                leak_ratio=p.leakage / nominal_leak,
            )
            for p in self.points
        ]
        return classify_sweep(self.vcuts, points)


def _default_transition(cell: Cell, transistor: str) -> tuple[str, dict, bool]:
    """Pick an output transition exercised through the target device.

    Pull-up devices are exercised by a rising output (falling input for
    inverting SP gates), pull-down/pass devices by the opposite edge.
    For the 2-input cells the first input toggles with the second held
    at the non-controlling / distinguishing value.
    """
    role = cell.transistor(transistor).role
    input_name = cell.inputs[0]
    others = {name: 0 for name in cell.inputs[1:]}
    if cell.name.startswith("NAND"):
        others = {name: 1 for name in cell.inputs[1:]}
    rising = role != "pull_up"
    if cell.category == "DP":
        rising = role in ("pull_up", "pass")
    return input_name, others, rising


def vcut_sweep(
    cell: Cell,
    transistor: str,
    terminal: str,
    vcuts: np.ndarray | list[float],
    fanout: int = 4,
    dt: float = 2.5e-12,
    t_stop: float = 1.4e-9,
) -> VcutSweep:
    """Run the Fig. 5 measurement for one transistor/terminal case.

    Args:
        cell: Cell under test (INV / NAND2 / XOR2 in the paper).
        transistor: Target transistor (t1 pull-up, t3 pull-down in the
            paper's figures).
        terminal: 'pgs', 'pgd' or 'both'.
        vcuts: Floating-node voltages to sweep.  By convention the first
            entry should be the fault-free bias (0 for pull-up SP
            devices, VDD for pull-down) so ratios are referenced to it.

    Every (Vcut, vector) DC point solves in one vectorized call and
    every delay transient in one lockstep sweep.
    """
    input_name, others, rising = _default_transition(cell, transistor)
    bench = build_cell_circuit(cell, fanout=fanout)
    FloatingPolarityGate(transistor, terminal, float(vcuts[0])).apply(bench)
    vcut_sources = sorted(
        name for name in bench.circuit.vsources if name.startswith("vcut_")
    )
    vdd = bench.vdd
    reference = cell.truth_table()
    vectors = list(itertools.product((0, 1), repeat=cell.n_inputs))
    system = MNASystem(bench.circuit)

    # Leakage + functionality: one batched solve over every
    # (Vcut, input vector) pair.
    bias_points = []
    for vcut in vcuts:
        for vector in vectors:
            point = bench.vector_bias(vector)
            point.update({name: float(vcut) for name in vcut_sources})
            bias_points.append(point)
    sweep = solve_dc_sweep(bench.circuit, bias_points, system=system)
    iddq = sweep.supply_currents("vdd").reshape(len(vcuts), len(vectors))
    v_out = sweep.voltages("out").reshape(len(vcuts), len(vectors))
    leakages = iddq.max(axis=1)
    functional = [
        all(
            logic_level(float(v_out[i, k]), vdd) == reference[vector]
            for k, vector in enumerate(vectors)
        )
        for i in range(len(vcuts))
    ]

    # Delay of the representative transition: all Vcut points integrate
    # in lockstep, differing only in the floating-node source level.
    for name, bit in others.items():
        bench.set_input(name, bit * vdd)
    v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
    bench.set_input(input_name, Step(v0, v1, 0.2e-9, 2e-11))
    overrides = [
        {name: float(vcut) for name in vcut_sources} for vcut in vcuts
    ]
    results = run_transient_sweep(
        bench.circuit, overrides, t_stop, dt, system=system
    )
    points = [
        VcutPoint(
            vcut=float(vcut),
            delay=propagation_delay(results[i], input_name, "out", vdd),
            leakage=float(leakages[i]),
            functional=bool(functional[i]),
        )
        for i, vcut in enumerate(vcuts)
    ]
    return VcutSweep(
        cell_name=cell.name,
        transistor=transistor,
        terminal=terminal,
        points=tuple(points),
    )


def pull_up_vcut_axis(vdd: float = 1.2, points: int = 8) -> np.ndarray:
    """Sweep axis for a pull-up device: nominal PG bias 0 upwards."""
    return np.linspace(0.0, vdd, points)


def pull_down_vcut_axis(vdd: float = 1.2, points: int = 8) -> np.ndarray:
    """Sweep axis for a pull-down device: nominal PG bias VDD downwards."""
    return np.linspace(vdd, 0.0, points)
