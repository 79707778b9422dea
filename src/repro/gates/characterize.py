"""Gate characterisation: truth tables, delay and leakage via SPICE.

These are the measurement routines behind the paper's Fig. 5 experiments
and behind the library's own validation tests (every cell's DC truth
table must match its reference Boolean function).

All DC measurements of a bench are one vectorized multi-point Newton
solve over every input vector on one shared
:class:`~repro.spice.mna.MNASystem`, and all delay edges one lockstep
transient sweep.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.device.params import DEFAULT_PARAMS, DeviceParameters
from repro.gates.builder import Testbench, build_cell_circuit
from repro.gates.cell import Cell
from repro.spice.batched import (
    DCSweepResult,
    run_transient_sweep,
    solve_dc_sweep,
)
from repro.spice.dc import solve_dc
from repro.spice.measure import logic_level, propagation_delay
from repro.spice.mna import MNASystem
from repro.spice.transient import run_transient
from repro.spice.waveforms import Complement, DC, Step

# Delay-measurement window: input edge time, transient length, step.
_T_EDGE = 200e-12
_T_STOP = 1.4e-9
_DT = 2e-12


@dataclasses.dataclass(frozen=True)
class GateCharacterisation:
    """Summary of a gate's electrical behaviour."""

    cell_name: str
    truth_table_ok: bool
    worst_delay: float
    worst_static_leakage: float
    output_levels: dict[tuple[int, ...], float]


def all_vectors(cell: Cell) -> list[tuple[int, ...]]:
    """Every input vector of ``cell``, in binary counting order."""
    return list(itertools.product((0, 1), repeat=cell.n_inputs))


def vector_sweep(
    bench: Testbench, system: MNASystem | None = None
) -> tuple[list[tuple[int, ...]], DCSweepResult]:
    """One batched DC solve over every input vector of the bench.

    Returns ``(vectors, sweep)``; the sweep rows are aligned with the
    vector list.  This is the shared kernel behind
    :func:`dc_truth_table`, :func:`worst_static_leakage` and
    :func:`characterise` — truth table and IDDQ come out of the same
    solve.
    """
    vectors = all_vectors(bench.cell)
    sweep = solve_dc_sweep(
        bench.circuit,
        [bench.vector_bias(v) for v in vectors],
        system=system,
    )
    return vectors, sweep


def dc_truth_table(
    bench: Testbench, system: MNASystem | None = None
) -> dict[tuple[int, ...], tuple[float, int | None]]:
    """Measured (voltage, logic value) of ``out`` for every input vector,
    all vectors solved in one multi-point Newton call."""
    vectors, sweep = vector_sweep(bench, system=system)
    v_out = sweep.voltages("out")
    return {
        vector: (float(v_out[k]), logic_level(float(v_out[k]), bench.vdd))
        for k, vector in enumerate(vectors)
    }


def verify_truth_table(bench: Testbench) -> bool:
    """True when the measured DC truth table matches the reference."""
    reference = bench.cell.truth_table()
    measured = dc_truth_table(bench)
    return all(
        measured[vector][1] == expected
        for vector, expected in reference.items()
    )


def static_leakage(
    bench: Testbench,
    vector: tuple[int, ...],
    system: MNASystem | None = None,
) -> float:
    """IDDQ (supply current magnitude) for a static input vector."""
    bench.set_vector(vector)
    op = solve_dc(bench.circuit, system=system)
    return op.supply_current("vdd")


def worst_static_leakage(
    bench: Testbench, system: MNASystem | None = None
) -> tuple[float, tuple[int, ...]]:
    """Maximum IDDQ over all input vectors, with its vector."""
    vectors, sweep = vector_sweep(bench, system=system)
    iddq = sweep.supply_currents("vdd")
    worst = int(iddq.argmax())
    if iddq[worst] <= 0.0:
        return (0.0, (0,) * bench.cell.n_inputs)
    return (float(iddq[worst]), vectors[worst])


def transition_delay(
    bench: Testbench,
    input_name: str,
    other_bits: dict[str, int],
    rising: bool = True,
    t_edge: float = _T_EDGE,
    t_stop: float = _T_STOP,
    dt: float = _DT,
) -> float:
    """Propagation delay for one input edge, other inputs held static.

    Returns ``inf`` when the output never responds (stuck gate).
    """
    vdd = bench.vdd
    for name, bit in other_bits.items():
        bench.set_input(name, bit * vdd)
    v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
    bench.set_input(input_name, Step(v0, v1, t_edge, 20e-12))
    result = run_transient(bench.circuit, t_stop, dt)
    return propagation_delay(result, input_name, "out", vdd)


def _edge_overrides(
    bench: Testbench,
    transitions: list[tuple[str, dict[str, int], bool]],
    t_edge: float,
) -> list[dict[str, object]]:
    """Source drives of single-input edges, one sweep point each.

    Each ``(input, other bits, rising)`` transition becomes the
    override mapping :func:`~repro.spice.batched.run_transient_sweep`
    takes: the other inputs held at their static levels, the edge input
    stepped at ``t_edge``, complement sources tracking their inputs —
    the drive :func:`transition_delay` sets on the bench itself.
    """
    vdd = bench.vdd
    overrides = []
    for input_name, others, rising in transitions:
        v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
        point: dict[str, object] = {}

        def drive(name: str, waveform) -> None:
            point[f"vin_{name}"] = waveform
            if f"vin_{name}_n" in bench.circuit.vsources:
                point[f"vin_{name}_n"] = Complement(waveform, vdd)

        for name, bit in others.items():
            drive(name, DC(bit * vdd))
        drive(input_name, Step(v0, v1, t_edge, 20e-12))
        overrides.append(point)
    return overrides


def _delay_probes(
    bench: Testbench, transitions: list[tuple[str, dict[str, int], bool]]
) -> list[tuple[str, str, float]]:
    """``stop_at_delays`` of a transition sweep: each point's delay is
    fixed once ``out`` has crossed vdd/2 after its input edge, so the
    sweep may end there — the delays are those of the full window."""
    return [(name, "out", bench.vdd / 2.0) for name, _o, _r in transitions]


def edge_pair_delays(
    bench: Testbench, input_name: str, other_bits: dict[str, int]
) -> tuple[float, float]:
    """Delays of the rising and the falling ``input_name`` edge.

    Both edges integrate as one 2-point lockstep transient sweep; each
    equals :func:`transition_delay` at its default window for that edge
    (``inf`` when the output never responds).  The sweep stops once
    both delays are fixed (see :func:`_delay_probes`).  The bench's own
    drives are left as they are.
    """
    transitions = [
        (input_name, other_bits, True), (input_name, other_bits, False)
    ]
    rise, fall = run_transient_sweep(
        bench.circuit, _edge_overrides(bench, transitions, _T_EDGE),
        _T_STOP, _DT,
        stop_at_delays=_delay_probes(bench, transitions),
    )
    return (
        propagation_delay(rise, input_name, "out", bench.vdd),
        propagation_delay(fall, input_name, "out", bench.vdd),
    )


def _flipping_transitions(
    cell: Cell,
) -> list[tuple[str, dict[str, int], bool]]:
    """All (input, other-bits, rising) edges that flip the output."""
    reference = cell.truth_table()
    transitions = []
    for k, input_name in enumerate(cell.inputs):
        for other_vector in itertools.product(
            (0, 1), repeat=cell.n_inputs - 1
        ):
            bits = list(other_vector)
            low = tuple(bits[:k] + [0] + bits[k:])
            high = tuple(bits[:k] + [1] + bits[k:])
            if reference[low] == reference[high]:
                continue  # this edge does not flip the output
            others = {
                name: bit
                for name, bit in zip(cell.inputs, low)
                if name != input_name
            }
            for rising in (True, False):
                transitions.append((input_name, others, rising))
    return transitions


def worst_case_delay(
    bench: Testbench,
    t_edge: float = _T_EDGE,
    t_stop: float = _T_STOP,
    dt: float = _DT,
    system: MNASystem | None = None,
) -> float:
    """Worst delay over all single-input transitions that flip the output.

    Every transition integrates as one lockstep transient sweep
    (per-point source-drive overrides on a shared circuit) that stops
    once every delay is fixed.
    """
    transitions = _flipping_transitions(bench.cell)
    if not transitions:
        return 0.0
    overrides = _edge_overrides(bench, transitions, t_edge)
    results = run_transient_sweep(
        bench.circuit, overrides, t_stop, dt, system=system,
        stop_at_delays=_delay_probes(bench, transitions),
    )
    worst = 0.0
    for (input_name, _others, _rising), result in zip(transitions, results):
        worst = max(
            worst, propagation_delay(result, input_name, "out", bench.vdd)
        )
    return worst


def characterise(
    cell: Cell,
    params: DeviceParameters = DEFAULT_PARAMS,
    fanout: int = 4,
) -> GateCharacterisation:
    """Full characterisation of a library cell.

    The DC part (truth table + worst IDDQ) is one multi-point solve and
    the delay part one lockstep transient sweep, both on a single
    shared :class:`MNASystem`.
    """
    bench = build_cell_circuit(cell, fanout=fanout, params=params)
    reference = cell.truth_table()
    system = MNASystem(bench.circuit)
    vectors, sweep = vector_sweep(bench, system=system)
    v_out = sweep.voltages("out")
    measured = {
        vector: (float(v_out[k]), logic_level(float(v_out[k]), bench.vdd))
        for k, vector in enumerate(vectors)
    }
    leak = float(sweep.supply_currents("vdd").max())
    delay = worst_case_delay(bench, system=system)
    ok = all(
        measured[v][1] == expected for v, expected in reference.items()
    )
    return GateCharacterisation(
        cell_name=cell.name,
        truth_table_ok=ok,
        worst_delay=delay,
        worst_static_leakage=leak,
        output_levels={v: volts for v, (volts, _) in measured.items()},
    )
