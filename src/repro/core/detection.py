"""Detectability measurement of injected faults (SPICE domain).

For a cell testbench with an injected fault, measure the three
observables the paper uses:

* **output voltage** — DC truth-table comparison (a voltage tester),
* **IDDQ** — static supply current ratio vs fault-free (Section V-B's
  ">x10^6" criterion),
* **delay** — transient propagation-delay ratio (delay-fault testing).

The static truth-table/IDDQ observations run on the batched analog
engine (one vectorized multi-point Newton solve over the whole input
cube per testbench), and the delay comparison integrates the rising and
falling edge as one 2-point transient sweep.  The fault-free side of
every comparison depends only on ``(cell, fanout)`` and is memoised by
:func:`fault_free_reference`.  :func:`screen_cell_faults` drives the
measurement over a cell's circuit-fault universe from
:mod:`repro.faults` — the SPICE-side screen of the unified fault API.
A bias point that does not converge is reported as an unresolved
vector, not raised.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

from repro.core.fault_models import CircuitFault, InterconnectBridgeFault
from repro.gates.builder import Testbench, build_cell_circuit
from repro.gates.cell import Cell
from repro.gates.characterize import edge_pair_delays
from repro.spice.batched import solve_dc_sweep
from repro.spice.measure import logic_level

#: Leakage ratio above which a fault counts as IDDQ-detectable.
IDDQ_DETECT_RATIO = 10.0

#: Delay ratio above which a fault counts as delay-testable.
DELAY_DETECT_RATIO = 1.3


@dataclasses.dataclass(frozen=True)
class VectorObservation:
    """Measurements for one static input vector.

    ``converged`` is False when the DC solve of this bias point did not
    converge; ``v_out``/``iddq`` then hold the last Newton iterate and
    must not be read as a measurement.
    """

    vector: tuple[int, ...]
    v_out: float
    logic_out: int | None
    iddq: float
    converged: bool = True


@dataclasses.dataclass(frozen=True)
class DetectionReport:
    """Detectability summary of one fault on one cell.

    Attributes:
        fault_description: From :meth:`CircuitFault.describe`.
        output_vectors: Vectors whose logic output differs from fault-free
            (wrong or indeterminate level).
        iddq_vectors: Vectors whose IDDQ exceeds the fault-free value by
            :data:`IDDQ_DETECT_RATIO`.
        worst_iddq_ratio: max faulty/fault-free IDDQ over vectors.
        delay_ratio: worst faulty/fault-free delay (nan when not
            measured; inf when the faulty gate never switches).
        observations: Per-vector raw measurements.
        unresolved_vectors: Vectors whose faulty (or fault-free) DC
            solve did not converge.  They enter neither the output nor
            the IDDQ verdict, nor ``worst_iddq_ratio``.
    """

    fault_description: str
    output_vectors: tuple[tuple[int, ...], ...]
    iddq_vectors: tuple[tuple[int, ...], ...]
    worst_iddq_ratio: float
    delay_ratio: float
    observations: tuple[VectorObservation, ...]
    unresolved_vectors: tuple[tuple[int, ...], ...] = ()

    @property
    def output_detectable(self) -> bool:
        return bool(self.output_vectors)

    @property
    def iddq_detectable(self) -> bool:
        return bool(self.iddq_vectors)

    @property
    def delay_detectable(self) -> bool:
        return self.delay_ratio > DELAY_DETECT_RATIO

    @property
    def detected(self) -> bool:
        return (
            self.output_detectable
            or self.iddq_detectable
            or self.delay_detectable
        )


def _static_observations(bench: Testbench) -> tuple[VectorObservation, ...]:
    """Truth table + IDDQ over the full input cube, as one batched
    multi-point DC solve (each point identical to its own
    :func:`repro.spice.dc.solve_dc`).  Points that fail to converge
    come back with ``converged=False``."""
    vectors = list(itertools.product((0, 1), repeat=bench.cell.n_inputs))
    sweep = solve_dc_sweep(
        bench.circuit,
        [bench.vector_bias(v) for v in vectors],
        raise_on_failure=False,
    )
    v_out = sweep.voltages("out")
    iddq = sweep.supply_currents("vdd")
    return tuple(
        VectorObservation(
            vector=vector,
            v_out=float(v_out[k]),
            logic_out=logic_level(float(v_out[k]), bench.vdd),
            iddq=float(iddq[k]),
            converged=bool(sweep.converged[k]),
        )
        for k, vector in enumerate(vectors)
    )


@dataclasses.dataclass(frozen=True)
class FaultFreeReference:
    """Fault-free measurements of one ``(cell, fanout)`` testbench.

    Holds results only, never a :class:`Testbench`: the static
    observations, and the rise/fall delays of each ``(delay input,
    other bits)`` pair, measured on a private bench the first time they
    are asked for.  The fields are frozen, but ``_delays`` is a mutable
    dict that :meth:`edge_delays` fills lazily: a cache owned by the
    :func:`fault_free_reference` memo, to be read only through
    :meth:`edge_delays`.  It holds at most one entry per delay edge of
    the cell, and goes with the reference on ``cache_clear()``.
    """

    cell: Cell
    fanout: int
    observations: tuple[VectorObservation, ...]
    _delays: dict = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    def edge_delays(
        self, input_name: str, other_bits: dict[str, int]
    ) -> tuple[float, float]:
        """Fault-free ``(rising, falling)`` input-edge delays."""
        key = (input_name, tuple(sorted(other_bits.items())))
        delays = self._delays.get(key)
        if delays is None:
            bench = build_cell_circuit(self.cell, fanout=self.fanout)
            delays = edge_pair_delays(bench, input_name, other_bits)
            self._delays[key] = delays
        return delays


@functools.lru_cache(maxsize=64)
def fault_free_reference(cell: Cell, fanout: int = 4) -> FaultFreeReference:
    """Memoised fault-free reference for ``(cell, fanout)``.

    Every fault screened on the same cell and loading compares against
    the same fault-free bench, so it is solved once per process.  Call
    ``fault_free_reference.cache_clear()`` after changing device
    physics in place (as after
    :func:`~repro.device.cache.clear_model_caches`).
    """
    bench = build_cell_circuit(cell, fanout=fanout)
    return FaultFreeReference(cell, fanout, _static_observations(bench))


def characterise_fault(
    cell: Cell,
    fault: CircuitFault,
    fanout: int = 4,
    measure_delay: bool = True,
    delay_input: str | None = None,
    delay_other_bits: dict[str, int] | None = None,
) -> DetectionReport:
    """Inject ``fault`` into a fresh testbench and measure detectability.

    The fault-free side comes from :func:`fault_free_reference`.

    Args:
        cell: Cell under test.
        fault: Fault to inject.
        fanout: FO-N loading.
        measure_delay: Also run the transient delay comparison (slower).
        delay_input: Input to pulse for the delay measurement (defaults
            to the first input).
        delay_other_bits: Static values of the remaining inputs during
            the delay measurement (defaults to the all-zeros side).
    """
    reference = fault_free_reference(cell, fanout)
    bad_bench = build_cell_circuit(cell, fanout=fanout)
    fault.apply(bad_bench)

    bad_obs = _static_observations(bad_bench)

    output_vectors = []
    iddq_vectors = []
    unresolved = []
    worst_ratio = 0.0
    for good, bad in zip(reference.observations, bad_obs):
        if not (good.converged and bad.converged):
            unresolved.append(good.vector)
            continue
        if bad.logic_out != good.logic_out:
            output_vectors.append(good.vector)
        ratio = bad.iddq / max(good.iddq, 1e-15)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > IDDQ_DETECT_RATIO:
            iddq_vectors.append(good.vector)

    delay_ratio = float("nan")
    if measure_delay:
        input_name = delay_input or cell.inputs[0]
        others = delay_other_bits or {
            name: 0 for name in cell.inputs if name != input_name
        }
        # Worst ratio over both edges: a weakened pull-up only shows on
        # the rising-output edge and vice versa.
        good_delays = reference.edge_delays(input_name, others)
        bad_delays = edge_pair_delays(bad_bench, input_name, others)
        for good_delay, bad_delay in zip(good_delays, bad_delays):
            if good_delay > 0:
                ratio = bad_delay / good_delay
                if not (ratio <= delay_ratio):  # NaN-safe max
                    delay_ratio = ratio

    return DetectionReport(
        fault_description=fault.describe(),
        output_vectors=tuple(output_vectors),
        iddq_vectors=tuple(iddq_vectors),
        worst_iddq_ratio=worst_ratio,
        delay_ratio=delay_ratio,
        observations=bad_obs,
        unresolved_vectors=tuple(unresolved),
    )


def _resolve_bench_nets(cell: Cell, fault: CircuitFault) -> CircuitFault:
    """Rewrite cell-template net names to testbench net names.

    :func:`~repro.gates.builder.build_cell_circuit` keeps inputs,
    complements and ``out`` unprefixed and namespaces internal nets
    under ``{cell}.``; net-addressed descriptors (interconnect bridges)
    must follow that mapping before injection.
    """
    if not isinstance(fault, InterconnectBridgeFault):
        return fault
    public = set(cell.inputs) | set(cell.complement_nets()) | {"out"}

    def resolve(net: str) -> str:
        return net if net in public else f"{cell.name.lower()}.{net}"

    return dataclasses.replace(
        fault, net_a=resolve(fault.net_a), net_b=resolve(fault.net_b)
    )


def screen_cell_faults(
    cell: Cell,
    faults: list[CircuitFault] | None = None,
    fanout: int = 4,
    measure_delay: bool = False,
) -> list[DetectionReport]:
    """Batched SPICE screen of a cell's circuit-fault universe.

    ``faults`` defaults to the full lowered Table I universe of the cell
    (:func:`repro.faults.circuit_faults_for_cell`); each fault is
    injected into a fresh FO-``fanout`` testbench and measured with the
    batched truth-table/IDDQ observation (delay optional — transients
    dominate the runtime) against the memoised fault-free reference.  A
    fault whose bias points do not all converge still gets a report,
    with those vectors in ``unresolved_vectors``.  Reports come back in
    universe order, so the screen composes with the census and campaign
    tables.
    """
    if faults is None:
        from repro.faults import circuit_faults_for_cell

        faults = circuit_faults_for_cell(cell)
    return [
        characterise_fault(
            cell,
            _resolve_bench_nets(cell, fault),
            fanout=fanout,
            measure_delay=measure_delay,
        )
        for fault in faults
    ]
