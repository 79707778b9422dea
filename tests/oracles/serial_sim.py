"""Serial fault checks: one fault, one vector, on the dict simulator.

:func:`detects_stuck_at`, :func:`detects_polarity` and
:func:`detects_stuck_open` evaluate a single (fault, vector) pair on the
dict-based ternary simulator of :mod:`repro.logic.simulator`, close to
the definitions and slow.  They are the oracles for the batched
campaign and detection-word paths of :mod:`repro.atpg.fault_sim`:
``tests/test_compiled_engine.py``, ``tests/test_multiword_engine.py``
and ``tests/test_sequential_engine.py`` compare the two vector for
vector.

With ``unroll=``, a vector is a per-cycle input sequence run on the
time-frame expansion of :mod:`repro.logic.sequential`, and the fault is
present in every frame replica (:func:`stuck_at_serial_overrides`,
:func:`polarity_serial_overrides`).
"""

from __future__ import annotations

from typing import Mapping

from repro.faults.logic import PolarityFault, StuckAtFault, StuckOpenFault
from repro.gates.library import ALL_CELLS
from repro.logic import sequential
from repro.logic.network import Network
from repro.logic.sequential import UnrolledNetwork
from repro.logic.simulator import simulate, simulate_outputs, vectors_differ
from repro.logic.switch_level import DeviceState, evaluate
from repro.logic.values import X, Z


def stuck_at_serial_overrides(uv: UnrolledNetwork, fault) -> dict:
    """Serial-simulator overrides for a sequential stuck-at fault.

    The fault is permanent: the forced value applies in every frame
    replica (for a stem on a flop output this includes the frame-0
    pseudo input — a stuck state net powers up stuck).
    """
    if fault.is_branch:
        return {
            "pin_overrides": {
                (uv.gate_name(f, fault.gate), fault.pin): fault.value
                for f in range(uv.n_frames)
            }
        }
    return {
        "line_overrides": {
            uv.net_name(f, fault.net): fault.value
            for f in range(uv.n_frames)
        }
    }


def polarity_serial_overrides(uv: UnrolledNetwork, fault) -> dict:
    """Serial-simulator overrides for a sequential polarity fault."""
    override = fault.gate_override()
    return {
        "gate_overrides": {
            uv.gate_name(f, fault.gate): override
            for f in range(uv.n_frames)
        }
    }


def detects_stuck_at(
    network: Network,
    fault: StuckAtFault,
    vector,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> bool:
    """Serial check: does ``vector`` detect ``fault`` at the outputs?

    With ``unroll=``, ``vector`` is a per-cycle input sequence and the
    fault is present in every frame.
    """
    if unroll is None:
        sequential.require_combinational(network, "detects_stuck_at")
        good = simulate_outputs(network, vector)
        bad = simulate_outputs(network, vector, **fault.overrides())
        return vectors_differ(good, bad)
    uv = sequential.unroll_network(network, unroll)
    flat = uv.flatten_vector(vector, initial_state)
    good = simulate_outputs(uv.network, flat)
    bad = simulate_outputs(
        uv.network, flat, **stuck_at_serial_overrides(uv, fault)
    )
    return vectors_differ(good, bad)


def detects_polarity(
    network: Network,
    fault: PolarityFault,
    vector,
    iddq: bool = False,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> bool:
    """Does ``vector`` detect a polarity fault?

    Voltage mode compares primary outputs; IDDQ mode checks whether the
    vector drives the faulty gate into one of its conflict (elevated
    leakage) input combinations — with ``unroll=``, into a conflict in
    *any* frame (the defect leaks whenever activated in any cycle).
    """
    if unroll is None:
        sequential.require_combinational(network, "detects_polarity")
        if iddq:
            values = simulate(network, vector)
            gate = network.gates[fault.gate]
            local = tuple(values[n] for n in gate.inputs)
            if any(v not in (0, 1) for v in local):
                return False
            return local in fault.iddq_vectors()
        good = simulate_outputs(network, vector)
        bad = simulate_outputs(network, vector, **fault.overrides())
        return vectors_differ(good, bad)
    uv = sequential.unroll_network(network, unroll)
    flat = uv.flatten_vector(vector, initial_state)
    if iddq:
        values = simulate(uv.network, flat)
        minterms = fault.iddq_vectors()
        for gname in uv.replica_gates(fault.gate):
            gate = uv.network.gates[gname]
            local = tuple(values[n] for n in gate.inputs)
            if all(v in (0, 1) for v in local) and local in minterms:
                return True
        return False
    good = simulate_outputs(uv.network, flat)
    bad = simulate_outputs(
        uv.network, flat, **polarity_serial_overrides(uv, fault)
    )
    return vectors_differ(good, bad)


def detects_stuck_open(
    network: Network,
    fault: StuckOpenFault,
    init_vector,
    test_vector,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> bool:
    """Two-pattern stuck-open detection.

    The faulty gate's output under the test pattern floats (retaining
    the init-pattern value) whenever the broken transistor was the only
    conducting path; the retained value then propagates like any logic
    difference.

    With ``unroll=``, both patterns are per-cycle sequences and every
    frame replica of the gate carries the break; each replica's
    retained/floating value is derived from the fault-free init/test
    frames (the same first-order approximation as the batched engines,
    so all three paths agree bit for bit).
    """
    if unroll is None:
        sequential.require_combinational(network, "detects_stuck_open")
        cell = ALL_CELLS[fault.gtype]

        # First pattern: the broken gate still drives (possibly through
        # the healthy partner network); compute its local output.
        def faulty_gate_override(previous: dict):
            def override(gate, pins) -> int:
                key = tuple(pins)
                if any(p not in (0, 1) for p in key):
                    return X
                result = evaluate(
                    cell,
                    key,
                    {fault.transistor: DeviceState.STUCK_OPEN},
                    previous_output=previous.get("value", X),
                )
                out = result.output
                if out == Z:
                    out = previous.get("value", X)
                previous["value"] = out
                return out

            return override

        state: dict = {}
        override = faulty_gate_override(state)
        simulate(
            network, init_vector, gate_overrides={fault.gate: override}
        )
        bad = simulate_outputs(
            network, test_vector, gate_overrides={fault.gate: override}
        )
        good = simulate_outputs(network, test_vector)
        return vectors_differ(good, bad)

    uv = sequential.unroll_network(network, unroll)
    flat_init = uv.flatten_vector(init_vector, initial_state)
    flat_test = uv.flatten_vector(test_vector, initial_state)
    init_values = simulate(uv.network, flat_init)
    test_values = simulate(uv.network, flat_test)
    table = fault.broken_table()
    line_overrides: dict[str, int] = {}
    for gname in uv.replica_gates(fault.gate):
        gate = uv.network.gates[gname]
        init_pins = tuple(init_values[n] for n in gate.inputs)
        test_pins = tuple(test_values[n] for n in gate.inputs)
        if all(p in (0, 1) for p in init_pins):
            retained = table[init_pins]
            if retained == Z:
                retained = X  # floats with no earlier pattern: unknown
        else:
            retained = X
        if all(p in (0, 1) for p in test_pins):
            forced = table[test_pins]
            if forced == Z:
                forced = retained
        else:
            forced = X
        line_overrides[gate.output] = forced
    good = simulate_outputs(uv.network, flat_test)
    bad = simulate_outputs(
        uv.network, flat_test, line_overrides=line_overrides
    )
    return vectors_differ(good, bad)
