"""Logic substrate: multi-valued values, switch-level simulation of CP
transistor networks, gate-level networks and simulation, netlist I/O.

Two gate-level simulation paths are provided:

* the serial ternary simulator (:func:`simulate` /
  :func:`simulate_outputs`) — one vector per call, overrides as
  callables and dicts; the reference semantics, and
* the compiled bit-parallel engine (:mod:`repro.logic.compiled`) —
  the whole vector batch per pass, faults as index-level
  :class:`~repro.logic.compiled.FaultInjection` overrides.  The
  override contract shared by both paths is documented there.

Usage — simulate a generated benchmark both ways::

    from repro.circuits import ripple_carry_adder
    from repro.logic import simulate_outputs
    from repro.logic.compiled import pack_vectors

    network = ripple_carry_adder(4)
    vector = {n: 0 for n in network.primary_inputs} | {"a0": 1}
    print(simulate_outputs(network, vector))    # serial, one vector

    cnet = network.compiled()                   # flattened, cached
    state = cnet.simulate(pack_vectors(cnet, [vector]))
    print(cnet.outputs_unpacked(state, 0))      # same values
"""

from repro.logic.bench_format import (
    UnsupportedBenchFeature,
    parse_bench,
    write_bench,
)
from repro.logic.compiled import (
    CompiledNetwork,
    FaultInjection,
    NetworkStructures,
    PackedVectors,
    compile_network,
    invalidate_network,
    pack_vectors,
    structural_fingerprint,
)
from repro.logic.network import (
    DP_GATE_TYPES,
    GATE_ARITY,
    Gate,
    Network,
    SequentialNetworkError,
    SP_GATE_TYPES,
)
from repro.logic.sequential import (
    UnrolledNetwork,
    simulate_sequence,
    unroll_network,
)
from repro.logic.simulator import (
    exhaustive_truth_table,
    output_vector,
    simulate,
    simulate_outputs,
    vectors_differ,
)
from repro.logic.switch_level import (
    DeviceState,
    FaultImage,
    SwitchLevelResult,
    evaluate,
    fault_image,
    fault_free_is_consistent,
    truth_table_switch_level,
)
from repro.logic.values import (
    D,
    DBAR,
    DValue,
    ONE,
    X,
    Z,
    ZERO,
    d_and,
    d_not,
    d_or,
    d_xor,
    from_ternary,
    t_and,
    t_not,
    t_or,
    t_xor,
    ternary_name,
)

__all__ = [
    "CompiledNetwork",
    "D",
    "DBAR",
    "DP_GATE_TYPES",
    "DValue",
    "DeviceState",
    "FaultImage",
    "FaultInjection",
    "GATE_ARITY",
    "Gate",
    "Network",
    "NetworkStructures",
    "PackedVectors",
    "compile_network",
    "invalidate_network",
    "pack_vectors",
    "structural_fingerprint",
    "ONE",
    "SP_GATE_TYPES",
    "SequentialNetworkError",
    "SwitchLevelResult",
    "UnrolledNetwork",
    "X",
    "Z",
    "ZERO",
    "d_and",
    "d_not",
    "d_or",
    "d_xor",
    "evaluate",
    "exhaustive_truth_table",
    "fault_free_is_consistent",
    "fault_image",
    "from_ternary",
    "output_vector",
    "UnsupportedBenchFeature",
    "parse_bench",
    "simulate",
    "simulate_outputs",
    "simulate_sequence",
    "t_and",
    "t_not",
    "t_or",
    "t_xor",
    "ternary_name",
    "truth_table_switch_level",
    "unroll_network",
    "vectors_differ",
    "write_bench",
]
