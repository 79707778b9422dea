"""Time-frame expansion: sequential networks on combinational engines.

A sequential :class:`~repro.logic.network.Network` (gates + single-clock
D flip-flops) is *unrolled* over ``n_frames`` clock cycles into a plain
combinational network the legacy, compiled and multi-word engines
simulate unchanged:

* every net ``n`` of frame ``f`` becomes ``t{f}.n``;
* frame-0 flop outputs become pseudo primary inputs (the initial state —
  unknown ``X`` unless an ``initial_state`` assignment is supplied);
* for ``f > 0`` each flop is stitched as a ``BUF`` from the previous
  frame's data net (``t{f}.q = BUF(t{f-1}.d)``), so every frame keeps a
  distinct, faultable state net;
* every frame's primary outputs are observed (``t{f}.po``), giving
  per-frame detection semantics for free — a fault is detected iff any
  frame's outputs differ.

One *logical* fault on the sequential netlist maps to a replicated,
permanently-present fault in every frame: the lowering helpers here
(:func:`stuck_at_unrolled_injection` & friends) produce a single
:class:`~repro.logic.compiled.FaultInjection` covering all replicas, so
the fault-count and fault names stay those of the sequential netlist.

A *sequential test* is a sequence of per-cycle input assignments
(``cycles[k]`` drives frame ``k``); :meth:`UnrolledNetwork.flatten_vector`
turns one into a flat assignment over the unrolled inputs.  The
cycle-accurate reference :func:`simulate_sequence` evaluates the
sequential network frame by frame with explicit state feedback — the
unrolled good simulation must agree with it net for net, which is what
``tests/test_sequential_engine.py`` checks.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.logic.network import Network, SequentialNetworkError
from repro.logic.simulator import simulate
from repro.logic.values import X


def frame_name(frame: int, name: str) -> str:
    """Unrolled name of net/gate ``name`` in frame ``frame``."""
    return f"t{frame}.{name}"


@dataclasses.dataclass(frozen=True)
class UnrolledNetwork:
    """A sequential network expanded over ``n_frames`` clock cycles.

    Attributes:
        source: The sequential network this was unrolled from.
        network: The combinational unrolled form (what the engines run).
        n_frames: Number of clock cycles expanded.
    """

    source: Network
    network: Network
    n_frames: int

    # -- naming ---------------------------------------------------------
    def net_name(self, frame: int, net: str) -> str:
        return frame_name(frame, net)

    def gate_name(self, frame: int, gate: str) -> str:
        return frame_name(frame, gate)

    def replica_nets(self, net: str) -> list[str]:
        """All per-frame replicas of a source net."""
        return [frame_name(f, net) for f in range(self.n_frames)]

    def replica_gates(self, gate: str) -> list[str]:
        """All per-frame replicas of a source gate."""
        return [frame_name(f, gate) for f in range(self.n_frames)]

    @property
    def state_inputs(self) -> list[str]:
        """The frame-0 pseudo primary inputs (one per flop)."""
        return [frame_name(0, q) for q in self.source.flops]

    # -- vectors --------------------------------------------------------
    def flatten_vector(
        self,
        cycles: Sequence[Mapping[str, int]],
        initial_state: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Flatten a per-cycle input sequence onto the unrolled inputs.

        ``cycles[k]`` assigns the sequential primary inputs in cycle
        ``k``; at most :attr:`n_frames` cycles are meaningful (extra
        cycles raise).  Missing inputs — including missing trailing
        cycles — default to X through the engines' usual missing-input
        convention.  ``initial_state`` optionally pins frame-0 flop
        outputs (e.g. a known reset state); unassigned state is X.
        """
        if len(cycles) > self.n_frames:
            raise ValueError(
                f"{len(cycles)} cycles but only {self.n_frames} frames; "
                f"unroll deeper or truncate the sequence"
            )
        flat: dict[str, int] = {}
        if initial_state:
            for q, value in initial_state.items():
                if q not in self.source.flops:
                    raise ValueError(f"initial state on non-flop net {q!r}")
                flat[frame_name(0, q)] = value
        for f, cycle in enumerate(cycles):
            for net, value in cycle.items():
                flat[frame_name(f, net)] = value
        return flat

    def flatten_vectors(
        self,
        sequences: Sequence[Sequence[Mapping[str, int]]],
        initial_state: Mapping[str, int] | None = None,
    ) -> list[dict[str, int]]:
        return [self.flatten_vector(s, initial_state) for s in sequences]


#: Unrolled forms are memoized on (structural fingerprint, n_frames) so
#: repeated entry-point calls (detection words, campaigns, oracles) on
#: the same netlist share one unrolled network and thus one compiled
#: form.  Small cap: unrolled networks are n_frames times the source.
_UNROLL_MEMO: dict[tuple, UnrolledNetwork] = {}
_UNROLL_MEMO_MAX = 32


def unroll_network(network: Network, n_frames: int) -> UnrolledNetwork:
    """Time-frame expand ``network`` over ``n_frames`` clock cycles.

    Works for any network; a combinational one simply yields
    ``n_frames`` independent copies.  The result is memoized on the
    source's structural fingerprint.
    """
    from repro.logic.compiled import structural_fingerprint

    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    key = (structural_fingerprint(network), n_frames)
    cached = _UNROLL_MEMO.get(key)
    if cached is not None:
        return cached

    unrolled = Network(f"{network.name}@x{n_frames}")
    # Frame-0 state first, then frame-major primary inputs: the PI order
    # defines the packed-vector layout shared by all engines.
    for q in network.flops:
        unrolled.add_input(frame_name(0, q))
    for f in range(n_frames):
        for pi in network.primary_inputs:
            unrolled.add_input(frame_name(f, pi))
    order = network.levelized()
    for f in range(n_frames):
        if f > 0:
            for q, d in network.flops.items():
                unrolled.add_gate(
                    frame_name(f, f"ff.{q}"), "BUF",
                    [frame_name(f - 1, d)], frame_name(f, q),
                )
        for gate in order:
            unrolled.add_gate(
                frame_name(f, gate.name), gate.gtype,
                [frame_name(f, n) for n in gate.inputs],
                frame_name(f, gate.output),
            )
    for f in range(n_frames):
        for po in network.primary_outputs:
            unrolled.add_output(frame_name(f, po))
    unrolled.validate()

    result = UnrolledNetwork(
        source=network, network=unrolled, n_frames=n_frames
    )
    while len(_UNROLL_MEMO) >= _UNROLL_MEMO_MAX:
        del _UNROLL_MEMO[next(iter(_UNROLL_MEMO))]
    _UNROLL_MEMO[key] = result
    return result


# ---------------------------------------------------------------------------
# Cycle-accurate reference simulation
# ---------------------------------------------------------------------------

_FRAME_MEMO: dict[tuple, Network] = {}
_FRAME_MEMO_MAX = 32


def _frame_view(network: Network) -> Network:
    """One combinational frame: flop outputs exposed as extra inputs."""
    from repro.logic.compiled import structural_fingerprint

    key = structural_fingerprint(network)
    cached = _FRAME_MEMO.get(key)
    if cached is not None:
        return cached
    frame = Network(f"{network.name}@frame")
    for pi in network.primary_inputs:
        frame.add_input(pi)
    for q in network.flops:
        frame.add_input(q)
    for gate in network.levelized():
        frame.add_gate(gate.name, gate.gtype, gate.inputs, gate.output)
    for po in network.primary_outputs:
        frame.add_output(po)
    frame.validate()
    while len(_FRAME_MEMO) >= _FRAME_MEMO_MAX:
        del _FRAME_MEMO[next(iter(_FRAME_MEMO))]
    _FRAME_MEMO[key] = frame
    return frame


def simulate_sequence(
    network: Network,
    cycles: Sequence[Mapping[str, int]],
    initial_state: Mapping[str, int] | None = None,
) -> list[tuple[int, ...]]:
    """Cycle-accurate ternary simulation of a sequential network.

    Evaluates one combinational frame per cycle with explicit state
    feedback (flop outputs latch their data nets at each boundary) and
    returns the primary-output tuple of every cycle.  This is the
    ground-truth reference the time-frame expansion is validated
    against; it is also the convenient way to just *run* a sequential
    netlist without thinking about unrolling.
    """
    frame = _frame_view(network)
    state = {
        q: (initial_state or {}).get(q, X) for q in network.flops
    }
    outputs: list[tuple[int, ...]] = []
    for cycle in cycles:
        values = simulate(frame, {**dict(cycle), **state})
        outputs.append(
            tuple(values[po] for po in network.primary_outputs)
        )
        state = {q: values[d] for q, d in network.flops.items()}
    return outputs


# ---------------------------------------------------------------------------
# Fault lowering: one logical fault -> every-frame replicas
# ---------------------------------------------------------------------------

def _require_frames(uv: UnrolledNetwork) -> range:
    return range(uv.n_frames)


def stuck_at_unrolled_injection(uv: UnrolledNetwork, cnet, fault):
    """Index-level injection covering every frame replica of the fault."""
    from repro.logic.compiled import FaultInjection

    if fault.is_branch:
        return FaultInjection(pins={
            (cnet.gate_op[uv.gate_name(f, fault.gate)], fault.pin):
                fault.value
            for f in _require_frames(uv)
        })
    return FaultInjection(lines={
        cnet.net_index[uv.net_name(f, fault.net)]: fault.value
        for f in _require_frames(uv)
    })


def polarity_unrolled_injection(uv: UnrolledNetwork, cnet, fault):
    """Faulty-table injection on every frame replica of the gate."""
    from repro.logic.compiled import FaultInjection

    table = fault.faulty_table()
    return FaultInjection(tables={
        cnet.gate_op[uv.gate_name(f, fault.gate)]: table
        for f in _require_frames(uv)
    })


def require_combinational(network: Network, what: str) -> None:
    """Raise a helpful error when a sequential network lacks ``unroll=``."""
    if network.flops:
        raise SequentialNetworkError(
            f"{network.name!r} is sequential ({len(network.flops)} "
            f"flops); pass unroll=<n_frames> to {what} (vectors then "
            f"become per-cycle input sequences)"
        )
