"""Fault simulation campaigns on the compiled bit-parallel engines.

Two batched engines live here, validated vector for vector against
the serial one-fault, one-vector checks of the test oracles
(``tests/oracles/serial_sim.py``) in ``tests/test_compiled_engine.py``
and ``tests/test_multiword_engine.py``:

* **Single-word** — one pass over every vector on
  :class:`repro.logic.compiled.CompiledNetwork` Python-int words, with
  per-fault delta resimulation; the fastest path for small problems.
* **Multi-word 2-D batches** (:mod:`repro.logic.multiword`) — any
  vector count x whole fault batches as vectorized numpy ``uint64``
  sweeps; the scaling path for thousands-of-gate netlists.

Each fault class has one detection-words function
(:func:`stuck_at_detection_words`, :func:`polarity_detection_words`,
:func:`stuck_open_detection_words`): per fault, a word whose bit ``k``
is set iff vector ``k`` detects it.  Each campaign entry point
(:func:`parallel_stuck_at_simulation`,
:func:`parallel_polarity_simulation`,
:func:`parallel_stuck_open_simulation`) folds those words into first
detections.  Once per call, the size of the (faults x vectors) problem
and of the netlist (ops x faults) picks the multi-word engine, which
amortizes numpy dispatch, or the single-word path below that; both
give bit-identical words.  The gate-local words (IDDQ activation and
the stuck-open retained value) are computed on Python ints read from
either engine's fault-free state.  The size of the problem, not an
option, also picks the work done:

* **Word-by-word dropping.**  Stuck-at campaigns on the multi-word
  engine sweep X-free vectors one 64-vector word at a time and stop
  simulating a fault chunk's detected faults once a word detects them.
* **Single rail.**  When every primary input is 0 or 1 on every vector,
  no net is ever X, so the multi-word stuck-at sweep carries one
  uint64 rail per net instead of the (ones, zeros) pair and detects
  with ``good ^ bad``.  Vectors with X take the dual-rail sweep, which
  stays for polarity, stuck-open and IDDQ words and is the oracle for
  the single-rail one.
* **Voltage-silent polarity faults.**  A polarity fault whose
  switch-level image has no definite wrong value
  (:meth:`~repro.faults.logic.PolarityFault.output_detecting_vectors`
  is empty: every faulty-table entry is X or the good value) is never
  detected at an output, so voltage mode gives it word 0 without
  simulation.  This is exact: dual-rail Kleene evaluation and the
  table override (any X pin gives X) are monotone in the information
  order, so a faulty machine that is at most as defined as the good
  one at the fault site stays so at every net of every unrolled frame
  and never differs from it definitely.  When every fault is silent
  the problem is not lowered (unrolled or compiled) at all.

**Sequential netlists** run through the same entry points via the
``unroll=`` knob: pass ``unroll=<n_frames>`` and each *vector* becomes a
per-cycle input sequence (``vector[k]`` drives clock cycle ``k``; an
optional ``initial_state=`` pins frame-0 flop outputs, default X).  The
network is time-frame expanded (:mod:`repro.logic.sequential`), each
logical fault is lowered to one injection covering its every-frame
replicas, and detection means *any* frame's primary outputs differ —
so per-frame detection semantics come from observing all frames'
outputs.  Without ``unroll=``, sequential networks raise
:class:`~repro.logic.network.SequentialNetworkError`.

For stuck-open faults on sequential netlists the engines share a
first-order approximation: each replica's retained/floating output is
derived from the *fault-free* init/test simulations (the standard
good-machine local-input assumption of the combinational path, applied
per frame).  Both engines read that definition from one gate-local
builder, so their results stay bit-identical.

The fault-injection override contract (line vs. pin vs. gate overrides)
is documented once, in :mod:`repro.logic.compiled`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

from repro.faults.logic import (
    PolarityFault,
    StuckAtFault,
    StuckOpenFault,
)
from repro.logic import multiword as mw
from repro.logic import sequential
from repro.logic.compiled import (
    CompiledNetwork,
    FaultInjection,
    PackedVectors,
    compile_network,
    eval_table_packed,
    minterm_word,
    pack_vectors,
)
from repro.logic.network import Network


TestVector = Mapping[str, int]

#: Each call switches to the multi-word fault-parallel engine once the
#: (faults x vectors) problem is big enough that numpy dispatch
#: overhead amortizes; below the thresholds the single-word per-fault
#: delta path wins.
_MULTIWORD_MIN_FAULTS = 64
_MULTIWORD_MIN_BITS = 128

#: ... and once the netlist is big enough too.  At 256 vectors on a
#: 2-vCPU x86 VM, below this many (ops x faults) the single-word path
#: won on the paper-grid circuits (by 1.1-3x), rca8 and rca16; above
#: it the multi-word path won the stuck-at and polarity voltage sweeps
#: of random circuits from 80 gates up and of the ISCAS-class corpus.
#: Deep chains (rca32) and 40-gate random circuits straddle it.
_MULTIWORD_MIN_WORK = 20_000


def _use_multiword(
    n_faults: int, n_vectors: int, n_ops: int | None = None
) -> bool:
    """Whether a problem takes the multi-word engine (see module doc).

    ``n_ops`` is the compiled netlist's op count; when given,
    ``n_ops * n_faults`` must also reach :data:`_MULTIWORD_MIN_WORK`.
    """
    if n_ops is not None and n_ops * n_faults < _MULTIWORD_MIN_WORK:
        return False
    return (
        n_vectors > _MULTIWORD_MIN_BITS
        or n_faults >= _MULTIWORD_MIN_FAULTS
    )


# ---------------------------------------------------------------------------
# Fault -> index-level injection conversion
# ---------------------------------------------------------------------------

def stuck_at_injection(
    cnet: CompiledNetwork, fault: StuckAtFault
) -> FaultInjection:
    """Index-level injection for a stuck-at fault (stem or branch)."""
    if fault.is_branch:
        return FaultInjection(
            pins={(cnet.gate_op[fault.gate], fault.pin): fault.value}
        )
    return FaultInjection(lines={cnet.net_index[fault.net]: fault.value})


def polarity_injection(
    cnet: CompiledNetwork, fault: PolarityFault
) -> FaultInjection:
    """Index-level injection for a polarity fault (gate-table override)."""
    return FaultInjection(
        tables={cnet.gate_op[fault.gate]: fault.faulty_table()}
    )


# ---------------------------------------------------------------------------
# Problem lowering: (network, faults, vectors, unroll) -> compiled form
# ---------------------------------------------------------------------------

def _stuck_at_problem(network, faults, vectors, unroll, initial_state):
    """Compile + lower a stuck-at problem (unrolling when asked)."""
    if unroll is None:
        sequential.require_combinational(
            network, "stuck-at simulation"
        )
        cnet = compile_network(network)
        return cnet, [stuck_at_injection(cnet, f) for f in faults], vectors
    uv = sequential.unroll_network(network, unroll)
    cnet = compile_network(uv.network)
    injections = [
        sequential.stuck_at_unrolled_injection(uv, cnet, f)
        for f in faults
    ]
    return cnet, injections, uv.flatten_vectors(vectors, initial_state)


def _polarity_problem(network, faults, vectors, unroll, initial_state, iddq):
    """Compile + lower a polarity problem.

    Returns ``(cnet, lowered, vectors)``.  ``lowered`` holds one entry
    per fault: in voltage mode its table-override injection, in IDDQ
    mode the gate replicas whose local inputs activate the conflict
    (one gate combinationally, one per frame unrolled) -- IDDQ mode
    reads only the fault-free simulation, so it builds no injection.
    """
    if unroll is None:
        sequential.require_combinational(
            network, "polarity simulation"
        )
        cnet = compile_network(network)
        if iddq:
            return cnet, [[f.gate] for f in faults], vectors
        return cnet, [polarity_injection(cnet, f) for f in faults], vectors
    uv = sequential.unroll_network(network, unroll)
    cnet = compile_network(uv.network)
    if iddq:
        lowered = [uv.replica_gates(f.gate) for f in faults]
    else:
        lowered = [
            sequential.polarity_unrolled_injection(uv, cnet, f)
            for f in faults
        ]
    return cnet, lowered, uv.flatten_vectors(vectors, initial_state)


def _stuck_open_problem(network, faults, pairs, unroll, initial_state):
    """Compile + lower a two-pattern stuck-open problem.

    Returns ``(cnet, gate_lists, pairs)`` with per-fault gate-replica
    lists; the retained-value injections are built against the good
    init/test simulations.
    """
    if unroll is None:
        sequential.require_combinational(
            network, "stuck-open simulation"
        )
        cnet = compile_network(network)
        return cnet, [[f.gate] for f in faults], pairs
    uv = sequential.unroll_network(network, unroll)
    cnet = compile_network(uv.network)
    flat_pairs = [
        (
            uv.flatten_vector(init, initial_state),
            uv.flatten_vector(test, initial_state),
        )
        for init, test in pairs
    ]
    return cnet, [uv.replica_gates(f.gate) for f in faults], flat_pairs


# ---------------------------------------------------------------------------
# The fault-free machine, on either engine
# ---------------------------------------------------------------------------

def _pack(cnet, vectors, multiword: bool):
    """Pack ``vectors`` for the multi-word or the single-word engine."""
    if multiword:
        return mw.pack_vectors_multiword(cnet, vectors)
    return pack_vectors(cnet, vectors)


class _GoodMachine:
    """The fault-free simulation of one packed batch.

    ``pin_words`` reads a gate's dual-rail input words as Python ints
    whichever engine packed the batch, memoised per gate: a multi-word
    row converts once per call however many faults sit on the gate.
    ``detect`` runs injections against the batch on the same engine.
    """

    def __init__(self, cnet: CompiledNetwork, packed) -> None:
        self.cnet = cnet
        self.packed = packed
        self.multiword = not isinstance(packed, PackedVectors)
        self._pins: dict[str, list[tuple[int, int]]] = {}
        if self.multiword:
            self.state = mw.simulate_good(cnet, packed)
            self.mask = mw.int_from_words(packed.mask)
        else:
            self.state = cnet.simulate(packed)
            self.mask = packed.mask

    def pin_words(self, gate: str) -> list[tuple[int, int]]:
        words = self._pins.get(gate)
        if words is None:
            if self.multiword:
                words = [
                    (mw.int_from_words(o), mw.int_from_words(z))
                    for o, z in mw.gate_input_rows(
                        self.cnet, self.state, gate
                    )
                ]
            else:
                words = self.cnet.gate_input_words(self.state, gate)
            self._pins[gate] = words
        return words

    def detect(self, injections: Sequence[FaultInjection]) -> list[int]:
        if self.multiword:
            return mw.batch_detect(
                self.cnet, self.packed, self.state, injections
            )
        return [
            self.cnet.detect_word(self.packed, self.state, injection)
            for injection in injections
        ]


# ---------------------------------------------------------------------------
# Campaign result type
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FaultSimResult:
    """Coverage summary of a fault-simulation campaign.

    Attributes:
        detected: Fault name -> index of the first detecting test.
        undetected: Names of faults no test detected.
        coverage: detected / total.
    """

    detected: dict[str, int]
    undetected: list[str]

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


def _result_from_words(
    names: Sequence[str], words: Sequence[int]
) -> FaultSimResult:
    """Fold a full detection matrix into first-detection campaign form."""
    detected: dict[str, int] = {}
    undetected: list[str] = []
    for name, word in zip(names, words):
        if word:
            detected[name] = (word & -word).bit_length() - 1
        else:
            undetected.append(name)
    return FaultSimResult(detected=detected, undetected=sorted(undetected))


# ---------------------------------------------------------------------------
# Stuck-at faults
# ---------------------------------------------------------------------------

def _stuck_at_words(
    network, faults, vectors, unroll, initial_state, first_only: bool
) -> list[int]:
    """Stuck-at detection words on the engine the problem size picks.

    X-free multi-word batches take the single-rail sweep; with
    ``first_only`` a fault's word there may hold only the bits of the
    64-vector word that first detects it (the sweep drops it there).
    """
    cnet, injections, vectors = _stuck_at_problem(
        network, faults, vectors, unroll, initial_state
    )
    multiword = _use_multiword(len(faults), len(vectors), len(cnet.ops))
    packed = _pack(cnet, vectors, multiword)
    if multiword and packed.binary:
        return mw.batch_detect_x_free(
            cnet, packed, injections, drop_detected=first_only
        )
    return _GoodMachine(cnet, packed).detect(injections)


def stuck_at_detection_words(
    network: Network,
    faults: Sequence[StuckAtFault],
    vectors,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> list[int]:
    """Full detection matrix: per fault, a word whose bit ``k`` is set
    iff ``vectors[k]`` detects the fault (no dropping).

    With ``unroll=``, each vector is a per-cycle input sequence and bit
    ``k`` covers detection at any frame of sequence ``k``.
    """
    return _stuck_at_words(
        network, faults, vectors, unroll, initial_state, first_only=False
    )


def parallel_stuck_at_simulation(
    network: Network,
    faults: Sequence[StuckAtFault],
    vectors,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> FaultSimResult:
    """Bit-parallel stuck-at campaign: first detection per fault.

    On the multi-word engine X-free vectors are swept one 64-vector
    word at a time, and a fault detected in one word is not simulated
    on later ones; every other case folds the full detection matrix.
    """
    return _result_from_words(
        [f.name for f in faults],
        _stuck_at_words(
            network, faults, vectors, unroll, initial_state, first_only=True
        ),
    )


# ---------------------------------------------------------------------------
# Polarity faults (voltage and IDDQ observables)
# ---------------------------------------------------------------------------

def _iddq_word(good: _GoodMachine, gates, minterms) -> int:
    """IDDQ activation word over a fault's gate replicas."""
    word = 0
    for gname in gates:
        pin_words = good.pin_words(gname)
        for minterm in minterms:
            word |= minterm_word(pin_words, minterm, good.mask)
    return word


def polarity_detection_words(
    network: Network,
    faults: Sequence[PolarityFault],
    vectors,
    iddq: bool = False,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> list[int]:
    """Per-fault detection words for polarity faults.

    Voltage mode injects the faulty local table and compares outputs;
    voltage-silent faults (no output-detecting vector, see the module
    doc) get word 0 without simulation, and when every fault is silent
    the problem is not even lowered.  IDDQ mode needs only the shared
    fault-free simulation — a vector covers a fault when it drives the
    gate into a conflict-activating local combination (in any frame,
    with ``unroll=``).
    """
    if iddq:
        return _polarity_words(
            network, faults, vectors, True, unroll, initial_state
        )
    live = [bool(fault.output_detecting_vectors()) for fault in faults]
    if not any(live):
        if unroll is None:
            sequential.require_combinational(network, "polarity simulation")
        return [0] * len(faults)
    found = iter(_polarity_words(
        network, list(itertools.compress(faults, live)), vectors, False,
        unroll, initial_state,
    ))
    return [next(found) if is_live else 0 for is_live in live]


def _polarity_words(
    network, faults, vectors, iddq, unroll, initial_state
) -> list[int]:
    """:func:`polarity_detection_words` without the silent-fault skip."""
    cnet, lowered, vectors = _polarity_problem(
        network, faults, vectors, unroll, initial_state, iddq
    )
    multiword = _use_multiword(len(faults), len(vectors), len(cnet.ops))
    good = _GoodMachine(cnet, _pack(cnet, vectors, multiword))
    if not iddq:
        return good.detect(lowered)
    return [
        _iddq_word(good, gates, fault.iddq_vectors())
        for fault, gates in zip(faults, lowered)
    ]


def parallel_polarity_simulation(
    network: Network,
    faults: Sequence[PolarityFault],
    vectors,
    iddq: bool = False,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> FaultSimResult:
    """Batched polarity-fault campaign (voltage or IDDQ observables):
    :func:`polarity_detection_words` folded into first detections."""
    return _result_from_words(
        [f.name for f in faults],
        polarity_detection_words(
            network, faults, vectors, iddq, unroll, initial_state
        ),
    )


# ---------------------------------------------------------------------------
# Two-pattern stuck-open faults
# ---------------------------------------------------------------------------

def _stuck_open_bad_words(
    fault: StuckOpenFault, init_pins, test_pins, mask: int
) -> tuple[int, int]:
    """Faulty-gate output words under the test patterns.

    The broken gate's local inputs equal the fault-free values (the
    fault is at the gate itself), so the retained init value and the
    floating/test behaviour come straight from the precomputed broken
    table: definite entries drive their rails, and on the floating
    vectors the output copies the init-pattern output word bitwise.
    """
    table = fault.broken_table()
    init_ones, init_zeros = eval_table_packed(table, init_pins, mask)
    ones, zeros = eval_table_packed(table, test_pins, mask)
    floating = 0
    for minterm in fault.floating_vectors():
        floating |= minterm_word(test_pins, minterm, mask)
    return ones | (floating & init_ones), zeros | (floating & init_zeros)


def _stuck_open_injection(
    cnet, fault, gates, init: _GoodMachine, test: _GoodMachine
) -> FaultInjection:
    """Retained-value injection covering every replica of the break."""
    return FaultInjection(words={
        cnet.gate_output_index(gname): _stuck_open_bad_words(
            fault, init.pin_words(gname), test.pin_words(gname), test.mask
        )
        for gname in gates
    })


def stuck_open_detection_words(
    network: Network,
    faults: Sequence[StuckOpenFault],
    pairs,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> list[int]:
    """Per-fault detection words over (init, test) two-pattern pairs.

    Each fault's retained/floating output under the test patterns is
    forced as a word injection against the good test simulation.  With
    ``unroll=``, each pattern of a pair is a per-cycle input sequence
    (a scan-style two-sequence test).
    """
    cnet, gate_lists, pairs = _stuck_open_problem(
        network, faults, pairs, unroll, initial_state
    )
    multiword = _use_multiword(len(faults), len(pairs), len(cnet.ops))
    init, test = (
        _GoodMachine(cnet, _pack(cnet, [p[k] for p in pairs], multiword))
        for k in (0, 1)
    )
    return test.detect([
        _stuck_open_injection(cnet, fault, gates, init, test)
        for fault, gates in zip(faults, gate_lists)
    ])


def parallel_stuck_open_simulation(
    network: Network,
    faults: Sequence[StuckOpenFault],
    pairs,
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> FaultSimResult:
    """Batched two-pattern stuck-open campaign:
    :func:`stuck_open_detection_words` folded into first detections."""
    return _result_from_words(
        [f.name for f in faults],
        stuck_open_detection_words(
            network, faults, pairs, unroll, initial_state
        ),
    )
