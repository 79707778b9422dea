"""Fault simulation campaigns on the compiled bit-parallel engines.

Two batched engines live here, validated vector for vector against
the serial one-fault, one-vector checks of the test oracles
(``tests/oracles/serial_sim.py``) in ``tests/test_compiled_engine.py``
and ``tests/test_multiword_engine.py``:

* **Single-word batches** — up-to-64-vector passes on
  :class:`repro.logic.compiled.CompiledNetwork` Python-int words with
  per-fault delta resimulation; the fastest path for fault dropping
  (one vector, one fault at a time).
* **Multi-word 2-D batches** (:mod:`repro.logic.multiword`) — any
  vector count x whole fault batches as vectorized numpy ``uint64``
  sweeps; the scaling path for thousands-of-gate netlists.

The campaign entry points (:func:`parallel_stuck_at_simulation`,
:func:`parallel_polarity_simulation`,
:func:`parallel_stuck_open_simulation`) and detection-matrix builders
(:func:`stuck_at_detection_words` & friends) take ``engine="auto" |
"multiword" | "compiled"`` and produce bit-identical results on every
setting — ``auto`` (default) picks the multi-word engine once the
(faults x vectors) problem and the netlist (ops x faults) are large
enough to amortize numpy dispatch.  Within an engine the problem, not
an option, picks the work done:

* **Word-by-word dropping.**  Stuck-at campaigns sweep the vectors one
  64-vector word at a time and stop simulating a fault once a word
  detects it — whole fault chunks at once on the multi-word engine,
  one fault at a time on the single-word path.
* **Single rail.**  When every primary input is 0 or 1 on every vector,
  no net is ever X, so the multi-word stuck-at sweep carries one
  uint64 rail per net instead of the (ones, zeros) pair and detects
  with ``good ^ bad``.  Vectors with X take the dual-rail sweep, which
  stays for polarity, stuck-open and IDDQ words and is the oracle for
  the single-rail one.
* **Voltage-silent polarity faults.**  A polarity fault whose faulty
  table holds only X or the good value is never detected at an output,
  so voltage mode gives it word 0 without simulation.  This is exact:
  dual-rail Kleene evaluation and the table override (any X pin gives
  X) are monotone in the information order, so a faulty machine that
  is at most as defined as the good one at the fault site stays so at
  every net of every unrolled frame and never differs from it
  definitely.  When every fault is silent the problem is not lowered
  (unrolled or compiled) at all.

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
per frame).  All three engines implement the same definition, so their
results stay bit-identical.

The fault-injection override contract (line vs. pin vs. gate overrides)
is documented once, in :mod:`repro.logic.compiled`.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.faults.logic import (
    PolarityFault,
    StuckAtFault,
    StuckOpenFault,
)
from repro.gates.library import ALL_CELLS
from repro.logic import multiword as mw
from repro.logic import sequential
from repro.logic.compiled import (
    CompiledNetwork,
    FaultInjection,
    compile_network,
    eval_table_packed,
    minterm_word,
    pack_vectors,
)
from repro.logic.network import Network
from repro.logic.values import X, Z


TestVector = Mapping[str, int]

#: Vectors per batched pass of the single-word engine.  Campaigns chunk
#: so that fault dropping can skip already-detected faults on later
#: chunks (64 balances word width against dropping granularity);
#: detection-matrix builders pack everything into one pass.
_CHUNK_BITS = 64

#: ``engine="auto"`` switches the campaign entry points to the
#: multi-word fault-parallel engine once the (faults x vectors) problem
#: is big enough that numpy dispatch overhead amortizes; below the
#: thresholds the single-word per-fault delta path wins.
_MULTIWORD_MIN_FAULTS = 64
_MULTIWORD_MIN_BITS = 2 * _CHUNK_BITS

#: ... and once the netlist is big enough too.  At 256 vectors on a
#: 2-vCPU x86 VM, below this many (ops x faults) the single-word path
#: won on the paper-grid circuits (by 1.1-3x), rca8 and rca16; above
#: it the multi-word path won the stuck-at and polarity voltage sweeps
#: of random circuits from 80 gates up and of the ISCAS-class corpus.
#: Deep chains (rca32) and 40-gate random circuits straddle it.
_MULTIWORD_MIN_WORK = 20_000


def _check_engine(engine: str) -> None:
    """Reject an unknown ``engine`` selector."""
    if engine not in ("auto", "multiword", "compiled"):
        raise ValueError(
            f"unknown fault-sim engine {engine!r}; "
            "expected 'auto', 'multiword' or 'compiled'"
        )


def _use_multiword(
    engine: str, n_faults: int, n_vectors: int, n_ops: int | None = None
) -> bool:
    """Resolve the campaign ``engine`` selector (see module doc).

    ``n_ops`` is the compiled netlist's op count; when given, ``auto``
    also requires ``n_ops * n_faults`` to reach
    :data:`_MULTIWORD_MIN_WORK`.
    """
    _check_engine(engine)
    if engine != "auto":
        return engine == "multiword"
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


def _polarity_problem(network, faults, vectors, unroll, initial_state):
    """Compile + lower a polarity problem.

    Returns ``(cnet, injections, gate_lists, vectors)`` — ``gate_lists``
    holds, per fault, the gate replicas whose local inputs activate the
    IDDQ conflict (one gate combinationally, one per frame unrolled).
    """
    if unroll is None:
        sequential.require_combinational(
            network, "polarity simulation"
        )
        cnet = compile_network(network)
        injections = [polarity_injection(cnet, f) for f in faults]
        gate_lists = [[f.gate] for f in faults]
        return cnet, injections, gate_lists, vectors
    uv = sequential.unroll_network(network, unroll)
    cnet = compile_network(uv.network)
    injections = [
        sequential.polarity_unrolled_injection(uv, cnet, f)
        for f in faults
    ]
    gate_lists = [uv.replica_gates(f.gate) for f in faults]
    return (
        cnet, injections, gate_lists,
        uv.flatten_vectors(vectors, initial_state),
    )


def _stuck_open_problem(network, faults, pairs, unroll, initial_state):
    """Compile + lower a two-pattern stuck-open problem.

    Returns ``(cnet, gate_lists, pairs)`` with per-fault gate-replica
    lists; the per-chunk retained-value injections are built against
    each chunk's good init/test words.
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


# ---------------------------------------------------------------------------
# Batched stuck-at campaigns
# ---------------------------------------------------------------------------

def _multiword_stuck_at_words(
    cnet, injections: Sequence[FaultInjection],
    vectors: Sequence[TestVector],
    first_only: bool = False,
) -> list[int]:
    """2-D fault x vector sweep over a stuck-at problem.

    The injections carry line and pin forces only, so X-free vectors
    take the single-rail sweep and vectors with X the dual-rail one.
    With ``first_only`` a fault's word may hold only the bits of the
    64-vector word that first detects it (the single-rail sweep drops
    it there).
    """
    mv = mw.pack_vectors_multiword(cnet, vectors)
    if mv.binary:
        return mw.batch_detect_x_free(
            cnet, mv, injections, drop_detected=first_only
        )
    good = mw.simulate_good(cnet, mv)
    return mw.batch_detect(cnet, mv, good, injections)


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


def stuck_at_detection_words(
    network: Network,
    faults: Sequence[StuckAtFault],
    vectors,
    engine: str = "auto",
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> list[int]:
    """Full detection matrix: per fault, a word whose bit ``k`` is set
    iff ``vectors[k]`` detects the fault (no dropping).

    With ``unroll=``, each vector is a per-cycle input sequence and bit
    ``k`` covers detection at any frame of sequence ``k``.
    """
    cnet, injections, vectors = _stuck_at_problem(
        network, faults, vectors, unroll, initial_state
    )
    if _use_multiword(engine, len(faults), len(vectors), len(cnet.ops)):
        return _multiword_stuck_at_words(cnet, injections, vectors)
    packed = pack_vectors(cnet, vectors)
    good = cnet.simulate(packed)
    return [
        cnet.detect_word(packed, good, injection)
        for injection in injections
    ]


def parallel_stuck_at_simulation(
    network: Network,
    faults: Sequence[StuckAtFault],
    vectors,
    engine: str = "auto",
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> FaultSimResult:
    """Bit-parallel stuck-at campaign with fault dropping.

    Vectors are swept :data:`_CHUNK_BITS` at a time, and a fault
    detected in one word is not simulated on later ones: on the
    multi-word engine as whole fault chunks on one rail (vectors with X
    instead run the full dual-rail matrix in one sweep), on the
    single-word path one fault at a time.  Both report the same
    first-detection indices.
    """
    names = [f.name for f in faults]
    cnet, injections, vectors = _stuck_at_problem(
        network, faults, vectors, unroll, initial_state
    )
    if _use_multiword(engine, len(names), len(vectors), len(cnet.ops)):
        return _result_from_words(
            names,
            _multiword_stuck_at_words(
                cnet, injections, vectors, first_only=True
            ),
        )
    detected: dict[str, int] = {}
    undetected = set(names)
    for base in range(0, len(vectors), _CHUNK_BITS):
        if not undetected:
            break
        packed = pack_vectors(cnet, vectors[base:base + _CHUNK_BITS])
        good = cnet.simulate(packed)
        for name, injection in zip(names, injections):
            if name not in undetected:
                continue
            diff = cnet.detect_word(packed, good, injection)
            if diff:
                detected[name] = base + (diff & -diff).bit_length() - 1
                undetected.discard(name)
    return FaultSimResult(
        detected=detected, undetected=sorted(undetected)
    )


# ---------------------------------------------------------------------------
# Batched polarity campaigns (voltage and IDDQ observables)
# ---------------------------------------------------------------------------

def _multiword_polarity_words(
    cnet,
    faults: Sequence[PolarityFault],
    injections,
    gate_lists,
    vectors: Sequence[TestVector],
    iddq: bool,
) -> list[int]:
    """Multi-word polarity detection matrix (voltage or IDDQ mode).

    Voltage mode is a fault-parallel table-override sweep; IDDQ mode
    needs only the shared good simulation — per fault, the word of
    vectors driving any of its gate replicas into a conflict-activating
    combination.
    """
    mv = mw.pack_vectors_multiword(cnet, vectors)
    good = mw.simulate_good(cnet, mv)
    if not iddq:
        return mw.batch_detect(cnet, mv, good, injections)
    words = []
    for fault, gates in zip(faults, gate_lists):
        word = 0
        for gname in gates:
            pin_rows = mw.gate_input_rows(cnet, good, gname)
            for minterm in fault.iddq_vectors():
                word |= mw.int_from_words(
                    mw.minterm_word_multiword(pin_rows, minterm, mv.mask)
                )
        words.append(word)
    return words


def _iddq_word(cnet, good, gates, minterms, mask) -> int:
    """Single-word IDDQ activation word over a fault's gate replicas."""
    word = 0
    for gname in gates:
        pin_words = cnet.gate_input_words(good, gname)
        for minterm in minterms:
            word |= minterm_word(pin_words, minterm, mask)
    return word


#: ``(gtype, transistor, kind)`` -> whether the polarity fault is
#: voltage-silent (see :func:`_voltage_silent`).
_VOLTAGE_SILENT: dict[tuple[str, str, str], bool] = {}


def _voltage_silent(fault: PolarityFault) -> bool:
    """Whether every entry of the faulty table is X or the good value
    of the cell function; then no vector can detect ``fault`` at a
    primary output (see the module doc for why)."""
    key = (fault.gtype, fault.transistor, fault.kind)
    silent = _VOLTAGE_SILENT.get(key)
    if silent is None:
        function = ALL_CELLS[fault.gtype].function
        silent = _VOLTAGE_SILENT[key] = all(
            value == X or value == function(minterm)
            for minterm, value in fault.faulty_table().items()
        )
    return silent


def polarity_detection_words(
    network: Network,
    faults: Sequence[PolarityFault],
    vectors,
    iddq: bool = False,
    engine: str = "auto",
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> list[int]:
    """Per-fault detection words for polarity faults.

    Voltage mode injects the faulty local table and compares outputs;
    voltage-silent faults (:func:`_voltage_silent`) get word 0 without
    simulation, and when every fault is silent the problem is not even
    lowered.  IDDQ mode needs only the shared fault-free simulation — a
    vector covers a fault when it drives the gate into a
    conflict-activating local combination (in any frame, with
    ``unroll=``).
    """
    if iddq:
        return _polarity_words(
            network, faults, vectors, True, engine, unroll, initial_state
        )
    live = [k for k, fault in enumerate(faults) if not _voltage_silent(fault)]
    words = [0] * len(faults)
    if not live:  # still make the argument checks lowering makes
        _check_engine(engine)
        if unroll is None:
            sequential.require_combinational(network, "polarity simulation")
        return words
    found = _polarity_words(
        network, [faults[k] for k in live], vectors, False, engine,
        unroll, initial_state,
    )
    for k, word in zip(live, found):
        words[k] = word
    return words


def _polarity_words(
    network, faults, vectors, iddq, engine, unroll, initial_state
) -> list[int]:
    """:func:`polarity_detection_words` without the silent-fault skip."""
    cnet, injections, gate_lists, vectors = _polarity_problem(
        network, faults, vectors, unroll, initial_state
    )
    if _use_multiword(engine, len(faults), len(vectors), len(cnet.ops)):
        return _multiword_polarity_words(
            cnet, faults, injections, gate_lists, vectors, iddq
        )
    packed = pack_vectors(cnet, vectors)
    good = cnet.simulate(packed)
    words = []
    for fault, injection, gates in zip(faults, injections, gate_lists):
        if iddq:
            words.append(
                _iddq_word(
                    cnet, good, gates, fault.iddq_vectors(), packed.mask
                )
            )
        else:
            words.append(cnet.detect_word(packed, good, injection))
    return words


def parallel_polarity_simulation(
    network: Network,
    faults: Sequence[PolarityFault],
    vectors,
    iddq: bool = False,
    engine: str = "auto",
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> FaultSimResult:
    """Batched polarity-fault campaign (voltage or IDDQ observables).

    Voltage mode folds :func:`polarity_detection_words` (which skips
    voltage-silent faults) into first detections; IDDQ mode drops
    detected faults per :data:`_CHUNK_BITS` vectors on the single-word
    path.
    """
    if not iddq:
        return _result_from_words(
            [f.name for f in faults],
            polarity_detection_words(
                network, faults, vectors, False, engine, unroll,
                initial_state,
            ),
        )
    cnet, injections, gate_lists, vectors = _polarity_problem(
        network, faults, vectors, unroll, initial_state
    )
    if _use_multiword(engine, len(faults), len(vectors), len(cnet.ops)):
        return _result_from_words(
            [f.name for f in faults],
            _multiword_polarity_words(
                cnet, faults, injections, gate_lists, vectors, iddq=True
            ),
        )
    detected: dict[str, int] = {}
    undetected = {f.name for f in faults}
    for base in range(0, len(vectors), _CHUNK_BITS):
        if not undetected:
            break
        packed = pack_vectors(cnet, vectors[base:base + _CHUNK_BITS])
        good = cnet.simulate(packed)
        for fault, gates in zip(faults, gate_lists):
            if fault.name not in undetected:
                continue
            word = _iddq_word(
                cnet, good, gates, fault.iddq_vectors(), packed.mask
            )
            if word:
                detected[fault.name] = base + (word & -word).bit_length() - 1
                undetected.discard(fault.name)
    return FaultSimResult(
        detected=detected, undetected=sorted(undetected)
    )


# ---------------------------------------------------------------------------
# Batched two-pattern stuck-open campaigns
# ---------------------------------------------------------------------------

def _stuck_open_bad_words(
    cnet: CompiledNetwork,
    fault: StuckOpenFault,
    gate_name: str,
    good_init,
    good_test,
    mask: int,
) -> tuple[int, int]:
    """Faulty-gate output words under the test patterns.

    The broken gate's local inputs equal the fault-free values (the
    fault is at the gate itself), so the retained init value and the
    floating/test behaviour come straight from the precomputed broken
    table: definite entries drive their rails, Z entries copy the
    init-pattern output word bitwise.
    """
    table = fault.broken_table()
    init_pins = cnet.gate_input_words(good_init, gate_name)
    test_pins = cnet.gate_input_words(good_test, gate_name)
    init_ones, init_zeros = eval_table_packed(table, init_pins, mask)
    ones = 0
    zeros = 0
    for minterm, value in table.items():
        word = minterm_word(test_pins, minterm, mask)
        if not word:
            continue
        if value == 1:
            ones |= word
        elif value == 0:
            zeros |= word
        elif value == Z:
            ones |= word & init_ones
            zeros |= word & init_zeros
    return ones, zeros


def _stuck_open_injection(
    cnet, fault, gates, good_init, good_test, mask
) -> FaultInjection:
    """Retained-value injection covering every replica of the break."""
    return FaultInjection(words={
        cnet.gate_output_index(gname): _stuck_open_bad_words(
            cnet, fault, gname, good_init, good_test, mask
        )
        for gname in gates
    })


def _multiword_stuck_open_words(
    cnet,
    faults: Sequence[StuckOpenFault],
    gate_lists,
    pairs: Sequence[tuple[TestVector, TestVector]],
) -> list[int]:
    """Multi-word two-pattern stuck-open detection matrix.

    Mirrors :func:`_stuck_open_bad_words` on multi-word rows: per
    fault, the retained/floating output under the test patterns is
    assembled from the broken-gate table (Z entries copy the
    init-pattern output bitwise), then the whole fault list runs as one
    word-forced 2-D sweep against the shared good test simulation.
    """
    init_mv = mw.pack_vectors_multiword(cnet, [p[0] for p in pairs])
    test_mv = mw.pack_vectors_multiword(cnet, [p[1] for p in pairs])
    good_init = mw.simulate_good(cnet, init_mv)
    good_test = mw.simulate_good(cnet, test_mv)
    injections = []
    for fault, gates in zip(faults, gate_lists):
        table = fault.broken_table()
        words = {}
        for gname in gates:
            init_pins = mw.gate_input_rows(cnet, good_init, gname)
            test_pins = mw.gate_input_rows(cnet, good_test, gname)
            init_ones, init_zeros = (
                rail[0]
                for rail in mw._eval_tables([table], init_pins, init_mv.mask)
            )
            ones = test_mv.mask & 0
            zeros = test_mv.mask & 0
            for minterm, value in table.items():
                word = mw.minterm_word_multiword(
                    test_pins, minterm, test_mv.mask
                )
                if not word.any():
                    continue
                if value == 1:
                    ones |= word
                elif value == 0:
                    zeros |= word
                elif value == Z:
                    ones |= word & init_ones
                    zeros |= word & init_zeros
            words[cnet.gate_output_index(gname)] = (
                mw.int_from_words(ones),
                mw.int_from_words(zeros),
            )
        injections.append(FaultInjection(words=words))
    return mw.batch_detect(cnet, test_mv, good_test, injections)


def stuck_open_detection_words(
    network: Network,
    faults: Sequence[StuckOpenFault],
    pairs,
    engine: str = "auto",
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> list[int]:
    """Per-fault detection words over (init, test) two-pattern pairs.

    With ``unroll=``, each pattern of a pair is a per-cycle input
    sequence (a scan-style two-sequence test).
    """
    cnet, gate_lists, pairs = _stuck_open_problem(
        network, faults, pairs, unroll, initial_state
    )
    if _use_multiword(engine, len(faults), len(pairs), len(cnet.ops)):
        return _multiword_stuck_open_words(cnet, faults, gate_lists, pairs)
    init_packed = pack_vectors(cnet, [p[0] for p in pairs])
    test_packed = pack_vectors(cnet, [p[1] for p in pairs])
    good_init = cnet.simulate(init_packed)
    good_test = cnet.simulate(test_packed)
    return [
        cnet.detect_word(
            test_packed,
            good_test,
            _stuck_open_injection(
                cnet, fault, gates, good_init, good_test,
                test_packed.mask,
            ),
        )
        for fault, gates in zip(faults, gate_lists)
    ]


def parallel_stuck_open_simulation(
    network: Network,
    faults: Sequence[StuckOpenFault],
    pairs,
    engine: str = "auto",
    unroll: int | None = None,
    initial_state: Mapping[str, int] | None = None,
) -> FaultSimResult:
    """Batched two-pattern stuck-open campaign with fault dropping."""
    cnet, gate_lists, pairs = _stuck_open_problem(
        network, faults, pairs, unroll, initial_state
    )
    if _use_multiword(engine, len(faults), len(pairs), len(cnet.ops)):
        words = _multiword_stuck_open_words(
            cnet, faults, gate_lists, pairs
        )
        return _result_from_words([f.name for f in faults], words)
    detected: dict[str, int] = {}
    undetected = {f.name for f in faults}
    for base in range(0, len(pairs), _CHUNK_BITS):
        if not undetected:
            break
        chunk = pairs[base:base + _CHUNK_BITS]
        init_packed = pack_vectors(cnet, [p[0] for p in chunk])
        test_packed = pack_vectors(cnet, [p[1] for p in chunk])
        good_init = cnet.simulate(init_packed)
        good_test = cnet.simulate(test_packed)
        for fault, gates in zip(faults, gate_lists):
            if fault.name not in undetected:
                continue
            diff = cnet.detect_word(
                test_packed,
                good_test,
                _stuck_open_injection(
                    cnet, fault, gates, good_init, good_test,
                    test_packed.mask,
                ),
            )
            if diff:
                detected[fault.name] = base + (diff & -diff).bit_length() - 1
                undetected.discard(fault.name)
    return FaultSimResult(
        detected=detected, undetected=sorted(undetected)
    )
