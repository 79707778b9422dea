"""Multi-word 2-D (fault x vector) packed simulation on numpy uint64.

The single-word engine of :mod:`repro.logic.compiled` packs one test
vector per bit of an unbounded Python integer; that is unbeatable for
the 1-vector delta resimulation at the heart of PODEM fault dropping,
but campaigns on thousands-of-gate netlists want the other axis too:
*fault-parallel* simulation, where a whole batch of faulty machines
advances through the circuit in lockstep.  This module provides that as
a thin numpy layer over the same flattened op arrays:

**Packing layout.**  Vector ``k`` of a batch lives in bit ``k & 63`` of
word ``k >> 6`` — i.e. the vector axis is split across ``W =
ceil(n / 64)`` little-endian ``uint64`` words (*vector-major* within a
word, word-major across the row).  A net's fault-free state is a pair
of ``(W,)`` rail rows (ones rail / zeros rail, identical Kleene
semantics to the single-word engine); a fault batch of ``F`` machines
widens every net in its fanout cones to ``(F, W)`` — the *fault-major*
axis is axis 0, so one numpy bitwise op advances all ``F`` faulty
machines over all ``n`` vectors at once, and nets outside the cones
stay ``(W,)`` good rows that numpy broadcasts.  The tail of the last
word (bits ``n .. 63``) is *ragged*: both rails keep it 0 (= X), so it
can never produce a detection, and every word handed back to callers
is additionally ANDed with the tail mask so forced-line writes (which
set full 64-bit words) cannot leak tail bits into detection results.

**Single rail.**  When every primary input is definite on every
vector (:attr:`MultiwordVectors.binary`), no net is ever X, so a
stuck-at batch needs only the ones rail: one ufunc per pin for
AND/OR/XOR, one more invert for NAND/NOR/XNOR/INV, and ``good ^ bad``
at a primary output for detection.  :func:`batch_detect_x_free` runs
that sweep with the same :class:`FaultBatch`, cones and site order,
optionally one 64-vector word at a time, dropping the faults each word
detects; faults that no vector of a word excites (every forced line
and pin already carries its forced value) are not simulated on it.  The dual-rail sweep stays for vectors with X, for table and
word overrides (polarity and stuck-open faults) and as the oracle.

**Equivalence.**  For any fault list and vector set the detection
words produced here are bit-identical to the single-word engine's
(:func:`repro.logic.compiled.CompiledNetwork.detect_word`) and to the
serial dict simulator — enforced by the differential harness in
``tests/test_multiword_engine.py`` on random circuits and the ISCAS-
class corpus under ``benchmarks/netlists/``.

Usage::

    from repro.logic.multiword import (
        FaultBatch, pack_vectors_multiword, simulate_good,
    )

    cnet = network.compiled()
    mv = pack_vectors_multiword(cnet, vectors)     # any vector count
    good = simulate_good(cnet, mv)                 # (n_nets, W) rails
    words = batch_detect(cnet, mv, good, injections)
    # words[f] is a Python int: bit k set -> vectors[k] detects fault f
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.logic.compiled import (
    OP_AND,
    OP_BUF,
    OP_INV,
    OP_MAJ,
    OP_MIN,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledNetwork,
    FaultInjection,
)
from repro.logic.values import X

WORD_BITS = 64
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_DTYPE = np.dtype("<u8")

#: Fault rows simulated per vectorized pass.  Bounds the working-set
#: memory (live cone nets x chunk x W x 16 bytes) while keeping the
#: per-op numpy dispatch overhead amortized over a wide fault axis.
DEFAULT_FAULT_CHUNK = 256

#: Words per net array of a single-rail pass (fault rows x vector
#: words).  One rail needs half the bytes, so 2048 rows of one word
#: hold as many words as a dual-rail chunk of 256 rows x 4 words x 2
#: rails, the size of a 256-vector sweep.
SINGLE_RAIL_CHUNK_WORDS = 2048

#: Dual-rail multi-word good-machine state: (ones, zeros) uint64
#: arrays of shape (n_nets, W).
MultiwordState = tuple[np.ndarray, np.ndarray]


def words_from_int(value: int, n_words: int) -> np.ndarray:
    """Split a packed Python-int word into ``n_words`` uint64 words."""
    return np.frombuffer(
        value.to_bytes(n_words * 8, "little"), dtype=_DTYPE
    ).copy()


def int_from_words(row: np.ndarray) -> int:
    """Reassemble a multi-word row into the single-word Python int."""
    return int.from_bytes(np.ascontiguousarray(row, dtype=_DTYPE).tobytes(),
                          "little")


@dataclasses.dataclass(frozen=True)
class MultiwordVectors:
    """A vector batch packed bit-per-vector into multi-word rail rows.

    Attributes:
        n: Number of vectors.
        n_words: ``ceil(n / 64)`` (at least 1, so empty batches still
            carry well-formed arrays).
        mask: ``(n_words,)`` tail mask — all-ones words except the last,
            whose bits ``n % 64 ..`` are clear (the ragged tail).
        ones / zeros: Primary-input net index -> ``(n_words,)`` rail row.
        binary: True when no vector carries an X (as
            :attr:`repro.logic.compiled.PackedVectors.binary`) — every
            net then has one definite value per vector, enabling the
            single-rail sweep for line and pin forces.
    """

    n: int
    n_words: int
    mask: np.ndarray
    ones: dict[int, np.ndarray]
    zeros: dict[int, np.ndarray]
    binary: bool = False


def pack_vectors_multiword(
    cnet: CompiledNetwork,
    vectors: Sequence[Mapping[str, int]],
) -> MultiwordVectors:
    """Pack test vectors for ``cnet``; missing / X entries stay X.

    Mirrors :func:`repro.logic.compiled.pack_vectors` (and therefore the
    serial simulator's missing-input-is-X convention), with the batch
    split across ``ceil(n / 64)`` uint64 words instead of one Python
    int.
    """
    n = len(vectors)
    n_words = max(1, (n + WORD_BITS - 1) // WORD_BITS)
    full = (1 << n) - 1 if n else 0
    binary = True
    ones: dict[int, np.ndarray] = {}
    zeros: dict[int, np.ndarray] = {}
    for net, idx in cnet.pi_items:
        o = z = 0
        for k, vector in enumerate(vectors):
            value = vector.get(net, X)
            if value == 1:
                o |= 1 << k
            elif value == 0:
                z |= 1 << k
        binary = binary and o | z == full
        ones[idx] = words_from_int(o, n_words)
        zeros[idx] = words_from_int(z, n_words)
    return MultiwordVectors(
        n=n, n_words=n_words, mask=words_from_int(full, n_words),
        ones=ones, zeros=zeros, binary=binary,
    )


def _eval_gate_np(
    code: int, pw: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Dual-rail evaluation of one opcode over rail arrays.

    Shape-agnostic and broadcasting: the pin arrays may be ``(W,)``
    (good machine) or ``(F, W)`` (fault batch), mixed freely, and the
    result takes the broadcast shape.  BUF and INV return their input
    arrays themselves, so callers copy before patching rows in place.
    """
    a1, a0 = pw[0]
    if code == OP_BUF:
        return a1, a0
    if code == OP_INV:
        return a0, a1
    if code == OP_AND or code == OP_NAND:
        o, z = a1, a0
        for b1, b0 in pw[1:]:
            o = o & b1
            z = z | b0
        return (z, o) if code == OP_NAND else (o, z)
    if code == OP_OR or code == OP_NOR:
        o, z = a1, a0
        for b1, b0 in pw[1:]:
            o = o | b1
            z = z & b0
        return (z, o) if code == OP_NOR else (o, z)
    if code == OP_XOR or code == OP_XNOR:
        o, z = a1, a0
        for b1, b0 in pw[1:]:
            o, z = (o & b0) | (z & b1), (o & b1) | (z & b0)
        return (z, o) if code == OP_XNOR else (o, z)
    # OP_MAJ / OP_MIN
    b1, b0 = pw[1]
    c1, c0 = pw[2]
    o = (a1 & b1) | (b1 & c1) | (a1 & c1)
    z = (a0 & b0) | (b0 & c0) | (a0 & c0)
    return (z, o) if code == OP_MIN else (o, z)


#: Single-rail opcode -> the ufunc folding its pins (MAJ/MIN aside).
_FOLD = {
    OP_AND: np.bitwise_and, OP_NAND: np.bitwise_and,
    OP_OR: np.bitwise_or, OP_NOR: np.bitwise_or,
    OP_XOR: np.bitwise_xor, OP_XNOR: np.bitwise_xor,
}

#: Opcodes whose single-rail value is the inverted fold.
_INVERTED = frozenset({OP_NAND, OP_NOR, OP_XNOR, OP_MIN})


def _eval_gate_single_rail(
    code: int, pins: Sequence[np.ndarray]
) -> np.ndarray:
    """Two-valued evaluation of one opcode over single-rail arrays.

    The X-free counterpart of :func:`_eval_gate_np`: one ufunc per pin
    for AND/OR/XOR, plus one invert for the inverting opcodes.  Pins
    broadcast like the dual-rail rows; BUF returns its input array.
    """
    a = pins[0]
    if code == OP_BUF:
        return a
    if code == OP_INV:
        return ~a
    if code == OP_MAJ or code == OP_MIN:
        b, c = pins[1], pins[2]
        value = (a & b) | (c & (a | b))
    else:
        fold = _FOLD[code]
        value = a
        for b in pins[1:]:
            value = fold(value, b)
    return ~value if code in _INVERTED else value


def simulate_good(
    cnet: CompiledNetwork, mv: MultiwordVectors
) -> MultiwordState:
    """Fault-free simulation of the whole batch; ``(n_nets, W)`` rails."""
    ones = np.zeros((cnet.n_nets, mv.n_words), dtype=_DTYPE)
    zeros = np.zeros((cnet.n_nets, mv.n_words), dtype=_DTYPE)
    for idx in cnet.pi_index:
        ones[idx] = mv.ones[idx]
        zeros[idx] = mv.zeros[idx]
    for code, out, ins in cnet.ops:
        o, z = _eval_gate_np(code, [(ones[i], zeros[i]) for i in ins])
        ones[out] = o
        zeros[out] = z
    return ones, zeros


def simulate_good_single_rail(
    cnet: CompiledNetwork, mv: MultiwordVectors
) -> np.ndarray:
    """Fault-free values of an X-free batch: ``(n_nets, W)`` uint64.

    Equals the ones rail of :func:`simulate_good` on the vectors of
    ``mv``; bits of the ragged tail are unspecified.
    """
    values = np.zeros((cnet.n_nets, mv.n_words), dtype=_DTYPE)
    for idx in cnet.pi_index:
        values[idx] = mv.ones[idx]
    for code, out, ins in cnet.ops:
        values[out] = _eval_gate_single_rail(code, [values[i] for i in ins])
    return values


def _eval_tables(
    tables: Sequence[Mapping[tuple[int, ...], int]],
    pin_rails: Sequence[tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Local-truth-table evaluation, one table per output row.

    The multi-word counterpart of :func:`repro.logic.compiled.
    eval_table_packed` for ``R`` tables at once: each pin rail is a
    ``(W,)`` row shared by every table or an ``(R, W)`` array, and the
    result is ``(R, W)``.  Each minterm's match word is computed once
    for all rows.  Table values outside (0, 1) contribute to neither
    rail, so those vectors come out X.
    """
    ones = np.zeros((len(tables), mask.size), dtype=_DTYPE)
    zeros = np.zeros_like(ones)
    for minterm in itertools.product((0, 1), repeat=len(pin_rails)):
        values = [table.get(minterm) for table in tables]
        rows1 = [r for r, value in enumerate(values) if value == 1]
        rows0 = [r for r, value in enumerate(values) if value == 0]
        if not rows1 and not rows0:
            continue
        word = mask
        for (o, z), bit in zip(pin_rails, minterm):
            word = word & (o if bit else z)
        for rail, rows in ((ones, rows1), (zeros, rows0)):
            if rows:
                rail[rows] |= word[rows] if word.ndim == 2 else word
    return ones, zeros


def gate_input_rows(
    cnet: CompiledNetwork, state: MultiwordState, gate: str
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dual-rail ``(W,)`` rows on one gate's input pins (good state)."""
    ones, zeros = state
    _, _, ins = cnet.ops[cnet.gate_op[gate]]
    return [(ones[i], zeros[i]) for i in ins]


class FaultBatch:
    """Index-level overrides for ``F`` faults, grouped for array writes.

    Built from a sequence of single-fault
    :class:`~repro.logic.compiled.FaultInjection` objects; fault ``f``
    of the batch owns row ``f`` of every ``(F, W)`` net-state array.
    The grouping turns each override class into the cheapest possible
    vectorized write:

    * ``line_rows``: net index -> [(row, value)] — applied at every
      write of the net, as full-word row assignments.
    * ``word_rows``: net index -> [(row, ones_row, zeros_row)] — the
      per-vector forced patterns of the stuck-open engine.
    * ``pin_rows``: op position -> [(pin, row, value)] — branch faults,
      patched onto a copy of the gathered pin array.
    * ``table_rows``: op position -> [(row, table)] — functional
      (polarity) faults, evaluated for all affected rows of an op at
      once.

    ``sources`` are the forced nets no op drives (primary inputs),
    written before the sweep; ``seed_ops`` are the op positions where an
    override enters (pin or table overrides, or a forced output).  The
    batch's fanout cones start at these two.
    """

    def __init__(
        self,
        cnet: CompiledNetwork,
        injections: Sequence[FaultInjection],
        n_words: int,
    ) -> None:
        self.size = len(injections)
        self.line_rows: dict[int, list[tuple[int, int]]] = {}
        self.word_rows: dict[int, list[tuple[int, np.ndarray, np.ndarray]]]
        self.word_rows = {}
        self.pin_rows: dict[int, list[tuple[int, int, int]]] = {}
        self.table_rows: dict[int, list[tuple[int, Mapping]]] = {}
        for row, injection in enumerate(injections):
            for idx, value in injection.lines.items():
                self.line_rows.setdefault(idx, []).append((row, value))
            for idx, (o, z) in injection.words.items():
                self.word_rows.setdefault(idx, []).append(
                    (row, words_from_int(o, n_words),
                     words_from_int(z, n_words))
                )
            for (pos, pin), value in injection.pins.items():
                self.pin_rows.setdefault(pos, []).append((pin, row, value))
            for pos, table in injection.tables.items():
                self.table_rows.setdefault(pos, []).append((row, table))
        forced = self.line_rows.keys() | self.word_rows.keys()
        driver = cnet.structures().driver_op
        self.sources = sorted(i for i in forced if driver[i] < 0)
        self.seed_ops = self.pin_rows.keys() | self.table_rows.keys() | {
            driver[i] for i in forced if driver[i] >= 0
        }

    def force_lines(self, idx: int, values: np.ndarray) -> None:
        """Apply line forces for net ``idx`` onto single-rail rows."""
        for row, value in self.line_rows.get(idx, ()):
            values[row] = _FULL if value else 0

    def apply_forces(
        self, idx: int, ones_row: np.ndarray, zeros_row: np.ndarray
    ) -> None:
        """Apply line/word forces for net ``idx`` onto ``(F, W)`` rows."""
        for row, value in self.line_rows.get(idx, ()):
            ones_row[row] = _FULL if value else 0
            zeros_row[row] = 0 if value else _FULL
        for row, o, z in self.word_rows.get(idx, ()):
            ones_row[row] = o
            zeros_row[row] = z


def _own(rail: np.ndarray, f: int) -> np.ndarray:
    """Fresh writable ``(F, W)`` copy of a rail that may be a ``(W,)``
    good row or an array shared with another net."""
    out = np.empty((f, rail.shape[-1]), dtype=_DTYPE)
    out[...] = rail
    return out


def _own_rows(
    ones: np.ndarray, zeros: np.ndarray, f: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_own` for both rails."""
    return _own(ones, f), _own(zeros, f)


def _batch_cone(
    cnet: CompiledNetwork, batch: FaultBatch
) -> tuple[list[int], dict[int, int]]:
    """The ops a batch can change, and when each net is last read.

    Returns ``(cone, last_read)``: the op positions in the union of the
    batch's fanout cones, in topological order, and, per net read
    inside the cone, the position of its last reader there.
    """
    fanout = cnet.structures().fanout_ops
    ops = cnet.ops
    marked = bytearray(len(ops))
    for idx in batch.sources:
        for pos in fanout[idx]:
            marked[pos] = 1
    for pos in batch.seed_ops:
        marked[pos] = 1
    first = marked.find(1)
    cone: list[int] = []
    last_read: dict[int, int] = {}
    if first < 0:
        return cone, last_read
    for pos in range(first, len(ops)):
        if marked[pos]:
            cone.append(pos)
            _, out, ins = ops[pos]
            for i in ins:
                last_read[i] = pos
            for nxt in fanout[out]:
                marked[nxt] = 1
    return cone, last_read


def _eval_seed_op(
    batch: FaultBatch,
    pos: int,
    code: int,
    out: int,
    pw: list[tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the seed op at ``pos`` with the batch's overrides."""
    f = batch.size
    patched: set[int] = set()
    for pin, row, value in batch.pin_rows.get(pos, ()):
        if pin not in patched:  # pins may share one net's rows
            patched.add(pin)
            pw[pin] = _own_rows(*pw[pin], f)
        o, z = pw[pin]
        o[row] = _FULL if value else 0
        z[row] = 0 if value else _FULL
    o, z = _own_rows(*_eval_gate_np(code, pw), f)
    tables = batch.table_rows.get(pos)
    if tables:
        rows = [row for row, _ in tables]
        o[rows], z[rows] = _eval_tables(
            [table for _, table in tables],
            [(p1[rows], p0[rows]) if p1.ndim == 2 else (p1, p0)
             for p1, p0 in pw],
            mask,
        )
    batch.apply_forces(out, o, z)
    return o, z


def simulate_batch(
    cnet: CompiledNetwork,
    mv: MultiwordVectors,
    good: MultiwordState,
    batch: FaultBatch,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Simulate ``F`` faulty machines over the whole vector batch.

    Yields ``(net, ones, zeros)`` with ``(F, W)`` rails for every net a
    fault of the batch can change, in topological order; row ``f`` is
    that net in fault ``f``'s machine.  Every net not yielded equals
    the good machine in all ``F`` rows.  Only the ops in the union of
    the batch's fanout cones run; nets outside the cones are read as
    broadcast good rows, and a net's rows are dropped after their last
    reader in the cone, so the working set is the live cone frontier,
    not every net.  The overrides apply at the contract points:
    line/word forces at every write of their net, pin forces on the
    gathered pin arrays, table overrides per affected row after the
    healthy gate function.  Yielded arrays must not be modified.
    """
    good_ones, good_zeros = good
    cone, last_read = _batch_cone(cnet, batch)
    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for idx in batch.sources:
        o, z = _own_rows(good_ones[idx], good_zeros[idx], batch.size)
        batch.apply_forces(idx, o, z)
        if idx in last_read:
            rows[idx] = (o, z)
        yield idx, o, z
    ops = cnet.ops
    seed_ops = batch.seed_ops
    for pos in cone:
        code, out, ins = ops[pos]
        pw = [
            rows.get(i) or (good_ones[i], good_zeros[i]) for i in ins
        ]
        if pos in seed_ops:
            o, z = _eval_seed_op(batch, pos, code, out, pw, mv.mask)
        else:
            # Reached through the cone: some pin carries (F, W) rows.
            o, z = _eval_gate_np(code, pw)
        for i in ins:
            if last_read[i] == pos:
                rows.pop(i, None)
        if out in last_read:
            rows[out] = (o, z)
        yield out, o, z


def batch_detection_matrix(
    cnet: CompiledNetwork,
    mv: MultiwordVectors,
    good: MultiwordState,
    batch: FaultBatch,
) -> np.ndarray:
    """Detection matrix for one simulated batch: ``(F, W)`` uint64.

    Bit ``k & 63`` of word ``k >> 6`` in row ``f`` is set iff vector
    ``k`` *definitely* detects fault ``f`` at a primary output (strict
    X semantics, matching :meth:`CompiledNetwork.output_diff`); the
    ragged tail is masked off.  Each primary output's difference is
    folded in as soon as the sweep computes it.
    """
    good_ones, good_zeros = good
    outputs = set(cnet.po_index)
    diff = np.zeros((batch.size, mv.n_words), dtype=_DTYPE)
    for idx, bad_ones, bad_zeros in simulate_batch(cnet, mv, good, batch):
        if idx in outputs:
            diff |= (good_ones[idx] & bad_zeros) | (good_zeros[idx] & bad_ones)
    diff &= mv.mask[None, :]
    return diff


def _fault_site(cnet: CompiledNetwork, injection: FaultInjection) -> int:
    """Earliest op position an injection touches (its cone's start)."""
    first = cnet.net_first_op
    return min(
        itertools.chain(
            (first[i] for i in injection.lines),
            (first[i] for i in injection.words),
            (pos for pos, _pin in injection.pins),
            injection.tables,
        ),
        default=len(cnet.ops),
    )


def _site_order(
    cnet: CompiledNetwork, injections: Sequence[FaultInjection]
) -> list[int]:
    """Injection indices in topological order of their fault sites."""
    return sorted(
        range(len(injections)),
        key=lambda k: _fault_site(cnet, injections[k]),
    )


def batch_detect(
    cnet: CompiledNetwork,
    mv: MultiwordVectors,
    good: MultiwordState,
    injections: Sequence[FaultInjection],
    fault_chunk: int = DEFAULT_FAULT_CHUNK,
) -> list[int]:
    """Detection words for every injection, chunked along the fault axis.

    The result is index-aligned with ``injections``; each entry is the
    same Python-int detection word the single-word engine's
    :meth:`~repro.logic.compiled.CompiledNetwork.detect_word` produces
    over the full vector set (bit ``k`` set iff vector ``k`` detects
    the fault).  Chunks of ``fault_chunk`` faults are formed in
    topological order of the fault sites, so each chunk's faults share
    most of their fanout cones and deep sites simulate small cones; the
    final ragged chunk simply runs narrower.
    """
    order = _site_order(cnet, injections)
    words = [0] * len(injections)
    for base in range(0, len(order), fault_chunk):
        chunk = order[base:base + fault_chunk]
        batch = FaultBatch(cnet, [injections[k] for k in chunk], mv.n_words)
        diff = batch_detection_matrix(cnet, mv, good, batch)
        for row, k in enumerate(chunk):
            words[k] = int_from_words(diff[row])
    return words


# ---------------------------------------------------------------------------
# Single-rail sweep: X-free vectors, line and pin forces only
# ---------------------------------------------------------------------------

def simulate_batch_single_rail(
    cnet: CompiledNetwork,
    good: np.ndarray,
    batch: FaultBatch,
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`simulate_batch` on one rail, for X-free stuck-at batches.

    ``good`` is :func:`simulate_good_single_rail` output (or a slice of
    its words) and ``batch`` holds line and pin forces only.  Yields
    ``(net, values)`` with ``(F, W)`` rows for every net a fault of the
    batch can change, in topological order, under the same cone,
    liveness and override rules as the dual-rail sweep.
    """
    f = batch.size
    cone, last_read = _batch_cone(cnet, batch)
    rows: dict[int, np.ndarray] = {}
    for idx in batch.sources:
        values = _own(good[idx], f)
        batch.force_lines(idx, values)
        if idx in last_read:
            rows[idx] = values
        yield idx, values
    ops = cnet.ops
    seed_ops = batch.seed_ops
    for pos in cone:
        code, out, ins = ops[pos]
        pins = [rows[i] if i in rows else good[i] for i in ins]
        if pos in seed_ops:
            patched: set[int] = set()
            for pin, row, value in batch.pin_rows.get(pos, ()):
                if pin not in patched:  # pins may share one net's rows
                    patched.add(pin)
                    pins[pin] = _own(pins[pin], f)
                pins[pin][row] = _FULL if value else 0
            values = _own(_eval_gate_single_rail(code, pins), f)
            batch.force_lines(out, values)
        else:
            values = _eval_gate_single_rail(code, pins)
        for i in ins:
            if last_read[i] == pos:
                rows.pop(i, None)
        if out in last_read:
            rows[out] = values
        yield out, values


def _single_rail_detection_matrix(
    cnet: CompiledNetwork,
    good: np.ndarray,
    mask: np.ndarray,
    batch: FaultBatch,
) -> np.ndarray:
    """:func:`batch_detection_matrix` on one rail: a primary output
    detects where ``good ^ bad`` is set, and the tail is masked last."""
    outputs = set(cnet.po_index)
    diff = np.zeros((batch.size, mask.size), dtype=_DTYPE)
    for idx, bad in simulate_batch_single_rail(cnet, good, batch):
        if idx in outputs:
            diff |= good[idx] ^ bad
    diff &= mask
    return diff


def _excited(
    cnet: CompiledNetwork,
    injection: FaultInjection,
    differs: tuple[list[bool], list[bool]],
) -> bool:
    """Whether some forced line or pin of ``injection`` differs from its
    forced value on some vector; ``differs[v][net]`` says whether the
    good machine drives ``net`` to ``1 - v`` on some vector."""
    ops = cnet.ops
    return any(
        differs[value][net] for net, value in injection.lines.items()
    ) or any(
        differs[value][ops[pos][2][pin]]
        for (pos, pin), value in injection.pins.items()
    )


def batch_detect_x_free(
    cnet: CompiledNetwork,
    mv: MultiwordVectors,
    injections: Sequence[FaultInjection],
    drop_detected: bool = False,
    chunk_words: int = SINGLE_RAIL_CHUNK_WORDS,
) -> list[int]:
    """:func:`batch_detect` for X-free vectors and stuck-at injections.

    Requires :attr:`MultiwordVectors.binary` vectors and injections
    with line and pin forces only; then every net has one definite
    value per vector and the sweep runs on one uint64 rail.  Faults are
    chunked in the same site order as :func:`batch_detect`,
    ``chunk_words`` words per net array.  A fault whose every forced
    line and pin already carries its forced value on every vector of
    the sweep is not excited, so it is not simulated.

    Without ``drop_detected`` the result equals :func:`batch_detect`.
    With it, the vectors are swept one 64-vector word at a time and a
    fault detected in one word is not simulated on later words: its
    entry keeps only the bits of that first detecting word, so its
    lowest set bit is still its first detecting vector.
    """
    good = simulate_good_single_rail(cnet, mv)
    step = 1 if drop_detected else mv.n_words
    fault_chunk = max(1, chunk_words // step)
    words = [0] * len(injections)
    live = _site_order(cnet, injections)
    for w in range(0, mv.n_words, step):
        good_w = good[:, w:w + step]
        mask_w = mv.mask[w:w + step]
        differs = (
            (good_w & mask_w).any(axis=1).tolist(),
            (~good_w & mask_w).any(axis=1).tolist(),
        )
        excited = [
            k for k in live if _excited(cnet, injections[k], differs)
        ]
        for base in range(0, len(excited), fault_chunk):
            chunk = excited[base:base + fault_chunk]
            batch = FaultBatch(cnet, [injections[k] for k in chunk], step)
            diff = _single_rail_detection_matrix(cnet, good_w, mask_w, batch)
            for k, row in zip(chunk, diff):
                word = int_from_words(row)
                if word:
                    words[k] = word << (WORD_BITS * w)
        if drop_detected:
            live = [k for k in live if not words[k]]
    return words
