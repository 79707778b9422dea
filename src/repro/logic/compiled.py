"""Compiled bit-parallel gate-level simulation.

This module is the fast counterpart of :mod:`repro.logic.simulator`.
A :class:`CompiledNetwork` flattens a (levelized) :class:`~repro.logic.
network.Network` once into integer-indexed op arrays — every net gets a
dense index, every gate becomes an ``(opcode, output_index,
input_indices)`` triple in topological order — so that simulation is a
tight loop over machine integers instead of a walk over dicts of
strings.

**Word-packed dual-rail encoding.**  A whole batch of test vectors is
evaluated per pass: vector ``k`` of the batch lives in bit ``k`` of two
Python integers per net, the *ones* rail and the *zeros* rail.  A bit
set in the ones rail means "this vector definitely produces 1 on this
net"; set in the zeros rail means "definitely 0"; set in neither means
X (unknown).  Python's big integers make the batch width unbounded —
64+ vectors per machine word, any number of words — and every gate of
the network is evaluated once per batch with a handful of bitwise
AND/OR operations, exactly matching the Kleene ternary semantics of
:func:`repro.logic.eval.eval_ternary` (equivalence is enforced by
``tests/test_compiled_engine.py``).

**Fault-injection override contract.**  This is the single normative
description of how faults enter a simulation; the serial simulator's
keyword arguments (``line_overrides`` / ``pin_overrides`` /
``gate_overrides`` in :func:`repro.logic.simulator.simulate`) and the
index-level :class:`FaultInjection` used here express the same three
mechanisms:

* **Line override** — force a *net* to a constant.  Applied wherever
  the net's value is written: at primary-input load and after the
  driving gate evaluates.  This models *stem* stuck-at faults and, in
  word form (:attr:`FaultInjection.words`), lets a caller force an
  arbitrary per-vector pattern onto a net (used by the two-pattern
  stuck-open engine to inject retained values).
* **Pin override** — force one *input pin* of one gate, leaving the
  net itself (and its other fanout branches) untouched.  This models
  *branch* stuck-at faults.  Keyed ``(gate, pin_index)`` serially,
  ``(op_index, pin_index)`` here.
* **Gate override** — replace a gate's local function.  Serially this
  is a callable; here it is the equivalent *local truth table* mapping
  binary input tuples to 0/1/X (any non-binary pin yields X).  This
  models the paper's polarity faults, whose faulty tables come from the
  switch-level engine via
  :meth:`repro.faults.PolarityFault.faulty_table`.

**Compilation memo.**  :func:`compile_network` maps a
:class:`~repro.logic.network.Network` to its :class:`CompiledNetwork`
through a process-wide memo keyed on a cheap structural fingerprint
(PIs, POs and the gate set), so that repeated campaigns which rebuild
structurally identical networks — ``experiment_table3``, compaction,
SOF ATPG, the benchmark drivers — stop recompiling and relevelizing.
``Network.compiled()`` routes through the memo; structural edits drop
the per-instance cache and :func:`invalidate_network` evicts the memo
entry explicitly for mutated networks.

The flattened form also carries :meth:`CompiledNetwork.structures`:
precomputed integer structures (net drivers, levelized fanout cones,
primary-output reachability masks, SCOAP-style controllability
estimates) shared by the fault simulator and the compiled PODEM engine
(:mod:`repro.atpg.podem_compiled`).

Usage::

    from repro.circuits import ripple_carry_adder
    from repro.logic.compiled import FaultInjection, pack_vectors

    network = ripple_carry_adder(8)
    cnet = network.compiled()                  # built once, memoized
    packed = pack_vectors(cnet, vectors)       # all vectors, one batch
    good = cnet.simulate(packed)
    sa0 = FaultInjection(lines={cnet.net_index["s3"]: 0})
    bad = cnet.simulate(packed, sa0)
    diff = cnet.output_diff(good, bad)         # bit k set -> vector k
                                               # detects the fault
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Mapping, Sequence, TYPE_CHECKING

from repro.logic.values import X

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.logic.network import Network

# Opcodes: arity is implied by the stored input-index tuple, so the
# 2- and 3-input variants of a function share one opcode.
OP_BUF = 0
OP_INV = 1
OP_AND = 2
OP_OR = 3
OP_NAND = 4
OP_NOR = 5
OP_XOR = 6
OP_XNOR = 7
OP_MAJ = 8
OP_MIN = 9

_OPCODE = {
    "BUF": OP_BUF,
    "INV": OP_INV,
    "AND2": OP_AND,
    "AND3": OP_AND,
    "OR2": OP_OR,
    "OR3": OP_OR,
    "NAND2": OP_NAND,
    "NAND3": OP_NAND,
    "NOR2": OP_NOR,
    "NOR3": OP_NOR,
    "XOR2": OP_XOR,
    "XOR3": OP_XOR,
    "XNOR2": OP_XNOR,
    "MAJ3": OP_MAJ,
    "MIN3": OP_MIN,
}

#: Opcodes whose output inverts the justification target during PODEM
#: backtrace (mirror of :data:`repro.logic.eval.INVERTING`).
INVERTING_OPS = frozenset({OP_INV, OP_NAND, OP_NOR, OP_XNOR, OP_MIN})

#: Opcode -> non-controlling input value (the PODEM D-frontier
#: objective); opcodes without a controlling value justify 0 (mirror of
#: the legacy :data:`repro.logic.eval.CONTROLLING` handling).
_OBJECTIVE_VALUE = {OP_AND: 1, OP_NAND: 1, OP_OR: 0, OP_NOR: 0}

#: Dual-rail net state for one batch: (ones_rails, zeros_rails), each a
#: list indexed by net index.
PackedState = tuple[list[int], list[int]]


@dataclasses.dataclass(frozen=True)
class NetworkStructures:
    """Precomputed integer structures for search-style algorithms.

    Built once per :class:`CompiledNetwork` (so once per structural
    fingerprint, via the :func:`compile_network` memo) and shared by
    every PODEM search and campaign over the network.

    Attributes:
        driver_op: Net index -> position of the driving op, -1 for
            primary inputs / undriven nets.
        is_pi: Net index -> 1 when the net is a primary input.
        fanout_ops: Net index -> op positions consuming the net, in
            topological (levelized) order — the net's fanout cone
            frontier for event-driven implication.
        inverting: Op position -> 1 when the op inverts (backtrace
            flips the justification target through it).
        objective_value: Op position -> the value PODEM justifies on an
            X input to advance the D-frontier through this op
            (non-controlling value, or 0 for XOR/MAJ-class ops).
        po_reachable: Net index -> 1 when some path leads to a primary
            output (static output-reachability mask; nets with 0 can
            never propagate a fault effect).
        cc0 / cc1: SCOAP-style controllability estimates per net: the
            minimum number of PI assignments (plus gate hops) needed to
            justify a 0 / 1.  Primary inputs cost 1.
    """

    driver_op: tuple[int, ...]
    is_pi: bytes
    fanout_ops: tuple[tuple[int, ...], ...]
    inverting: bytes
    objective_value: bytes
    po_reachable: bytes
    cc0: tuple[int, ...]
    cc1: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class PackedVectors:
    """A batch of test vectors packed bit-per-vector into rail words.

    Attributes:
        n: Number of vectors in the batch.
        mask: ``(1 << n) - 1`` — the all-vectors word.
        ones: Primary-input net index -> ones-rail word.
        zeros: Primary-input net index -> zeros-rail word.
        binary: True when no vector carries an X — every net value is
            then the complement pair ``(w, mask ^ w)``, enabling the
            single-rail fast path for binary-preserving faults.
    """

    n: int
    mask: int
    ones: dict[int, int]
    zeros: dict[int, int]
    binary: bool = False


def pack_vectors(
    cnet: CompiledNetwork,
    vectors: Sequence[Mapping[str, int]],
) -> PackedVectors:
    """Pack test vectors for ``cnet``; missing / X entries stay X.

    Mirrors the serial simulator's convention that a primary input
    absent from the vector is unknown.
    """
    n = len(vectors)
    ones: dict[int, int] = {}
    zeros: dict[int, int] = {}
    for net, idx in cnet.pi_items:
        o = z = 0
        for k, vector in enumerate(vectors):
            value = vector.get(net, X)
            if value == 1:
                o |= 1 << k
            elif value == 0:
                z |= 1 << k
        ones[idx] = o
        zeros[idx] = z
    mask = (1 << n) - 1 if n else 0
    binary = all(ones[i] | zeros[i] == mask for i in ones)
    return PackedVectors(n=n, mask=mask, ones=ones, zeros=zeros,
                         binary=binary)


@dataclasses.dataclass(frozen=True)
class FaultInjection:
    """Index-level fault overrides for one compiled simulation.

    See the module docstring for the override contract.  All maps are
    optional; an empty injection is the fault-free machine.

    Attributes:
        lines: Net index -> forced constant (0/1), applied at every
            write of that net (stem stuck-at faults).
        pins: ``(op_index, pin_index)`` -> forced constant (0/1),
            applied to that single gate input (branch stuck-at faults).
        tables: Op index -> faulty local truth table (binary input
            tuple -> 0/1/X) replacing the gate function (polarity
            faults and other functional faults).
        words: Net index -> forced ``(ones, zeros)`` rail words,
            applied like a line override but with per-vector values
            (stuck-open retained-value injection).
    """

    lines: Mapping[int, int] = dataclasses.field(default_factory=dict)
    pins: Mapping[tuple[int, int], int] = dataclasses.field(
        default_factory=dict
    )
    tables: Mapping[int, Mapping[tuple[int, ...], int]] = dataclasses.field(
        default_factory=dict
    )
    words: Mapping[int, tuple[int, int]] = dataclasses.field(
        default_factory=dict
    )


def minterm_word(
    pin_words: Sequence[tuple[int, int]],
    minterm: Sequence[int],
    mask: int,
) -> int:
    """Word of vectors whose pins definitely equal ``minterm``.

    A vector with any X pin matches no minterm (the serial engines
    treat non-binary local inputs as unresolvable).
    """
    word = mask
    for (o, z), bit in zip(pin_words, minterm):
        word &= o if bit else z
        if not word:
            break
    return word


def eval_table_packed(
    table: Mapping[tuple[int, ...], int],
    pin_words: Sequence[tuple[int, int]],
    mask: int,
) -> tuple[int, int]:
    """Evaluate a local truth table over packed dual-rail pin words.

    Table values outside (0, 1) — X, Z — contribute to neither rail, so
    those vectors come out X, matching the serial gate-override path.
    """
    ones = 0
    zeros = 0
    for minterm, value in table.items():
        if value == 1:
            ones |= minterm_word(pin_words, minterm, mask)
        elif value == 0:
            zeros |= minterm_word(pin_words, minterm, mask)
    return ones, zeros


def _eval_gate(
    code: int, pw: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Dual-rail evaluation of one opcode over packed pin words."""
    a1, a0 = pw[0]
    if code == OP_BUF:
        return a1, a0
    if code == OP_INV:
        return a0, a1
    if code == OP_AND or code == OP_NAND:
        o, z = a1, a0
        for b1, b0 in pw[1:]:
            o &= b1
            z |= b0
        return (z, o) if code == OP_NAND else (o, z)
    if code == OP_OR or code == OP_NOR:
        o, z = a1, a0
        for b1, b0 in pw[1:]:
            o |= b1
            z &= b0
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


def _eval_gate_binary(
    code: int, pv: Sequence[int], mask: int
) -> int:
    """Single-rail (no-X) evaluation of one opcode over packed words."""
    a = pv[0]
    if code == OP_BUF:
        return a
    if code == OP_INV:
        return a ^ mask
    if code == OP_AND or code == OP_NAND:
        for b in pv[1:]:
            a &= b
        return a ^ mask if code == OP_NAND else a
    if code == OP_OR or code == OP_NOR:
        for b in pv[1:]:
            a |= b
        return a ^ mask if code == OP_NOR else a
    if code == OP_XOR or code == OP_XNOR:
        for b in pv[1:]:
            a ^= b
        return a ^ mask if code == OP_XNOR else a
    # OP_MAJ / OP_MIN
    b, c = pv[1], pv[2]
    out = (a & b) | (b & c) | (a & c)
    return out ^ mask if code == OP_MIN else out


class CompiledNetwork:
    """A :class:`~repro.logic.network.Network` flattened for speed.

    Build once per network (``network.compiled()`` caches the instance
    alongside the levelization cache) and reuse across any number of
    batches and fault injections.

    Attributes:
        network: The source network.
        net_names: Dense index -> net name.
        net_index: Net name -> dense index.
        pi_index / po_index: Primary input/output net indices, in the
            network's declared order.
        ops: Per-gate ``(opcode, output_index, input_indices)`` in
            topological order.
        gate_op: Gate name -> position in :attr:`ops`.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        order = network.levelized()
        self.net_index: dict[str, int] = {}
        self.net_names: list[str] = []

        def index_of(net: str) -> int:
            idx = self.net_index.get(net)
            if idx is None:
                idx = len(self.net_names)
                self.net_index[net] = idx
                self.net_names.append(net)
            return idx

        self.pi_index = [index_of(n) for n in network.primary_inputs]
        self.pi_items = list(
            zip(network.primary_inputs, self.pi_index)
        )
        self.ops: list[tuple[int, int, tuple[int, ...]]] = []
        self.gate_op: dict[str, int] = {}
        op_gtypes: list[str] = []
        for gate in order:
            ins = tuple(index_of(n) for n in gate.inputs)
            out = index_of(gate.output)
            self.gate_op[gate.name] = len(self.ops)
            self.ops.append((_OPCODE[gate.gtype], out, ins))
            op_gtypes.append(gate.gtype)
        # Snapshot of the source gate types, aligned with ops: derived
        # structures must never re-read the live network — a memoized
        # CompiledNetwork can outlive (or be shared across) instances
        # whose gate sets have since been edited.
        self.op_gtypes = tuple(op_gtypes)
        self.po_index = [index_of(n) for n in network.primary_outputs]
        self.n_nets = len(self.net_names)
        # Earliest op position touching each net (its driver, or for
        # primary inputs the first reader) — lets delta resimulation
        # skip straight to a fault's cone.
        self.net_first_op = [len(self.ops)] * self.n_nets
        first = self.net_first_op
        for pos, (_, out, ins) in enumerate(self.ops):
            for i in ins:
                if first[i] > pos:
                    first[i] = pos
            if first[out] > pos:
                first[out] = pos
        self._structures: NetworkStructures | None = None
        # Reusable queued-op flags for the hot delta path; every flag
        # is cleared again by the time a delta walk returns.
        self._delta_scratch = bytearray(len(self.ops))

    # ------------------------------------------------------------------
    def structures(self) -> NetworkStructures:
        """Precomputed search structures (built lazily, cached)."""
        if self._structures is None:
            self._structures = self._build_structures()
        return self._structures

    def _build_structures(self) -> NetworkStructures:
        from repro.logic.eval import eval_binary

        n = self.n_nets
        driver_op = [-1] * n
        fanout: list[list[int]] = [[] for _ in range(n)]
        inverting = bytearray(len(self.ops))
        objective = bytearray(len(self.ops))
        for pos, (code, out, ins) in enumerate(self.ops):
            driver_op[out] = pos
            for i in ins:
                fanout[i].append(pos)
            inverting[pos] = 1 if code in INVERTING_OPS else 0
            objective[pos] = _OBJECTIVE_VALUE.get(code, 0)
        is_pi = bytearray(n)
        for idx in self.pi_index:
            is_pi[idx] = 1
        # Static output reachability: reverse sweep over the ops.
        po_reachable = bytearray(n)
        for idx in self.po_index:
            po_reachable[idx] = 1
        for _, out, ins in reversed(self.ops):
            if po_reachable[out]:
                for i in ins:
                    po_reachable[i] = 1
        # SCOAP-style controllability: cheapest binary local assignment
        # producing each output value, via the cell truth function.
        big = 1 << 30
        cc0 = [big] * n
        cc1 = [big] * n
        for idx in self.pi_index:
            cc0[idx] = cc1[idx] = 1
        for (_, out, ins), gtype in zip(self.ops, self.op_gtypes):
            best = [big, big]
            for bits in itertools.product((0, 1), repeat=len(ins)):
                cost = sum(
                    cc1[i] if bit else cc0[i]
                    for i, bit in zip(ins, bits)
                )
                value = eval_binary(gtype, bits)
                if cost < best[value]:
                    best[value] = cost
            cc0[out] = min(big, best[0] + 1)
            cc1[out] = min(big, best[1] + 1)
        return NetworkStructures(
            driver_op=tuple(driver_op),
            is_pi=bytes(is_pi),
            fanout_ops=tuple(tuple(f) for f in fanout),
            inverting=bytes(inverting),
            objective_value=bytes(objective),
            po_reachable=bytes(po_reachable),
            cc0=tuple(cc0),
            cc1=tuple(cc1),
        )

    # ------------------------------------------------------------------
    def simulate(
        self,
        packed: PackedVectors,
        fault: FaultInjection | None = None,
    ) -> PackedState:
        """Simulate the whole batch; returns (ones, zeros) rail arrays."""
        mask = packed.mask
        lines = fault.lines if fault is not None else None
        pins = fault.pins if fault is not None else None
        tables = fault.tables if fault is not None else None
        words = fault.words if fault is not None else None
        forced = (lines or words) if fault is not None else None

        ones = [0] * self.n_nets
        zeros = [0] * self.n_nets
        for idx in self.pi_index:
            ones[idx] = packed.ones[idx]
            zeros[idx] = packed.zeros[idx]
        if forced:
            for idx in self.pi_index:
                o, z = self._force(idx, ones[idx], zeros[idx],
                                   lines, words, mask)
                ones[idx], zeros[idx] = o, z

        for pos, (code, out, ins) in enumerate(self.ops):
            pw = [(ones[i], zeros[i]) for i in ins]
            if pins:
                for k in range(len(ins)):
                    value = pins.get((pos, k))
                    if value is not None:
                        pw[k] = (mask, 0) if value else (0, mask)
            if tables and pos in tables:
                o, z = eval_table_packed(tables[pos], pw, mask)
            else:
                o, z = _eval_gate(code, pw)
            if forced:
                o, z = self._force(out, o, z, lines, words, mask)
            ones[out] = o
            zeros[out] = z
        return ones, zeros

    @staticmethod
    def _force(idx, o, z, lines, words, mask):
        if lines:
            value = lines.get(idx)
            if value is not None:
                return (mask, 0) if value else (0, mask)
        if words:
            forced = words.get(idx)
            if forced is not None:
                return forced
        return o, z

    # ------------------------------------------------------------------
    def simulate_delta(
        self,
        packed: PackedVectors,
        good: PackedState,
        fault: FaultInjection,
    ) -> dict[int, tuple[int, int]]:
        """Event-driven single-fault resimulation against a good state.

        Only the fault's actually-changing cone is recomputed: seed
        positions (override carriers and the drivers/consumers of
        forced nets) go onto a min-heap of op positions, consumers of
        changed outputs are pushed as changes surface, and a fault
        effect that dies re-converges to the good value and stops
        propagating.  Because ops are topologically ordered and fanout
        only points forward, every op is evaluated at most once with
        final input values.  Returns net index -> (ones, zeros) for
        exactly the nets that differ from ``good``.
        """
        if packed.binary and not fault.tables and not fault.words:
            mask = packed.mask
            return {
                idx: (word, mask ^ word)
                for idx, word in self._delta_binary(
                    packed, good, fault
                ).items()
            }
        gones, gzeros = good
        mask = packed.mask
        pins = fault.pins
        tables = fault.tables
        forced: dict[int, tuple[int, int]] = dict(fault.words)
        for idx, value in fault.lines.items():
            forced[idx] = (mask, 0) if value else (0, mask)

        structs = self.structures()
        fanout = structs.fanout_ops
        is_pi = structs.is_pi
        driver = structs.driver_op
        ops = self.ops
        delta: dict[int, tuple[int, int]] = {}
        queued = self._delta_scratch
        heap: list[int] = []
        for idx, fw in forced.items():
            if is_pi[idx]:
                if fw != (gones[idx], gzeros[idx]):
                    delta[idx] = fw
                    for pos in fanout[idx]:
                        if not queued[pos]:
                            queued[pos] = 1
                            heap.append(pos)
            else:
                pos = driver[idx]
                if pos >= 0 and not queued[pos]:
                    queued[pos] = 1
                    heap.append(pos)
        for pos, _pin in pins:
            if not queued[pos]:
                queued[pos] = 1
                heap.append(pos)
        for pos in tables:
            if not queued[pos]:
                queued[pos] = 1
                heap.append(pos)
        heapq.heapify(heap)
        while heap:
            pos = heapq.heappop(heap)
            queued[pos] = 0
            code, out, ins = ops[pos]
            pw = []
            for k, i in enumerate(ins):
                value = pins.get((pos, k)) if pins else None
                if value is not None:
                    pw.append((mask, 0) if value else (0, mask))
                else:
                    d = delta.get(i)
                    pw.append(d if d is not None
                              else (gones[i], gzeros[i]))
            table = tables.get(pos) if tables else None
            if table is not None:
                o, z = eval_table_packed(table, pw, mask)
            else:
                o, z = _eval_gate(code, pw)
            fw = forced.get(out)
            if fw is not None:
                o, z = fw
            if o != gones[out] or z != gzeros[out]:
                delta[out] = (o, z)
                for nxt in fanout[out]:
                    if not queued[nxt]:
                        queued[nxt] = 1
                        heapq.heappush(heap, nxt)
        return delta

    def detect_word(
        self,
        packed: PackedVectors,
        good: PackedState,
        fault: FaultInjection,
    ) -> int:
        """Campaign fast path: delta-resimulate ``fault`` and return
        the strict-difference word over the primary outputs directly."""
        if packed.binary and not fault.tables and not fault.words:
            delta = self._delta_binary(packed, good, fault)
            if not delta:
                return 0
            gones = good[0]
            diff = 0
            for idx in self.po_index:
                word = delta.get(idx)
                if word is not None:
                    diff |= word ^ gones[idx]
            return diff
        return self.output_diff_delta(
            good, self.simulate_delta(packed, good, fault)
        )

    def _delta_binary(
        self,
        packed: PackedVectors,
        good: PackedState,
        fault: FaultInjection,
    ) -> dict[int, int]:
        """Single-rail delta resimulation: X-free batch, line/pin fault.

        The zeros rail is everywhere the complement of the ones rail,
        so only ones words are propagated.  Same heap-driven fanout
        walk as :meth:`simulate_delta` — only ops inside the changing
        cone are evaluated — returning changed nets' ones words.
        """
        gones = good[0]
        mask = packed.mask
        pins = fault.pins
        lines = fault.lines
        # Fast paths for the campaign-dominant single-fault shapes: a
        # lone stem (line) or branch (pin) fault.  A stem force applies
        # at the net's every write, so the forced word *is* the net's
        # value — no driver re-evaluation needed — and an unexcited
        # fault (forced word equals the good word) changes nothing.
        if not pins and len(lines) == 1:
            idx, value = next(iter(lines.items()))
            fw = mask if value else 0
            if fw == gones[idx]:
                return {}
            return self._walk_binary({idx: fw}, gones, mask)
        if not lines and len(pins) == 1:
            (pos, k), value = next(iter(pins.items()))
            code, out, ins = self.ops[pos]
            fw = mask if value else 0
            if fw == gones[ins[k]]:
                return {}
            pv = [gones[i] for i in ins]
            pv[k] = fw
            word = _eval_gate_binary(code, pv, mask)
            if word == gones[out]:
                return {}
            return self._walk_binary({out: word}, gones, mask)
        structs = self.structures()
        fanout = structs.fanout_ops
        is_pi = structs.is_pi
        driver = structs.driver_op
        ops = self.ops
        delta: dict[int, int] = {}
        queued = self._delta_scratch
        heap: list[int] = []
        forced = {
            idx: mask if value else 0
            for idx, value in lines.items()
        }
        for idx, fw in forced.items():
            if is_pi[idx]:
                if fw != gones[idx]:
                    delta[idx] = fw
                    for pos in fanout[idx]:
                        if not queued[pos]:
                            queued[pos] = 1
                            heap.append(pos)
            else:
                pos = driver[idx]
                if pos >= 0 and not queued[pos]:
                    queued[pos] = 1
                    heap.append(pos)
        for pos, _pin in pins:
            if not queued[pos]:
                queued[pos] = 1
                heap.append(pos)
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        get_delta = delta.get
        get_forced = forced.get
        while heap:
            pos = heappop(heap)
            queued[pos] = 0
            code, out, ins = ops[pos]
            if pins:
                pv = []
                for k, i in enumerate(ins):
                    value = pins.get((pos, k))
                    if value is not None:
                        pv.append(mask if value else 0)
                    else:
                        d = get_delta(i)
                        pv.append(d if d is not None else gones[i])
            else:
                pv = [
                    d if (d := get_delta(i)) is not None
                    else gones[i]
                    for i in ins
                ]
            word = _eval_gate_binary(code, pv, mask)
            fw = get_forced(out)
            if fw is not None:
                word = fw
            if word != gones[out]:
                delta[out] = word
                for nxt in fanout[out]:
                    if not queued[nxt]:
                        queued[nxt] = 1
                        heappush(heap, nxt)
        return delta

    def _walk_binary(
        self, delta: dict[int, int], gones: list[int], mask: int
    ) -> dict[int, int]:
        """Propagate seeded single-rail deltas through the fanout cones.

        ``delta`` maps already-changed nets to their faulty ones words;
        no per-op overrides apply (the single-fault fast paths fold the
        override into the seed), so the walk is pure gate evaluation.
        """
        fanout = self.structures().fanout_ops
        ops = self.ops
        queued = self._delta_scratch
        heap: list[int] = []
        for idx in delta:
            for pos in fanout[idx]:
                if not queued[pos]:
                    queued[pos] = 1
                    heap.append(pos)
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        get_delta = delta.get
        while heap:
            pos = heappop(heap)
            queued[pos] = 0
            code, out, ins = ops[pos]
            pv = [
                d if (d := get_delta(i)) is not None else gones[i]
                for i in ins
            ]
            word = _eval_gate_binary(code, pv, mask)
            if word != gones[out]:
                delta[out] = word
                for nxt in fanout[out]:
                    if not queued[nxt]:
                        queued[nxt] = 1
                        heappush(heap, nxt)
        return delta

    def output_diff_delta(
        self, good: PackedState, delta: Mapping[int, tuple[int, int]]
    ) -> int:
        """Strict-difference word over POs for a delta resimulation."""
        gones, gzeros = good
        diff = 0
        for idx in self.po_index:
            d = delta.get(idx)
            if d is not None:
                diff |= (gones[idx] & d[1]) | (gzeros[idx] & d[0])
        return diff

    # ------------------------------------------------------------------
    def output_diff(self, good: PackedState, bad: PackedState) -> int:
        """Word of vectors on which the machines *definitely* differ.

        Matches :func:`repro.logic.simulator.vectors_differ` in strict
        mode: an X on either side is never counted as a difference.
        """
        go, gz = good
        bo, bz = bad
        diff = 0
        for idx in self.po_index:
            diff |= (go[idx] & bz[idx]) | (gz[idx] & bo[idx])
        return diff

    def gate_input_words(
        self, state: PackedState, gate: str
    ) -> list[tuple[int, int]]:
        """Dual-rail words on one gate's input pins."""
        ones, zeros = state
        _, _, ins = self.ops[self.gate_op[gate]]
        return [(ones[i], zeros[i]) for i in ins]

    def gate_output_index(self, gate: str) -> int:
        """Net index of one gate's output."""
        return self.ops[self.gate_op[gate]][1]

    def outputs_unpacked(
        self, state: PackedState, k: int
    ) -> tuple[int, ...]:
        """Ternary primary-output values of vector ``k`` (debug aid)."""
        ones, zeros = state
        bit = 1 << k
        return tuple(
            1 if ones[i] & bit else 0 if zeros[i] & bit else X
            for i in self.po_index
        )

    def __repr__(self) -> str:
        return (
            f"CompiledNetwork({self.network.name!r}: "
            f"{self.n_nets} nets, {len(self.ops)} ops)"
        )


# ---------------------------------------------------------------------------
# Per-structure compilation memo
# ---------------------------------------------------------------------------

#: Structural fingerprint -> CompiledNetwork.  Bounded FIFO so runaway
#: generators (random-circuit sweeps) cannot grow it without limit.
_COMPILE_MEMO: dict[tuple, CompiledNetwork] = {}
_COMPILE_MEMO_MAX = 64

#: Hit/miss/eviction counters for the memo (``instance_hits`` are the
#: per-``Network`` short-circuit, ``hits`` the cross-instance memo).
#: Plain dict so the core stays free of the service layer; the metrics
#: registry reads it through a collector
#: (:func:`repro.service.metrics.install_cache_collectors`) and
#: ``repro cache stats`` renders it.
_MEMO_STATS = {"instance_hits": 0, "hits": 0, "misses": 0, "evictions": 0}


def compile_memo_stats() -> dict[str, int]:
    """Snapshot of the :func:`compile_network` memo counters."""
    return dict(_MEMO_STATS)


def clear_compile_memo() -> None:
    """Drop every memoised compiled network (and reset the counters).
    Networks keep their per-instance cache; use
    :func:`invalidate_network` to drop that too."""
    _COMPILE_MEMO.clear()
    for key in _MEMO_STATS:
        _MEMO_STATS[key] = 0


def structural_fingerprint(network: Network) -> tuple:
    """Cheap structural identity of a network.

    Two networks with equal fingerprints levelize and compile to the
    same flattened form: the fingerprint covers the name, the PI/PO
    lists (ordered — order defines the packed-vector layout) and the
    full gate set.  The exact tuple is used as the memo key, so there
    is no hash-collision risk.
    """
    return (
        network.name,
        tuple(network.primary_inputs),
        tuple(network.primary_outputs),
        tuple(sorted(
            (g.name, g.gtype, g.inputs, g.output)
            for g in network.gates.values()
        )),
        tuple(network.flops.items()),
    )


def compile_network(network: Network) -> CompiledNetwork:
    """Compile ``network``, memoized on its structural fingerprint.

    The per-instance cache (``network._compiled``) short-circuits the
    common case; on a miss, structurally identical networks built in
    earlier campaigns share one :class:`CompiledNetwork` (and thus one
    levelization, one op array and one :class:`NetworkStructures`).
    """
    cnet = network._compiled
    if cnet is not None:
        _MEMO_STATS["instance_hits"] += 1
        return cnet
    if network.flops:
        from repro.logic.network import SequentialNetworkError

        raise SequentialNetworkError(
            f"{network.name!r} is sequential ({len(network.flops)} "
            f"flops); time-frame expand it first: "
            f"repro.logic.sequential.unroll_network(network, n_frames)"
        )
    key = structural_fingerprint(network)
    cnet = _COMPILE_MEMO.get(key)
    if cnet is None:
        _MEMO_STATS["misses"] += 1
        cnet = CompiledNetwork(network)
        while len(_COMPILE_MEMO) >= _COMPILE_MEMO_MAX:
            del _COMPILE_MEMO[next(iter(_COMPILE_MEMO))]
            _MEMO_STATS["evictions"] += 1
        _COMPILE_MEMO[key] = cnet
    else:
        _MEMO_STATS["hits"] += 1
    network._compiled = cnet
    return cnet


def invalidate_network(network: Network) -> None:
    """Explicitly drop every compiled form of ``network``.

    Structural edits through the :class:`~repro.logic.network.Network`
    API already clear the per-instance cache; call this for networks
    mutated behind the API (or to force a recompile) so the shared memo
    cannot serve a stale flattened form.
    """
    network._drop_derived()
    _COMPILE_MEMO.pop(structural_fingerprint(network), None)
