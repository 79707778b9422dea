"""Compiled PODEM: the five-valued D-calculus on the compiled op arrays.

This is the fast counterpart of the dict-based search in
:mod:`repro.atpg.podem`, built directly on the flattened op arrays of
:class:`repro.logic.compiled.CompiledNetwork` (obtained through the
:func:`repro.logic.compiled.compile_network` memo, so PODEM and the
fault simulator share one compiled form per network structure).

**One 4-bit code per net.**  The D-calculus runs two machines at once,
the *good* (fault-free) one and the *faulty* one, each ternary.  A
net's five-valued state is one small integer: the dual-rail (ones,
zeros) words of the compiled engine, one bit per machine, packed side
by side as ``ones | zeros << 2``:

===========  =====================  ========
value        bits (G1 F1 G0 F0)     code
===========  =====================  ========
``0``        G0 F0                  ``0b1100``
``1``        G1 F1                  ``0b0011``
``D``        G1 F0                  ``0b1001``
``D'``       F1 G0                  ``0b0110``
``X``        no bit for the unknown machine
===========  =====================  ========

A gate is then a single table lookup: its input codes, four bits each,
form the index (pin ``k`` in bits ``4k..4k+3``) into a table of the
output code.  The tables come from AND/OR/XOR/MAJ folds over codes
(the same Kleene operators as :func:`repro.logic.compiled._eval_gate`,
done on both machines at once) plus an invert flag, so there is no
opcode dispatch in the hot loop.  Small lookup tables over the 16
codes answer the scans' questions: is a net resolved in both machines
(:data:`_RESOLVED`), does it carry D/D' (:data:`_EFFECT`), what is its
good value (:data:`_GOOD_VALUE`).

Faults are folded into the tables of the ops they touch, with the
override contract of the fault simulator: a stem stuck-at forces the
faulty bits wherever the net is written (its driver's table, or the
load of a primary input), a branch fault forces the faulty bits of one
pin nibble of the index, and a functional (gate) fault sends the
faulty machine through a local truth table (any X pin -> X).  A faulty
machine is therefore the healthy one with a few op tables swapped.

**Event-driven implication.**  Instead of re-simulating the whole
network per PODEM decision (the legacy ``_FaultMachine.imply``), the
:class:`_DMachine` keeps the full net state resident and propagates
primary-input (un)assignments only through their fanout cone.  Ops
carry a static level (longest path from the inputs), and changed ops
are queued on one event list per level and processed level by level,
so every op is evaluated after all its changed inputs; propagation
stops where a recomputed output equals the stored code.  A backtrack
applies all its unassignments and the flip first and then re-implies
once (:meth:`_DMachine.set_pis`), so no state snapshots are needed.

**Search equivalence.**  The search mirrors the decision rules of the
dict-based oracle (``tests/oracles/podem_legacy.py``) *exactly*
(objective order, D-frontier traversal in levelized order,
first-X-input backtrace, backtrack bookkeeping, safety bounds), so for
any fault both searches make identical decisions, consume identical
backtrack budgets, and return identical vectors and identical
testable / untestable / aborted classifications --
``tests/test_podem_compiled.py`` enforces this across every generated
benchmark and fault class, and on a cpx432 subset.  The D-frontier
walk, the X-path check and the output check visit only the fault's
static fanout cone: fault effects cannot exist anywhere else.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

from repro.atpg.podem import PodemResult
from repro.logic.compiled import (
    INVERTING_OPS,
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
    compile_network,
)
from repro.logic.network import Network
from repro.logic.values import X

if False:  # pragma: no cover - typing only
    from repro.faults.logic import StuckAtFault

#: Code bits: good machine 1, faulty machine 1, good 0, faulty 0.
G1 = 0b0001
F1 = 0b0010
G0 = 0b0100
F0 = 0b1000
#: Good-machine bits and faulty-machine bits of a code.
GOOD_BITS = G1 | G0
FAULT_BITS = F1 | F0
#: The ones rail (low two bits) and the zeros rail (high two bits).
ONES = G1 | F1
ZEROS = G0 | F0

#: Code of a primary input under an assignment of 0, 1 or X.
_PI_CODE = {0: G0 | F0, 1: G1 | F1, X: 0}

#: Code -> both machines resolved (no X in either).
_RESOLVED = bytes(
    1 if c & GOOD_BITS and c & FAULT_BITS else 0 for c in range(16)
)
#: Code -> the machines disagree (D or D').
_EFFECT = bytes(
    1 if (c & G1 and c & F0) or (c & G0 and c & F1) else 0
    for c in range(16)
)
#: Code -> good-machine ternary value.
_GOOD_VALUE = bytes(
    1 if c & G1 else 0 if c & G0 else X for c in range(16)
)


def _and(a: int, b: int) -> int:
    return (a & b & ONES) | ((a | b) & ZEROS)


def _or(a: int, b: int) -> int:
    return ((a | b) & ONES) | (a & b & ZEROS)


def _xor(a: int, b: int) -> int:
    a1, a0, b1, b0 = a & ONES, a >> 2, b & ONES, b >> 2
    return (a1 & b0) | (a0 & b1) | (((a1 & b1) | (a0 & b0)) << 2)


def _invert(c: int) -> int:
    return ((c & ONES) << 2) | (c >> 2)


#: Opcode -> fold of two codes (BUF/INV are unary, MAJ/MIN ternary).
_FOLDS = {
    OP_AND: _and,
    OP_OR: _or,
    OP_XOR: _xor,
}
#: Inverting opcode -> the non-inverting opcode it complements.
_BASE_OP = {
    OP_INV: OP_BUF, OP_NAND: OP_AND, OP_NOR: OP_OR, OP_XNOR: OP_XOR,
    OP_MIN: OP_MAJ,
}


@functools.lru_cache(maxsize=None)
def _gate_table(opcode: int, arity: int) -> tuple[int, ...]:
    """Output code of one healthy op, indexed by its packed input codes."""
    base = _BASE_OP.get(opcode, opcode)
    invert = opcode in INVERTING_OPS
    table = []
    for index in range(16 ** arity):
        pins = [(index >> (4 * k)) & 15 for k in range(arity)]
        if base == OP_BUF:
            out = pins[0]
        elif base == OP_MAJ:
            a, b, c = pins
            out = (a & b) | (b & c) | (a & c)
        else:
            fold = _FOLDS[base]
            out = pins[0]
            for pin in pins[1:]:
                out = fold(out, pin)
        table.append(_invert(out) if invert else out)
    return tuple(table)


def _force_faulty(code: int, value: int) -> int:
    """Force the faulty-machine bits of one code to ``value``."""
    return (code & GOOD_BITS) | (F1 if value else F0)


@functools.lru_cache(maxsize=128)
def _faulted_table(
    opcode: int,
    arity: int,
    pin_forces: tuple[tuple[int, int], ...],
    local: tuple[tuple[tuple[int, ...], int], ...] | None,
    stem: int,
) -> tuple[int, ...]:
    """The table of an op with faults folded in.

    ``pin_forces`` are branch faults as ``(pin, value)``; ``local`` is
    a functional fault's truth table as sorted items (the faulty
    machine goes through it, the good one through the healthy gate);
    ``stem`` is the stuck-at value of the op's output net, or -1.
    """
    healthy = _gate_table(opcode, arity)
    clear = 0
    force = 0
    for pin, value in pin_forces:
        clear |= FAULT_BITS << (4 * pin)
        force |= (F1 if value else F0) << (4 * pin)
    indices = [(i & ~clear) | force for i in range(16 ** arity)]
    if local is None:
        table = [healthy[i] for i in indices]
    else:
        # The faulty output depends only on the pins' faulty bits; a
        # pin with neither bit set (X) matches no key and yields X.
        faulty = {}
        for minterm, value in local:
            if value not in (0, 1):
                continue
            key = 0
            for k, bit in enumerate(minterm):
                key |= (F1 if bit else F0) << (4 * k)
            faulty[key] = F1 if value else F0
        mask = 0xAAA >> (4 * (3 - arity))
        table = [
            (healthy[i] & GOOD_BITS) | faulty.get(i & mask, 0)
            for i in indices
        ]
    if stem >= 0:
        table = [_force_faulty(c, stem) for c in table]
    return tuple(table)


class _Kernel:
    """Per-network implication structures, built once and cached on
    the compiled network.

    Attributes:
        items: Op position -> ``(out, p0, p1, p2, table)``: the output
            net, three pin nets (pins past the op's arity read a
            padding net, index ``n_nets``, whose code stays 0) and the
            healthy table, indexed by ``code[p0] | code[p1] << 4 |
            code[p2] << 8``.
        level: Op position -> static level (0 for ops fed by primary
            inputs only); every op's fanout sits at a higher level.
        n_levels: Number of distinct levels.
        base: Net codes under the empty assignment (all inputs X, no
            fault), with the padding net last.
    """

    def __init__(self, cnet: CompiledNetwork) -> None:
        pad = cnet.n_nets
        net_level = [0] * (pad + 1)
        level = []
        items = []
        for code, out, ins in cnet.ops:
            lv = max(net_level[i] for i in ins)
            level.append(lv)
            net_level[out] = lv + 1
            pins = (tuple(ins) + (pad, pad))[:3]
            items.append((out, *pins, _gate_table(code, len(ins))))
        self.items = items
        self.level = level
        self.n_levels = max(level, default=-1) + 1
        base = [0] * (pad + 1)
        for out, a, b, c, table in items:
            base[out] = table[base[a] | base[b] << 4 | base[c] << 8]
        self.base = base


def _kernel(cnet: CompiledNetwork) -> _Kernel:
    """The network's :class:`_Kernel` (built on first use)."""
    kernel = getattr(cnet, "_dcalc", None)
    if kernel is None:
        kernel = cnet._dcalc = _Kernel(cnet)
    return kernel


class _DMachine:
    """Event-driven five-valued implication over flattened op arrays.

    The index-level replacement for the legacy ``_FaultMachine``: net
    state lives in one list of 4-bit codes (see the module docstring),
    faults are folded into the tables of the ops they touch, and
    :meth:`set_pis` re-implies only the changed fanout cone.  It also
    holds the PODEM decision stack (:meth:`decide`, :meth:`backtrack`).
    """

    def __init__(
        self,
        cnet: CompiledNetwork,
        line_idx: int = -1,
        line_value: int = 0,
        pin_forces: Mapping[int, tuple[tuple[int, int], ...]] | None = None,
        tables: Mapping[int, Mapping[tuple[int, ...], int]] | None = None,
    ) -> None:
        kernel = _kernel(cnet)
        structs = cnet.structures()
        self.line_idx = line_idx
        self.line_value = line_value
        self.assign: dict[int, int] = {}
        #: Decision stack: ``(pi, value, both_values_tried)``.
        self.stack: list[tuple[int, int, bool]] = []
        self.backtracks = 0
        self.fanout = structs.fanout_ops
        self.level = kernel.level
        self.code = list(kernel.base)
        self.items = items = list(kernel.items)
        self._queued = bytearray(len(items))
        self._buckets: list[list[int]] = [
            [] for _ in range(kernel.n_levels)
        ]
        pin_forces = pin_forces or {}
        tables = tables or {}
        faulted = set(pin_forces) | set(tables)
        stem_op = -1
        if line_idx >= 0 and not structs.is_pi[line_idx]:
            stem_op = structs.driver_op[line_idx]
            if stem_op >= 0:
                faulted.add(stem_op)
        for pos in faulted:
            opcode, _, ins = cnet.ops[pos]
            local = tables.get(pos)
            out, a, b, c, _ = items[pos]
            items[pos] = (out, a, b, c, _faulted_table(
                opcode,
                len(ins),
                tuple(pin_forces.get(pos, ())),
                None if local is None else tuple(sorted(local.items())),
                line_value if pos == stem_op else -1,
            ))
        # Start from the cached fault-free all-X state and re-imply
        # only the fault's cone, instead of evaluating every op.
        seeds = list(faulted)
        if line_idx >= 0 and structs.is_pi[line_idx]:
            self.code[line_idx] = self._pi_code(line_idx)
            seeds.extend(self.fanout[line_idx])
        if seeds:
            self._propagate(seeds)

    def _pi_code(self, idx: int) -> int:
        """Code a primary input loads (assignment + stem fault)."""
        code = _PI_CODE[self.assign.get(idx, X)]
        if idx == self.line_idx:
            code = _force_faulty(code, self.line_value)
        return code

    def decide(self, pi: int, value: int) -> None:
        """Assign a primary input as the newest decision and re-imply."""
        self.set_pis(((pi, value),))
        self.stack.append((pi, value, False))

    def backtrack(self) -> bool:
        """Flip the deepest untried decision; False when exhausted.

        Decisions tried both ways are unassigned on the way down.  The
        unassignments and the flip go to :meth:`set_pis` as one batch,
        so a backtrack costs one re-implication however deep it
        unwinds.
        """
        changes: list[tuple[int, int]] = []
        stack = self.stack
        while stack:
            pi, value, tried = stack.pop()
            if not tried:
                changes.append((pi, 1 - value))
                stack.append((pi, 1 - value, True))
                self.backtracks += 1
                self.set_pis(changes)
                return True
            changes.append((pi, X))
        self.set_pis(changes)
        return False

    def set_pis(self, changes: Sequence[tuple[int, int]]) -> None:
        """Apply primary-input (un)assignments, then re-imply once.

        Each change is ``(net, value)`` with value 0, 1 or
        :data:`~repro.logic.values.X` (unassign), applied in order to
        the assignment.  The fanout cones of the inputs whose code
        changed are then re-implied together, so the cost is the size
        of the *changed* cone, not the network.
        """
        assign = self.assign
        for idx, value in changes:
            if value == X:
                assign.pop(idx, None)
            else:
                assign[idx] = value
        code = self.code
        fanout = self.fanout
        seeds: list[int] = []
        for idx, _ in changes:
            new = self._pi_code(idx)
            if new != code[idx]:
                code[idx] = new
                seeds.extend(fanout[idx])
        if seeds:
            self._propagate(seeds)

    def _propagate(self, seeds: Sequence[int]) -> None:
        """Re-imply from the given op positions until the state settles.

        The hot loop of the engine: queued ops wait on the event list
        of their level, and levels are drained in increasing order, so
        each op is evaluated once, after all its changed inputs.  An op
        is one table lookup; only an output that changed queues its
        fanout.
        """
        code = self.code
        items = self.items
        fanout = self.fanout
        level = self.level
        buckets = self._buckets
        queued = self._queued
        lo = hi = level[seeds[0]]
        for pos in seeds:
            if not queued[pos]:
                queued[pos] = 1
                lv = level[pos]
                buckets[lv].append(pos)
                if lv < lo:
                    lo = lv
                elif lv > hi:
                    hi = lv
        lv = lo
        while lv <= hi:
            bucket = buckets[lv]
            if bucket:
                for pos in bucket:
                    queued[pos] = 0
                    out, a, b, c, table = items[pos]
                    new = table[code[a] | code[b] << 4 | code[c] << 8]
                    if new != code[out]:
                        code[out] = new
                        for nxt in fanout[out]:
                            if not queued[nxt]:
                                queued[nxt] = 1
                                nl = level[nxt]
                                buckets[nl].append(nxt)
                                if nl > hi:
                                    hi = nl
                bucket.clear()
            lv += 1


def _fault_cone(
    cnet: CompiledNetwork, source_ops: Sequence[int], source_net: int
) -> list[int]:
    """Op positions in the static fanout cone of the fault, in order.

    The cone holds every op a fault effect can reach: the ops carrying
    a fault (``source_ops``) and the readers of the faulted net
    (``source_net``, -1 for none), then their transitive fanout.
    """
    fanout = cnet.structures().fanout_ops
    ops = cnet.ops
    stack = list(source_ops)
    if source_net >= 0:
        stack.extend(fanout[source_net])
    seen = set(stack)
    while stack:
        for nxt in fanout[ops[stack.pop()][1]]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(seen)


def _install_fault(
    cnet: CompiledNetwork,
    line_fault: "StuckAtFault | None",
    gate_fault_name: str | None,
    gate_fault_table: Mapping[tuple[int, ...], int] | None,
) -> tuple[_DMachine, int, int, list[int]]:
    """The D-machine for one fault, and where the fault acts.

    Returns ``(machine, fault_op, origin, cone)``: the op where the
    fault effect first materialises (-1 for a stem fault), the net where
    it does (-1 without a fault), and the fault's static fanout cone --
    the only place a fault effect, and so a D-frontier gate, can ever
    exist.
    """
    net_index = cnet.net_index
    line_idx = -1
    line_value = 0
    pin_forces: dict[int, tuple[tuple[int, int], ...]] = {}
    tables: dict[int, Mapping[tuple[int, ...], int]] = {}
    fault_op = -1
    origin = -1
    if gate_fault_name is not None:
        fault_op = cnet.gate_op[gate_fault_name]
        tables[fault_op] = gate_fault_table or {}
        origin = cnet.ops[fault_op][1]
    if line_fault is not None:
        if line_fault.is_branch:
            pos = cnet.gate_op[line_fault.gate]
            pin_forces[pos] = ((line_fault.pin, line_fault.value),)
            if fault_op < 0:
                fault_op = pos
                origin = cnet.ops[pos][1]
        else:
            line_idx = net_index[line_fault.net]
            line_value = line_fault.value
            if origin < 0:
                origin = line_idx
    machine = _DMachine(
        cnet,
        line_idx=line_idx,
        line_value=line_value,
        pin_forces=pin_forces,
        tables=tables,
    )
    cone = _fault_cone(cnet, [*tables, *pin_forces], line_idx)
    return machine, fault_op, origin, cone


def compiled_justify_and_propagate(
    network: Network,
    condition: Sequence[tuple[str, int]],
    line_fault: "StuckAtFault | None" = None,
    gate_fault_name: str | None = None,
    gate_fault_table: Mapping[tuple[int, ...], int] | None = None,
    propagate: bool = True,
    max_backtracks: int = 500,
) -> PodemResult:
    """Generic PODEM on the compiled engine.

    Same contract as :func:`repro.atpg.podem.justify_and_propagate`
    (which calls it), with the oracle's first-X-input backtrace, so
    results match the dict-based oracle bit for bit.
    """
    cnet = compile_network(network)
    structs = cnet.structures()
    net_index = cnet.net_index
    cond = [(net_index[net], required) for net, required in condition]

    machine, fault_op, origin, cone = _install_fault(
        cnet, line_fault, gate_fault_name, gate_fault_table
    )
    code = machine.code
    ops = cnet.ops
    objective_value = structs.objective_value
    cone_items = [
        (pos, ops[pos][1], ops[pos][2], objective_value[pos])
        for pos in cone
    ]
    cone_ops = [(out, ins) for _, out, ins, _ in cone_items]
    # Nets that can carry a fault effect: the cone's op outputs, the
    # origin and a faulted stem.
    cone_nets = [out for out, _ in cone_ops]
    cone_nets.extend(i for i in (origin, machine.line_idx) if i >= 0)
    po_set = set(cnet.po_index)
    cone_pos = [idx for idx in cone_nets if idx in po_set]
    po_reach = structs.po_reachable

    def result_vector() -> dict[str, int]:
        names = cnet.net_names
        return {names[i]: v for i, v in machine.assign.items()}

    def x_path_exists() -> bool:
        """Can some fault effect still reach a primary output through
        unresolved nets?

        Single forward pass over the cone's ops in topological order
        (the legacy fixpoint collapses to one sweep because every edge
        points forward), with seeds pruned by the static output-
        reachability mask -- an effect on a net that cannot
        structurally reach a PO never matters.
        """
        reach = bytearray(cnet.n_nets)
        seeded = False
        has_effect = False
        for idx in cone_nets:
            if _EFFECT[code[idx]]:
                has_effect = True
                if po_reach[idx]:
                    reach[idx] = 1
                    seeded = True
        if not has_effect and origin >= 0:
            # No D yet: the origin net (where the effect will
            # materialise) seeds the search while it is unresolved.
            if not _RESOLVED[code[origin]] and po_reach[origin]:
                reach[origin] = 1
                seeded = True
        if not seeded:
            return False
        for out, ins in cone_ops:
            if reach[out] or _RESOLVED[code[out]]:
                continue  # reached, or blocked: resolved in both machines
            for i in ins:
                if reach[i]:
                    reach[out] = 1
                    break
        for idx in cone_pos:
            if reach[idx]:
                return True
        return False

    def status() -> tuple[bool, bool]:
        """Returns (success, dead_end) over the resident state."""
        justified = True
        for idx, required in cond:
            good = _GOOD_VALUE[code[idx]]
            if good == X:
                justified = False
            elif good != required:
                return False, True
        if not propagate:
            return justified, False
        if justified:
            for idx in cone_pos:
                if _EFFECT[code[idx]]:
                    return True, False
            if not x_path_exists():
                return False, True
        return False, False

    def pick_objective() -> tuple[int, int] | None:
        for idx, required in cond:
            if _GOOD_VALUE[code[idx]] == X:
                return idx, required
        if not propagate:
            return None
        # D-frontier walk in levelized order: first unresolved gate
        # carrying (or materialising) the fault effect that still has
        # an X pin to justify.
        for pos, out, ins, value in cone_items:
            if _RESOLVED[code[out]]:
                continue  # output resolved: fault cannot advance here
            if pos != fault_op:
                for i in ins:
                    if _EFFECT[code[i]]:
                        break
                else:
                    continue  # no fault effect on any input
            for i in ins:
                if not _RESOLVED[code[i]]:
                    return i, value
        return None

    def backtrace(net: int, target: int) -> tuple[int, int] | None:
        """Map an objective to a PI decision through X lines."""
        is_pi = structs.is_pi
        driver = structs.driver_op
        inverting = structs.inverting
        for _ in range(len(ops) + len(cnet.pi_index) + 1):
            if is_pi[net]:
                return net, target
            pos = driver[net]
            if pos < 0:
                return None
            if inverting[pos]:
                target = 1 - target
            for i in ops[pos][2]:
                if not _RESOLVED[code[i]]:
                    net = i
                    break
            else:
                return None
        return None

    for _ in range(20000):  # hard safety bound (mirrors the legacy)
        success, dead = status()
        if success:
            return PodemResult(True, result_vector(), machine.backtracks)
        objective = None if dead else pick_objective()
        decision = (
            backtrace(*objective) if objective is not None else None
        )
        if decision is None:
            # Dead end, nothing to decide, or unreachable objective.
            if not machine.backtrack():
                return PodemResult(False, {}, machine.backtracks)
            if machine.backtracks > max_backtracks:
                return PodemResult(
                    False, {}, machine.backtracks, aborted=True
                )
            continue
        machine.decide(*decision)
    return PodemResult(False, {}, machine.backtracks, aborted=True)


_BATCH_DROP_MIN_FAULTS = 512


def batch_drop_detected(
    cnet: CompiledNetwork,
    vector: Mapping[str, int],
    pending: Mapping[str, "FaultInjection"],
) -> set[str]:
    """Names in ``pending`` whose fault ``vector`` detects.

    The fault-dropping inner loop of :func:`repro.atpg.podem.
    run_stuck_at_atpg`: one freshly generated test against every
    still-undetected fault.  Below ``_BATCH_DROP_MIN_FAULTS`` pending
    faults the per-fault single-word :meth:`CompiledNetwork.detect_word`
    resimulation wins (one vector packs into one bit); at ISCAS scale
    the pending set dominates, so the whole set runs as a single
    fault-major 2-D sweep on :mod:`repro.logic.multiword` instead of a
    Python loop of full resimulations.  Both paths score detection with
    the same strict dual-rail diff, so the drop set is bit-identical.
    """
    names = list(pending)
    if len(names) >= _BATCH_DROP_MIN_FAULTS:
        from repro.logic import multiword as mw

        mv = mw.pack_vectors_multiword(cnet, [vector])
        good = mw.simulate_good(cnet, mv)
        words = mw.batch_detect(
            cnet, mv, good, [pending[n] for n in names], fault_chunk=1024
        )
        return {n for n, w in zip(names, words) if w}
    from repro.logic.compiled import pack_vectors

    packed = pack_vectors(cnet, [vector])
    good = cnet.simulate(packed)
    return {
        n for n in names if cnet.detect_word(packed, good, pending[n])
    }
