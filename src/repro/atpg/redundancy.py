"""Implication-based redundancy proofs for stuck-at faults.

PODEM proves a fault untestable only by exhausting its decision tree,
so on a redundant fault of a large reconvergent circuit it usually runs
out of backtracks instead and reports an abort.  :func:`proven_redundant`
settles many of those faults before any search: it collects values that
*every* test of the fault must put on the good machine, implies them
through the network, and a conflict proves that no test exists.

**Necessary conditions.**  A test (a binary input vector; a partial one
detects only if all its completions do) must

* excite the fault: the faulted net carries ``1 - value``;
* for a branch fault, pass the effect through the faulted gate: its
  other pins carry the non-controlling value (1 for AND/NAND, 0 for
  OR/NOR);
* pass the effect through every *dominator* -- an op whose output lies
  on every path from the fault to the primary outputs.  A dominator pin
  outside the fault's static fanout cone carries the same value in both
  machines, so an AND/NAND (OR/NOR) dominator needs it at 1 (0), or its
  output is equal in both machines and the effect is gone.  XOR, XNOR,
  MAJ, MIN, BUF and INV dominators impose nothing.

A fault whose effect cannot structurally reach a primary output is
untestable outright.

**Implication.**  The conditions go into a three-valued good-machine
assignment that is closed under local consistency, forward and
backward: an op's pins and output are narrowed to the values shared by
every binary row of its truth table that agrees with what is already
known (one table lookup per op; see :func:`_local_table`).  That covers
AND/OR controlling and non-controlling values, BUF/INV in both
directions, the last unknown input of a known XOR, and MAJ/MIN.  A
value implied both ways, or an op with no agreeing row, is a conflict.
Every implied value holds in every test, so a conflict is a proof; no
conflict gives no verdict, and PODEM runs as usual.

The per-network structure (local tables, fanout, immediate
post-dominators) is built once and cached on the
:class:`~repro.logic.compiled.CompiledNetwork`.
"""

from __future__ import annotations

import functools
import itertools

from repro.atpg.podem_compiled import _fault_cone
from repro.faults.logic import StuckAtFault
from repro.logic.compiled import (
    OP_AND,
    OP_NAND,
    OP_NOR,
    OP_OR,
    CompiledNetwork,
)
from repro.logic.eval import eval_binary

#: Opcode -> non-controlling input value (ops with a controlling value).
_NON_CONTROLLING = {OP_AND: 1, OP_NAND: 1, OP_OR: 0, OP_NOR: 0}

#: Post-dominator of a net with no path to any primary output.
_NO_PATH = -1


@functools.lru_cache(maxsize=None)
def _local_table(gtype: str, arity: int) -> tuple[int, ...]:
    """Local-consistency closure of one op over ternary states.

    A position (pins, then the output last) holds 2 bits: 0 for X, 1
    for a known 0, 2 for a known 1; position ``p`` sits in bits
    ``2p..2p+1`` of the index.  The entry is the index with every
    position narrowed to the value all agreeing binary rows share, or
    -1 when no row agrees (a conflict).
    """
    rows = [
        (*bits, eval_binary(gtype, bits))
        for bits in itertools.product((0, 1), repeat=arity)
    ]
    table = []
    for index in range(4 ** (arity + 1)):
        states = [(index >> (2 * p)) & 3 for p in range(arity + 1)]
        if 3 in states:
            table.append(-1)  # unused encoding
            continue
        agree = [
            row for row in rows
            if all(s == 0 or s == v + 1 for s, v in zip(states, row))
        ]
        if not agree:
            table.append(-1)
            continue
        new = 0
        for p in range(arity + 1):
            seen = {row[p] for row in agree}
            if len(seen) == 1:
                new |= (seen.pop() + 1) << (2 * p)
        table.append(new)
    return tuple(table)


class _Implications:
    """Per-network structure of the check.

    Attributes:
        ops: Op position -> ``(table, nets)``: the local table and the
            op's pin nets followed by its output net.
        touches: Net index -> ops to re-check when the net gets a
            value (its driver and its readers).
        ipdom: Net index -> immediate post-dominator net (``n_nets`` is
            the sink behind the primary outputs), or ``_NO_PATH``.
    """

    def __init__(self, cnet: CompiledNetwork) -> None:
        structs = cnet.structures()
        n = cnet.n_nets
        self.ops = [
            (_local_table(gtype, len(ins)), (*ins, out))
            for (_, out, ins), gtype in zip(cnet.ops, cnet.op_gtypes)
        ]
        touches: list[list[int]] = [list(f) for f in structs.fanout_ops]
        for pos, (_, out, _) in enumerate(cnet.ops):
            touches[out].append(pos)
        self.touches = touches
        # Post-dominators of a DAG: each net's immediate post-dominator
        # is the nearest common ancestor of its successors in the
        # post-dominator tree, so one reverse topological sweep builds
        # it (ops in reverse order, then the nets no op drives).
        sink = n
        ipdom = [_NO_PATH] * (n + 1)
        depth = [0] * (n + 1)
        is_po = bytearray(n)
        for idx in cnet.po_index:
            is_po[idx] = 1

        def common(a: int, b: int) -> int:
            while a != b:
                if depth[a] >= depth[b]:
                    a = ipdom[a]
                else:
                    b = ipdom[b]
            return a

        def settle(net: int) -> None:
            dom = sink if is_po[net] else _NO_PATH
            for pos in structs.fanout_ops[net]:
                succ = cnet.ops[pos][1]
                if ipdom[succ] == _NO_PATH:
                    continue  # successor reaches no primary output
                dom = succ if dom == _NO_PATH else common(dom, succ)
            ipdom[net] = dom
            if dom != _NO_PATH:
                depth[net] = depth[dom] + 1

        for _, out, _ in reversed(cnet.ops):
            settle(out)
        for net in range(n):
            if structs.driver_op[net] < 0:
                settle(net)
        self.ipdom = ipdom
        self.sink = sink

    def conflicts(self, required: list[tuple[int, int]]) -> bool:
        """True when the required good-machine values cannot all hold."""
        value: dict[int, int] = {}
        pending: list[int] = []
        for net, v in required:
            old = value.get(net)
            if old is None:
                value[net] = v
                pending.extend(self.touches[net])
            elif old != v:
                return True
        ops = self.ops
        touches = self.touches
        get = value.get
        while pending:
            table, nets = ops[pending.pop()]
            index = 0
            for p, net in enumerate(nets):
                v = get(net)
                if v is not None:
                    index |= (v + 1) << (2 * p)
            new = table[index]
            if new < 0:
                return True
            if new == index:
                continue
            for p, net in enumerate(nets):
                state = (new >> (2 * p)) & 3
                if not state:
                    continue
                old = get(net)
                if old is None:
                    value[net] = state - 1
                    pending.extend(touches[net])
                elif old != state - 1:
                    return True  # one net on two pins, implied both ways
        return False


def _implications(cnet: CompiledNetwork) -> _Implications:
    """The network's :class:`_Implications` (built on first use)."""
    implications = getattr(cnet, "_implications", None)
    if implications is None:
        implications = cnet._implications = _Implications(cnet)
    return implications


def proven_redundant(cnet: CompiledNetwork, fault: StuckAtFault) -> bool:
    """True when no input vector can detect ``fault`` on ``cnet``.

    Sound but incomplete: False means "not proven", not "testable".
    """
    imp = _implications(cnet)
    ops = cnet.ops
    net = cnet.net_index[fault.net]
    required = [(net, 1 - fault.value)]
    if fault.is_branch:
        pos = cnet.gate_op[fault.gate]
        code, origin, ins = ops[pos]
        side = _NON_CONTROLLING.get(code)
        if side is not None:
            required.extend(
                (i, side) for k, i in enumerate(ins) if k != fault.pin
            )
        source = ([pos], -1)
    else:
        origin = net
        source = ([], net)
    dom = imp.ipdom[origin]
    if dom == _NO_PATH:
        return True
    cone = None
    driver = cnet.structures().driver_op
    while dom != imp.sink:
        code, _, ins = ops[driver[dom]]
        side = _NON_CONTROLLING.get(code)
        if side is not None:
            if cone is None:
                cone = {ops[p][1] for p in _fault_cone(cnet, *source)}
                cone.add(origin)
            required.extend((i, side) for i in ins if i not in cone)
        dom = imp.ipdom[dom]
    return imp.conflicts(required)
