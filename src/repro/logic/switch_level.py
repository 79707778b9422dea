"""Switch-level simulation of CP transistor networks.

This is the logic-domain engine behind the paper's fault-behaviour
analyses: it evaluates a cell's transistor netlist (with optional
per-device fault states) under a logic input vector and reports

* the output value (0 / 1 / X / Z — Z meaning no conducting path, i.e.
  charge retention, the stuck-open memory effect),
* whether a **drive conflict** exists (conducting paths carrying both
  values meet): the IDDQ observable of Table III,
* which devices conduct and in which polarity mode.

The conduction predicate is the paper's: a fault-free TIG device conducts
iff ``CG == PGS == PGD`` (n-mode when all high, p-mode when all low).
Fault states modify the predicate per device:

* ``STUCK_OPEN`` — never conducts (channel break / SOF),
* ``STUCK_ON`` — always conducts,
* ``STUCK_AT_N`` — polarity gates forced to 1 (the paper's new
  stuck-at n-type model for PG-to-VDD bridges),
* ``STUCK_AT_P`` — polarity gates forced to 0,
* ``FLOATING_PG`` — polarity-gate value unknown (open polarity
  terminal): conduction becomes unknown unless the control gate already
  blocks both branches.

**Drive strength.**  A conducting device passes one logic value strongly
and the complementary value weakly (an n-mode device is a good
pull-down but a degraded pull-up; p-mode the converse).  Conflicts
resolve in favour of strictly stronger paths — this reproduces the
paper's Table III asymmetry, where a polarity-stuck *pull-up* device
(wrong-mode, weak) cannot corrupt the output and is caught only by
IDDQ, while a polarity-stuck *pull-down* overpowers the output node.

Internal nets that drive gates of other transistors (e.g. the x1/x2
stage nets of XOR3) are handled by fixed-point iteration.

**Compiled cells.**  :func:`evaluate` compiles each cell once
(:func:`_compile`, memoised on the cell) into net indices and per-device
terminal indices, and reads each device's conduction from a 64-entry
table of its state over the (cg, pgs, pgd) value codes
(:func:`_conduction_table`, built by calling :func:`_conduction`, so the
rule has one definition).  The strength propagation walks a per-net
adjacency list of the ON devices.  The dict-based evaluation it
replaced is the test oracle ``tests/oracles/switch_level_dict.py``.

:func:`fault_image` memoises one cell fault's image, a faulty
evaluation under every input vector against the cell's fault-free pass.
That pass (:func:`_fault_free`, the output and conflict flag per vector)
is evaluated once per cell and also feeds
:func:`truth_table_switch_level` and :func:`fault_free_is_consistent`.
Every logic fault view (polarity and stuck-open tables, Table III, IFA,
the SOF and channel-break procedures) reads the images.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools

from repro.gates.cell import Cell, Transistor
from repro.logic.values import ONE, X, Z, ZERO


class DeviceState(enum.Enum):
    """Fault state of one transistor in a switch-level evaluation."""

    NORMAL = "normal"
    STUCK_OPEN = "stuck_open"
    STUCK_ON = "stuck_on"
    STUCK_AT_N = "stuck_at_n"
    STUCK_AT_P = "stuck_at_p"
    FLOATING_PG = "floating_pg"


_ON = 1
_OFF = 0
_MAYBE = 2

_STRONG = 2
_WEAK = 1


@dataclasses.dataclass(frozen=True)
class SwitchLevelResult:
    """Result of one switch-level evaluation.

    Attributes:
        output: Value of the output net (0/1/X/Z).
        conflict: True when conducting paths carrying both logic values
            meet somewhere — observable as elevated IDDQ.
        net_values: Every resolved net value.
        conducting: Devices that definitely conduct, mapped to their
            conduction mode ('n', 'p' or 'forced').
    """

    output: int
    conflict: bool
    net_values: dict[str, int]
    conducting: dict[str, str]


def _conduction(
    device: Transistor,
    state: DeviceState,
    values: dict[str, int],
) -> tuple[int, str]:
    """Return (conduction in {_ON,_OFF,_MAYBE}, mode label)."""
    if state is DeviceState.STUCK_OPEN:
        return _OFF, "open"
    if state is DeviceState.STUCK_ON:
        return _ON, "forced"
    cg = values.get(device.cg, X)
    if state is DeviceState.STUCK_AT_N:
        pgs = pgd = ONE
    elif state is DeviceState.STUCK_AT_P:
        pgs = pgd = ZERO
    elif state is DeviceState.FLOATING_PG:
        pgs = pgd = X
    else:
        pgs = values.get(device.pgs, X)
        pgd = values.get(device.pgd, X)
    gates = (cg, pgs, pgd)
    if any(v in (X, Z) for v in gates):
        known = [v for v in gates if v in (ZERO, ONE)]
        if known and any(a != b for a, b in itertools.combinations(known, 2)):
            return _OFF, "off"
        return _MAYBE, "maybe"
    if cg == pgs == pgd:
        return _ON, "n" if cg == ONE else "p"
    return _OFF, "off"


def _pass_strength(mode: str, value: int) -> int:
    """Strength with which a conducting device passes ``value``."""
    if mode == "forced":
        return _STRONG
    if mode == "n":
        return _STRONG if value == ZERO else _WEAK
    if mode == "p":
        return _STRONG if value == ONE else _WEAK
    raise ValueError(f"not a conducting mode: {mode!r}")


@functools.lru_cache(maxsize=None)
def _conduction_table(state: DeviceState) -> tuple[tuple, ...]:
    """``_conduction`` of one device state over every gate-value code.

    Entry ``cg * 16 + pgs * 4 + pgd`` (values 0..3) is ``(conduction,
    mode, s0, s1)``, where ``s0`` / ``s1`` are the strengths with which
    a conducting device passes 0 / 1 (0 when it does not conduct).
    """
    probe = Transistor("probe", "d", "cg", "pgs", "pgd", "s", "pass")
    table = []
    for cg, pgs, pgd in itertools.product((ZERO, ONE, X, Z), repeat=3):
        cond, mode = _conduction(
            probe, state, {"cg": cg, "pgs": pgs, "pgd": pgd}
        )
        if cond == _ON:
            strengths = _pass_strength(mode, ZERO), _pass_strength(mode, ONE)
        else:
            strengths = 0, 0
        table.append((cond, mode, *strengths))
    return tuple(table)


@dataclasses.dataclass(frozen=True)
class _CompiledCell:
    """A cell's netlist as net indices, built once per cell.

    Nets are numbered in the key order of :attr:`SwitchLevelResult.net_values`:
    the driven nets of :meth:`Cell.net_values` first, then the free
    channel nets sorted, then the nets that only drive gates (always X,
    and not reported).

    Attributes:
        names: Reported net names, in index order.
        n_driven: Number of driven nets.
        n_nets: Number of nets, gate-only ones included.
        out: Index of ``out`` among the reported nets, or -1.
        index: Transistor name -> position in ``devices``.
        devices: Per transistor ``(name, cg, pgs, pgd, d, s)``.
    """

    names: tuple[str, ...]
    n_driven: int
    n_nets: int
    out: int
    index: dict[str, int]
    devices: tuple[tuple[str, int, int, int, int, int], ...]


@functools.lru_cache(maxsize=None)
def _compile(cell: Cell) -> _CompiledCell:
    """The memoised :class:`_CompiledCell` of ``cell``."""
    driven = list(cell.net_values((0,) * cell.n_inputs))
    channel = {net for t in cell.transistors for net in (t.d, t.s)}
    names = driven + sorted(channel - set(driven))
    gate_only = sorted(
        {net for t in cell.transistors for net in (t.cg, t.pgs, t.pgd)}
        - set(names)
    )
    ids = {net: i for i, net in enumerate(names + gate_only)}
    return _CompiledCell(
        names=tuple(names),
        n_driven=len(driven),
        n_nets=len(ids),
        out=names.index("out") if "out" in names else -1,
        index={t.name: k for k, t in enumerate(cell.transistors)},
        devices=tuple(
            (t.name, ids[t.cg], ids[t.pgs], ids[t.pgd], ids[t.d], ids[t.s])
            for t in cell.transistors
        ),
    )


def evaluate(
    cell: Cell,
    vector: tuple[int, ...],
    device_states: dict[str, DeviceState] | None = None,
    previous_output: int = X,
    max_iterations: int = 8,
) -> SwitchLevelResult:
    """Evaluate a cell at switch level under an input vector.

    The cell is compiled once (:func:`_compile`) into net indices, and
    each device reads its conduction from a 64-entry table of its state
    (:func:`_conduction_table`).  Each fixed-point iteration finds the
    strongest path of each value to every net (a widest-path fixpoint,
    independent of visit order) over a per-net adjacency list of the ON
    devices, then lets maybe-conducting devices poison differing values
    to X in transistor order.  The loop runs at most ``max_iterations``
    times and returns the last iterate, settled or not.

    Args:
        cell: The cell template.
        vector: Primary-input bits, ordered as ``cell.inputs``.
        device_states: Optional per-transistor fault states (by
            transistor name); missing entries are NORMAL.
        previous_output: Value retained on the output when no path
            conducts (two-pattern stuck-open semantics).
        max_iterations: Fixed-point iteration bound for staged cells.
    """
    compiled = _compile(cell)
    normal = _conduction_table(DeviceState.NORMAL)
    tables = [normal] * len(compiled.devices)
    for name, state in (device_states or {}).items():
        k = compiled.index.get(name)
        if k is None:
            raise KeyError(f"{cell.name} has no transistor {name!r}")
        tables[k] = _conduction_table(state)
    devices = [(*d, table) for d, table in zip(compiled.devices, tables)]

    driven = list(cell.net_values(vector).values())
    n_driven = len(driven)
    n_nets = compiled.n_nets
    free = range(n_driven, len(compiled.names))
    values = driven + [X] * (n_nets - n_driven)

    conflict = False
    conducting: dict[str, str] = {}
    for _ in range(max_iterations):
        conducting = {}
        adjacent: list[list[tuple[int, int, int]]] = [[] for _ in values]
        maybe_edges = []
        for name, cg, pgs, pgd, d, s, table in devices:
            cond, mode, s0, s1 = table[
                values[cg] * 16 + values[pgs] * 4 + values[pgd]
            ]
            if cond == _ON:
                adjacent[d].append((s, s0, s1))
                adjacent[s].append((d, s0, s1))
                conducting[name] = mode
            elif cond == _MAYBE:
                maybe_edges.append((d, s))

        # Strongest path of each value from the driven nets through ON
        # devices; strength decays to weak through a wrong-mode device.
        best = ([0] * n_nets, [0] * n_nets)
        stack = []
        for net, value in enumerate(driven):
            best[value][net] = _STRONG
            stack.append((net, value))
        while stack:
            net, value = stack.pop()
            reach = best[value]
            strength = reach[net]
            for other, s0, s1 in adjacent[net]:
                passed = s1 if value else s0
                if passed > strength:
                    passed = strength
                if reach[other] < passed:
                    reach[other] = passed
                    stack.append((other, value))
        best0, best1 = best

        new_values = driven + [X] * (n_nets - n_driven)
        conflict = False
        for net in free:
            s0, s1 = best0[net], best1[net]
            if s0 and s1:
                conflict = True
                new_values[net] = ZERO if s0 > s1 else ONE if s1 > s0 else X
            elif s0:
                new_values[net] = ZERO
            elif s1:
                new_values[net] = ONE
            else:
                new_values[net] = Z
        # A conducting loop between two driven nets of different value is
        # also a conflict (e.g. a stuck-on device shorting rails).
        for net, value in enumerate(driven):
            if best[1 - value][net]:
                conflict = True
        # Maybe-conducting devices poison differing values to X, in
        # transistor order (the order matters).
        for a, b in maybe_edges:
            va, vb = new_values[a], new_values[b]
            for net, other_value in ((a, vb), (b, va)):
                if net < n_driven:
                    continue
                current = new_values[net]
                if current == Z:
                    new_values[net] = X
                elif other_value in (ZERO, ONE, X) and other_value != current:
                    new_values[net] = X
        settled = new_values == values
        values = new_values
        if settled:
            break

    output = values[compiled.out] if compiled.out >= 0 else Z
    if output == Z:
        output = previous_output if previous_output in (ZERO, ONE) else Z
    return SwitchLevelResult(
        output=output,
        conflict=conflict,
        net_values=dict(zip(compiled.names, values)),
        conducting=conducting,
    )


@functools.lru_cache(maxsize=None)
def _fault_free(cell: Cell) -> tuple[tuple[int, bool], ...]:
    """``(output, conflict)`` of the fault-free cell under every binary
    input vector, in :func:`itertools.product` order: one evaluation
    per vector, shared by :func:`fault_image` and the truth-table
    checks.  Only these two fields are kept; a cached ``net_values``
    dict would be shared by every caller."""
    results = (
        evaluate(cell, vector)
        for vector in itertools.product((0, 1), repeat=cell.n_inputs)
    )
    return tuple((result.output, result.conflict) for result in results)


def truth_table_switch_level(cell: Cell) -> dict[tuple[int, ...], int]:
    """Fault-free truth table computed purely at switch level."""
    vectors = itertools.product((0, 1), repeat=cell.n_inputs)
    return {
        vector: output
        for vector, (output, _) in zip(vectors, _fault_free(cell))
    }


def fault_free_is_consistent(cell: Cell) -> bool:
    """Check the transistor netlist implements the reference function
    without drive conflicts or floating outputs."""
    vectors = itertools.product((0, 1), repeat=cell.n_inputs)
    for vector, (output, conflict) in zip(vectors, _fault_free(cell)):
        if conflict:
            return False
        if output != cell.function(vector):
            return False
    return True


@dataclasses.dataclass(frozen=True)
class FaultImage:
    """Switch-level image of one transistor fault state in one cell.

    ``good``, ``faulty`` (0/1/X/Z) and ``iddq_flags`` (the fault creates
    a drive conflict the fault-free cell lacks) follow ``vectors``, every
    binary input vector in :func:`itertools.product` order.  The views
    list vectors in that order too:

    * ``wrong`` — a definite wrong output, which logic simulation and
      PODEM see;
    * ``tied`` — an X contention tie where the good output is definite.
      A voltage tester sees it in SPICE, so Table III counts it as an
      output detect; logic simulation never can;
    * ``iddq`` — the IDDQ flag is set;
    * ``floating`` — the faulty output floats (Z) and retains its
      previous value.

    ``table`` maps each vector to its faulty output and ``held_table``
    to the same with a floating output holding the good value.  Both
    are built once with the image and shared by every reader; do not
    mutate them.
    """

    vectors: tuple[tuple[int, ...], ...]
    good: tuple[int, ...]
    faulty: tuple[int, ...]
    iddq_flags: tuple[bool, ...]
    wrong: tuple[tuple[int, ...], ...]
    tied: tuple[tuple[int, ...], ...]
    iddq: tuple[tuple[int, ...], ...]
    floating: tuple[tuple[int, ...], ...]
    table: dict = dataclasses.field(compare=False, repr=False)
    held_table: dict = dataclasses.field(compare=False, repr=False)

    def at(self, vector: tuple[int, ...]) -> tuple[int, int, bool]:
        """``(good, faulty, iddq_flag)`` under one input vector."""
        index = int("".join(map(str, vector)), 2)
        return self.good[index], self.faulty[index], self.iddq_flags[index]


@functools.lru_cache(maxsize=None)
def fault_image(cell: Cell, transistor: str, state: DeviceState) -> FaultImage:
    """The memoised :class:`FaultImage` of ``transistor`` in ``state``:
    a faulty evaluation under every input vector against the cell's
    fault-free pass (:func:`_fault_free`), which every image of the
    cell shares."""
    vectors = tuple(itertools.product((0, 1), repeat=cell.n_inputs))
    rows = []
    for vector, (good, good_conflict) in zip(vectors, _fault_free(cell)):
        bad = evaluate(cell, vector, {transistor: state})
        flag = bad.conflict and not good_conflict
        rows.append((vector, good, bad.output, flag))
    known = (ZERO, ONE)
    return FaultImage(
        vectors=vectors,
        good=tuple(g for _, g, _, _ in rows),
        faulty=tuple(f for _, _, f, _ in rows),
        iddq_flags=tuple(flag for _, _, _, flag in rows),
        wrong=tuple(
            v for v, g, f, _ in rows if g in known and f in known and f != g
        ),
        tied=tuple(v for v, g, f, _ in rows if g in known and f == X),
        iddq=tuple(v for v, _, _, flag in rows if flag),
        floating=tuple(v for v, _, f, _ in rows if f == Z),
        table={v: f for v, _, f, _ in rows},
        held_table={v: g if f == Z else f for v, g, f, _ in rows},
    )
