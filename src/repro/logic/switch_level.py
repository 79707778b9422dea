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

:func:`fault_image` memoises one cell fault's image, a faulty against
a fault-free evaluation under every input vector.  Every logic fault
view (polarity and stuck-open tables, Table III, IFA, the SOF and
channel-break procedures) reads it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
from collections import deque

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


def evaluate(
    cell: Cell,
    vector: tuple[int, ...],
    device_states: dict[str, DeviceState] | None = None,
    previous_output: int = X,
    max_iterations: int = 8,
) -> SwitchLevelResult:
    """Evaluate a cell at switch level under an input vector.

    Args:
        cell: The cell template.
        vector: Primary-input bits, ordered as ``cell.inputs``.
        device_states: Optional per-transistor fault states (by
            transistor name); missing entries are NORMAL.
        previous_output: Value retained on the output when no path
            conducts (two-pattern stuck-open semantics).
        max_iterations: Fixed-point iteration bound for staged cells.
    """
    states = {t.name: DeviceState.NORMAL for t in cell.transistors}
    for name, state in (device_states or {}).items():
        if name not in states:
            raise KeyError(f"{cell.name} has no transistor {name!r}")
        states[name] = state

    driven = cell.net_values(vector)
    channel_nets: set[str] = set()
    for t in cell.transistors:
        channel_nets.update({t.d, t.s})
    free_nets = sorted(channel_nets - set(driven))
    values: dict[str, int] = dict(driven)
    for net in free_nets:
        values[net] = X

    conflict = False
    conducting: dict[str, str] = {}
    for _ in range(max_iterations):
        conducting = {}
        on_edges: list[tuple[str, str, str]] = []  # (a, b, mode)
        maybe_edges: list[tuple[str, str]] = []
        for t in cell.transistors:
            cond, mode = _conduction(t, states[t.name], values)
            if cond == _ON:
                on_edges.append((t.d, t.s, mode))
                conducting[t.name] = mode
            elif cond == _MAYBE:
                maybe_edges.append((t.d, t.s))

        # Propagate (value, strength) from driven nets through ON devices;
        # strength decays to weak through a wrong-mode device.
        best: dict[str, dict[int, int]] = {
            net: {} for net in channel_nets | set(driven)
        }
        queue: deque[tuple[str, int, int]] = deque()
        for net, value in driven.items():
            if net in best:
                best[net][value] = _STRONG
                queue.append((net, value, _STRONG))
        while queue:
            net, value, strength = queue.popleft()
            if best[net].get(value, 0) > strength:
                continue
            for a, b, mode in on_edges:
                if net not in (a, b):
                    continue
                other = b if net == a else a
                new_strength = min(strength, _pass_strength(mode, value))
                if best[other].get(value, 0) < new_strength:
                    best[other][value] = new_strength
                    queue.append((other, value, new_strength))

        new_values = dict(driven)
        conflict = False
        for net in free_nets:
            candidates = best[net]
            has0, has1 = ZERO in candidates, ONE in candidates
            if has0 and has1:
                conflict = True
                s0, s1 = candidates[ZERO], candidates[ONE]
                if s0 > s1:
                    new_values[net] = ZERO
                elif s1 > s0:
                    new_values[net] = ONE
                else:
                    new_values[net] = X
            elif has0:
                new_values[net] = ZERO
            elif has1:
                new_values[net] = ONE
            else:
                new_values[net] = Z
        # A conducting loop between two driven nets of different value is
        # also a conflict (e.g. a stuck-on device shorting rails).
        for net, value in driven.items():
            other = best.get(net, {})
            if any(v != value for v in other if other[v] > 0 and v != value):
                conflict = True
        # Maybe-conducting devices poison differing values to X.
        for a, b in maybe_edges:
            va = new_values.get(a, driven.get(a, Z))
            vb = new_values.get(b, driven.get(b, Z))
            for net, other_value in ((a, vb), (b, va)):
                if net in driven:
                    continue
                current = new_values[net]
                if current == Z:
                    new_values[net] = X
                elif other_value in (ZERO, ONE, X) and other_value != current:
                    new_values[net] = X
        if new_values == values:
            values = new_values
            break
        values = new_values

    output = values.get("out", Z)
    if output == Z:
        output = previous_output if previous_output in (ZERO, ONE) else Z
    return SwitchLevelResult(
        output=output,
        conflict=conflict,
        net_values=values,
        conducting=conducting,
    )


def truth_table_switch_level(cell: Cell) -> dict[tuple[int, ...], int]:
    """Fault-free truth table computed purely at switch level."""
    table = {}
    for vector in itertools.product((0, 1), repeat=cell.n_inputs):
        table[vector] = evaluate(cell, vector).output
    return table


def fault_free_is_consistent(cell: Cell) -> bool:
    """Check the transistor netlist implements the reference function
    without drive conflicts or floating outputs."""
    for vector in itertools.product((0, 1), repeat=cell.n_inputs):
        result = evaluate(cell, vector)
        if result.conflict:
            return False
        if result.output != cell.function(vector):
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
    a faulty against a fault-free evaluation under every input vector."""
    vectors = tuple(itertools.product((0, 1), repeat=cell.n_inputs))
    rows = []
    for vector in vectors:
        good = evaluate(cell, vector)
        bad = evaluate(cell, vector, {transistor: state})
        flag = bad.conflict and not good.conflict
        rows.append((vector, good.output, bad.output, flag))
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
