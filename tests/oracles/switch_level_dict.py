"""The dict-based switch-level ``evaluate``: the oracle for the compiled one.

:func:`evaluate` is the evaluation :mod:`repro.logic.switch_level` ran
before it compiled each cell into index tables: it rebuilds its net
dicts on every call, calls ``_conduction`` for every device on every
fixed-point iteration, and scans every ON device on each pop of the
drive-strength BFS.  It has the signature of
:func:`repro.logic.switch_level.evaluate`, whose results it must equal
(``==``, with ``net_values`` and ``conducting`` in the same key order),
also where the fixed point does not settle within ``max_iterations``.

It shares the conduction rule (``_conduction``) and the pass strengths
with the library, so the two differ only in how they evaluate.
"""

from __future__ import annotations

from collections import deque

from repro.gates.cell import Cell
from repro.logic.switch_level import (
    _MAYBE,
    _ON,
    _STRONG,
    DeviceState,
    SwitchLevelResult,
    _conduction,
    _pass_strength,
)
from repro.logic.values import ONE, X, Z, ZERO


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
