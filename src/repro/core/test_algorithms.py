"""The paper's test algorithms (Section V).

Three algorithms are implemented, all operating in the switch-level
domain (with SPICE confirmation left to the benchmarks):

* :func:`two_pattern_sof_tests` — classic stuck-open testing for SP
  gates: a first vector initialises the output, a second exposes the
  floating (retained) value.  For the TIG NAND2 this derives exactly the
  paper's set {11->01, 11->10, 00->11}.  For DP gates it returns no
  usable tests — the redundant pass-transistor pairs mask every single
  channel break, which is the paper's motivation for the new procedure.
* :func:`polarity_fault_table` — Table III: the detecting vector and
  observables for stuck-at n-/p-type faults on every transistor.
* :func:`channel_break_procedure` / :func:`run_channel_break_procedure`
  — the paper's new DP channel-break test: deliberately reconfigure the
  suspect device into the *complemented* polarity (inject stuck-at-n/p
  through the polarity inputs), apply the corresponding Table III
  vector, and observe: an *intact* device now corrupts the output or
  draws >10^6 leakage, while a *broken* device leaves the circuit clean
  — so a clean response under deliberate polarity inversion reveals the
  break.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.faults.records import PolarityFaultRecord
from repro.gates.cell import Cell, DYNAMIC_POLARITY
from repro.logic.switch_level import (
    DeviceState,
    detection_behaviour,
    evaluate,
)
from repro.logic.values import ONE, Z, ZERO


@dataclasses.dataclass(frozen=True)
class TwoPatternTest:
    """A stuck-open test pair.

    Attributes:
        init_vector: First pattern (sets the output to the value the
            fault will wrongly retain).
        test_vector: Second pattern (the faulty gate's output floats and
            keeps the initialised value instead of flipping).
        covered: Transistors whose full channel break this pair detects.
    """

    init_vector: tuple[int, ...]
    test_vector: tuple[int, ...]
    covered: tuple[str, ...]

    def describe(self) -> str:
        v1 = "".join(map(str, self.init_vector))
        v2 = "".join(map(str, self.test_vector))
        return f"({v1} -> {v2}) covers {', '.join(self.covered)}"


def _essential_vectors(cell: Cell, transistor: str) -> list[tuple[int, ...]]:
    """Vectors where ``transistor`` is essential: breaking it floats the
    output (no remaining conducting path)."""
    vectors = []
    for vector in itertools.product((0, 1), repeat=cell.n_inputs):
        broken = evaluate(
            cell, vector, {transistor: DeviceState.STUCK_OPEN}
        )
        if broken.output == Z:
            vectors.append(vector)
    return vectors


def two_pattern_sof_tests(cell: Cell) -> list[TwoPatternTest]:
    """Derive a compact two-pattern stuck-open test set for a cell.

    Returns an empty list when no transistor has an essential vector
    (every break is masked) — the DP-gate situation of Section V-C.
    """
    # Gather (test_vector -> transistors it exposes).
    exposure: dict[tuple[int, ...], list[str]] = {}
    for t in cell.transistors:
        for vector in _essential_vectors(cell, t.name):
            exposure.setdefault(vector, []).append(t.name)

    tests: list[TwoPatternTest] = []
    covered: set[str] = set()
    # Greedy: biggest exposure first; ties resolved by vector order for
    # determinism.
    for test_vector, names in sorted(
        exposure.items(), key=lambda kv: (-len(kv[1]), kv[0])
    ):
        new = [n for n in names if n not in covered]
        if not new:
            continue
        expected = cell.function(test_vector)
        init_vector = _pick_init_vector(cell, test_vector, expected)
        if init_vector is None:
            continue
        tests.append(
            TwoPatternTest(
                init_vector=init_vector,
                test_vector=test_vector,
                covered=tuple(sorted(new)),
            )
        )
        covered.update(new)
    return tests


def _pick_init_vector(
    cell: Cell, test_vector: tuple[int, ...], expected: int
) -> tuple[int, ...] | None:
    """First vector producing the complement of ``expected``, preferring
    minimal Hamming distance from the test vector (a robust two-pattern
    transition)."""
    candidates = [
        v
        for v in itertools.product((0, 1), repeat=cell.n_inputs)
        if cell.function(v) == 1 - expected
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda v: (
            sum(a != b for a, b in zip(v, test_vector)),
            v,
        ),
    )


def simulate_two_pattern(
    cell: Cell,
    test: TwoPatternTest,
    broken_transistor: str | None,
) -> tuple[int, int]:
    """Apply a two-pattern test at switch level.

    Returns (initialised output, final output).  With the target break
    present, the final output retains the initialised value instead of
    the fault-free response.
    """
    states = (
        {broken_transistor: DeviceState.STUCK_OPEN}
        if broken_transistor
        else None
    )
    first = evaluate(cell, test.init_vector, states)
    second = evaluate(
        cell, test.test_vector, states, previous_output=first.output
    )
    return first.output, second.output


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------
# The row record itself is the canonical cross-layer
# :class:`repro.faults.records.PolarityFaultRecord`.


def polarity_fault_table(cell: Cell) -> list[PolarityFaultRecord]:
    """Exhaustive stuck-at n-/p-type analysis of a cell (Table III)."""
    rows: list[PolarityFaultRecord] = []
    for kind, state in (
        ("n", DeviceState.STUCK_AT_N),
        ("p", DeviceState.STUCK_AT_P),
    ):
        for t in cell.transistors:
            behaviour = detection_behaviour(cell, t.name, state)
            detecting = [
                (v, r)
                for v, r in behaviour.items()
                if r["output_detect"] or r["iddq_detect"]
            ]
            if detecting:
                vector, report = detecting[0]
                rows.append(
                    PolarityFaultRecord(
                        transistor=t.name,
                        kind=kind,
                        detecting_vector=vector,
                        leakage_detect=report["iddq_detect"],
                        output_detect=report["output_detect"],
                    )
                )
            else:
                rows.append(
                    PolarityFaultRecord(
                        transistor=t.name,
                        kind=kind,
                        detecting_vector=None,
                        leakage_detect=False,
                        output_detect=False,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# Channel-break procedure (the paper's new algorithm, Section V-C)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChannelBreakStep:
    """One step of the DP channel-break procedure."""

    injected_state: DeviceState
    vector: tuple[int, ...]
    expected_if_intact: str  # what an unbroken device shows
    expected_if_broken: str


@dataclasses.dataclass(frozen=True)
class ChannelBreakProcedure:
    """The derived procedure for one suspect transistor."""

    cell_name: str
    transistor: str
    steps: tuple[ChannelBreakStep, ...]


def channel_break_procedure(
    cell: Cell, transistor: str
) -> ChannelBreakProcedure:
    """Derive the paper's channel-break test for one DP-gate transistor.

    For each deliberate polarity inversion (stuck-at-n and stuck-at-p),
    pick the vector where the *intact* device would disturb the circuit
    (from the Table III analysis).  A broken device cannot conduct, so
    the disturbance disappears — its absence is the detection signature.
    """
    if cell.category != DYNAMIC_POLARITY:
        raise ValueError(
            f"{cell.name} is not a DP cell; use two-pattern SOF tests"
        )
    steps: list[ChannelBreakStep] = []
    for state in (DeviceState.STUCK_AT_N, DeviceState.STUCK_AT_P):
        behaviour = detection_behaviour(cell, transistor, state)
        for vector, report in behaviour.items():
            if report["output_detect"] or report["iddq_detect"]:
                effect = []
                if report["output_detect"]:
                    effect.append("wrong output")
                if report["iddq_detect"]:
                    effect.append("leakage > 10^6 x nominal")
                steps.append(
                    ChannelBreakStep(
                        injected_state=state,
                        vector=vector,
                        expected_if_intact=" and ".join(effect),
                        expected_if_broken="fault-free response",
                    )
                )
                break
    return ChannelBreakProcedure(
        cell_name=cell.name,
        transistor=transistor,
        steps=tuple(steps),
    )


def run_channel_break_procedure(
    cell: Cell,
    transistor: str,
    broken: bool,
) -> bool:
    """Execute the procedure at switch level; return True iff a channel
    break is diagnosed on ``transistor``.

    Args:
        broken: Ground truth — whether the simulated device under test
            actually has a (fully) broken channel.  The procedure itself
            does not see this flag; it only observes circuit responses.
    """
    procedure = channel_break_procedure(cell, transistor)
    if not procedure.steps:
        return False
    for step in procedure.steps:
        # The deliberate polarity inversion is applied through the test
        # infrastructure; a broken channel additionally never conducts.
        states = {transistor: step.injected_state}
        if broken:
            states = {transistor: DeviceState.STUCK_OPEN}
        result = evaluate(cell, step.vector, states)
        good = evaluate(cell, step.vector)
        disturbed = result.conflict or (
            good.output in (ZERO, ONE) and result.output != good.output
        )
        if disturbed:
            # The device responded to the inversion: channel intact.
            return False
    # No step disturbed the circuit: the device is not conducting when
    # forced to — channel break detected.
    return True
