"""Golden switch-level fault images of every library cell.

``tests/golden/cell_fault_images.txt`` holds, for every library cell,
transistor and fault :class:`DeviceState`, one row per binary input
vector: the fault-free output, the faulty output and the IDDQ flag
(a drive conflict the fault-free cell does not have).  It then lists
every view the logic fault classes and the paper's cell procedures
derive from those rows: the polarity faulty tables, IDDQ and
output-detecting vectors, the stuck-open broken tables, floating
vectors and masking, the IFA behaviour and fault models per defect
site, the Table III rows, the two-pattern SOF tests and the DP
channel-break procedure.  The test rebuilds the text and diffs it, so
any change to the switch-level engine or to one of those views shows
as a golden diff.

Regenerate, after checking that the diff is intended, with::

    PYTHONPATH=src python tests/test_fault_images.py \\
        > tests/golden/cell_fault_images.txt
"""

import difflib
import pathlib

from repro.core.inductive import run_ifa
from repro.core.test_algorithms import (
    channel_break_procedure,
    polarity_fault_table,
    run_channel_break_procedure,
    simulate_two_pattern,
    two_pattern_sof_tests,
)
from repro.faults.logic import PolarityFault, StuckOpenFault
from repro.gates.cell import DYNAMIC_POLARITY
from repro.gates.library import ALL_CELLS
from repro.logic.switch_level import DeviceState, fault_image

GOLDEN = (
    pathlib.Path(__file__).resolve().parent
    / "golden"
    / "cell_fault_images.txt"
)

FAULT_STATES = [s for s in DeviceState if s is not DeviceState.NORMAL]

_NAMES = "01XZ"


def _bits(vector) -> str:
    return "".join(map(str, vector))


def _vectors(vectors) -> str:
    return " ".join(_bits(v) for v in vectors) or "-"


def _table(table) -> str:
    return " ".join(f"{_bits(v)}:{_NAMES[out]}" for v, out in table.items())


def render() -> str:
    """The golden text, rebuilt from the current code."""
    lines = []
    for name in sorted(ALL_CELLS):
        cell = ALL_CELLS[name]
        lines.append(f"cell {name} {cell.category}")
        for t in cell.transistors:
            for state in FAULT_STATES:
                image = fault_image(cell, t.name, state)
                rows = " ".join(
                    f"{_bits(v)}:{_NAMES[good]}{_NAMES[bad]}{int(iddq)}"
                    for v, good, bad, iddq in zip(
                        image.vectors, image.good, image.faulty,
                        image.iddq_flags,
                    )
                )
                lines.append(f"  image {t.name} {state.value}: {rows}")
        for t in cell.transistors:
            for kind in ("n", "p"):
                fault = PolarityFault("g", name, t.name, kind)
                prefix = f"  polarity {t.name}/{kind}"
                lines.append(
                    f"{prefix} faulty_table: {_table(fault.faulty_table())}"
                )
                lines.append(
                    f"{prefix} iddq_vectors: "
                    f"{_vectors(fault.iddq_vectors())}"
                )
                lines.append(
                    f"{prefix} output_detecting_vectors: "
                    f"{_vectors(fault.output_detecting_vectors())}"
                )
        for t in cell.transistors:
            fault = StuckOpenFault("g", name, t.name)
            prefix = f"  stuck_open {t.name}"
            lines.append(
                f"{prefix} broken_table: {_table(fault.broken_table())}"
            )
            lines.append(
                f"{prefix} floating_vectors: "
                f"{_vectors(fault.floating_vectors())}"
            )
            lines.append(f"{prefix} masked: {fault.is_masked()}")
        for result in run_ifa(cell):
            site = result.site
            lines.append(
                f"  ifa {site.mechanism.value} {site.transistor or '-'} "
                f"{site.detail or '-'}: {result.behaviour}; "
                f"{', '.join(result.fault_models) or '-'}"
            )
        for row in polarity_fault_table(cell):
            vector = (
                "-" if row.detecting_vector is None
                else _bits(row.detecting_vector)
            )
            lines.append(
                f"  table3 {row.transistor}/{row.kind}: vector {vector} "
                f"leakage {row.leakage_detect} output {row.output_detect}"
            )
        for test in two_pattern_sof_tests(cell):
            responses = " ".join(
                f"{t or 'intact'}:" + "".join(
                    _NAMES[v]
                    for v in simulate_two_pattern(cell, test, t)
                )
                for t in [None, *(t.name for t in cell.transistors)]
            )
            lines.append(f"  sof_test {test.describe()}; {responses}")
        if cell.category != DYNAMIC_POLARITY:
            continue
        for t in cell.transistors:
            procedure = channel_break_procedure(cell, t.name)
            for step in procedure.steps:
                lines.append(
                    f"  channel_break {t.name} "
                    f"{step.injected_state.value} {_bits(step.vector)}: "
                    f"intact {step.expected_if_intact}; "
                    f"broken {step.expected_if_broken}"
                )
            lines.append(
                f"  channel_break {t.name} diagnosis: broken "
                f"{run_channel_break_procedure(cell, t.name, broken=True)}"
                f" intact "
                f"{run_channel_break_procedure(cell, t.name, broken=False)}"
            )
    return "\n".join(lines) + "\n"


def test_golden_fault_images():
    expected = GOLDEN.read_text()
    got = render()
    if got != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            got.splitlines(keepends=True),
            str(GOLDEN), "rebuilt", n=0,
        ))
        raise AssertionError(f"fault images changed:\n{diff[:4000]}")


if __name__ == "__main__":
    print(render(), end="")
