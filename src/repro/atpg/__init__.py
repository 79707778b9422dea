"""ATPG for controllable-polarity circuits.

The package covers the full test flow of the paper's Section 5: fault
list generation (the ``stuck_at`` / ``polarity`` / ``stuck_open``
universes of :mod:`repro.faults`, re-exported here for convenience),
PODEM test generation over
the five-valued D-calculus (:mod:`~repro.atpg.podem`, which first
settles provably redundant faults by implication,
:mod:`~repro.atpg.redundancy`), polarity-fault
and two-pattern stuck-open generators (:mod:`~repro.atpg.polarity_atpg`,
:mod:`~repro.atpg.sof_atpg`), IDDQ vector selection
(:mod:`~repro.atpg.iddq`), bit-parallel fault simulation
(:mod:`~repro.atpg.fault_sim`) and greedy test-set compaction
(:mod:`~repro.atpg.compaction`).

Fault simulation runs on the compiled engines of
:mod:`repro.logic.compiled` and :mod:`repro.logic.multiword`; the
fault-injection override contract (line vs. pin vs. gate overrides) is
documented in :mod:`repro.logic.compiled`.  Every generator
(``generate_test``, ``justify_and_propagate``, ``run_stuck_at_atpg``,
``run_polarity_atpg``, ``run_sof_atpg``, ``select_iddq_vectors``)
searches with the D-calculus kernel of
:mod:`repro.atpg.podem_compiled`.  The slow reference versions — the
dict-based PODEM and the serial one-vector ``detects_*`` checks — live
with the tests (``tests/oracles/``).

Usage — generate, fault-simulate and compact a stuck-at test set::

    from repro.atpg import (
        compact_tests, parallel_stuck_at_simulation,
        run_stuck_at_atpg, stuck_at_faults,
    )
    from repro.circuits import ripple_carry_adder

    network = ripple_carry_adder(8)
    faults = stuck_at_faults(network)
    atpg = run_stuck_at_atpg(network, faults)   # PODEM + fault dropping
    assert atpg.coverage == 1.0
    compacted = compact_tests(network, atpg.tests, faults)
    result = parallel_stuck_at_simulation(
        network, faults, compacted.vectors
    )
    print(f"{result.coverage:.0%} with {len(compacted.vectors)} vectors")

The CP-specific campaigns follow the same shape: build the fault list
(:func:`polarity_faults` / :func:`stuck_open_faults`), generate tests
(:func:`run_polarity_atpg` / :func:`run_sof_atpg`), then batch-verify
(:func:`parallel_polarity_simulation` /
:func:`parallel_stuck_open_simulation`).
"""

from repro.atpg.compaction import CompactionResult, compact_tests
from repro.atpg.fault_sim import (
    FaultSimResult,
    parallel_polarity_simulation,
    parallel_stuck_at_simulation,
    parallel_stuck_open_simulation,
    polarity_detection_words,
    polarity_injection,
    stuck_at_detection_words,
    stuck_at_injection,
    stuck_open_detection_words,
)
from repro.atpg.iddq import IddqSelection, select_iddq_vectors
from repro.atpg.podem import (
    PodemResult,
    StuckAtAtpgResult,
    generate_test,
    justify_and_propagate,
    run_stuck_at_atpg,
)
from repro.atpg.polarity_atpg import (
    PolarityAtpgResult,
    PolarityTest,
    generate_polarity_test,
    run_polarity_atpg,
)
from repro.atpg.sof_atpg import (
    SofAtpgResult,
    StuckOpenTest,
    generate_stuck_open_test,
    run_sof_atpg,
)
from repro.faults.logic import (
    PolarityFault,
    StuckAtFault,
    StuckOpenFault,
    polarity_faults,
    stuck_at_faults,
    stuck_open_faults,
)

__all__ = [
    "CompactionResult",
    "FaultSimResult",
    "IddqSelection",
    "PodemResult",
    "PolarityAtpgResult",
    "PolarityFault",
    "PolarityTest",
    "SofAtpgResult",
    "StuckAtAtpgResult",
    "StuckAtFault",
    "StuckOpenFault",
    "StuckOpenTest",
    "compact_tests",
    "generate_polarity_test",
    "generate_stuck_open_test",
    "generate_test",
    "justify_and_propagate",
    "parallel_polarity_simulation",
    "parallel_stuck_at_simulation",
    "parallel_stuck_open_simulation",
    "polarity_detection_words",
    "polarity_faults",
    "polarity_injection",
    "run_polarity_atpg",
    "run_sof_atpg",
    "run_stuck_at_atpg",
    "select_iddq_vectors",
    "stuck_at_detection_words",
    "stuck_at_faults",
    "stuck_at_injection",
    "stuck_open_detection_words",
    "stuck_open_faults",
]
