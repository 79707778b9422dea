"""Fault-class task implementations: one (circuit, fault class) cell.

Each runner takes a built :class:`~repro.logic.network.Network` and
returns a flat, JSON-serialisable metrics dict — the payload of one
campaign record.  All runners are deterministic: the same circuit
produces bit-identical metrics in any process, which is what lets the campaign runner promise
identical stores for 1-worker and N-worker runs.

The four registered fault classes mirror the paper's Section 5:

``stuck_at``
    Classic PODEM with bit-parallel fault dropping + greedy compaction,
    then a full fault-simulation pass of the compacted set (Sec. V-A).
``polarity``
    The paper's headline gap: how many polarity bridges the classic
    stuck-at set detects at the outputs (escapes), vs. the polarity-
    aware ATPG's voltage/IDDQ coverage (Sec. V-B).  The classic set is
    the one the circuit's ``stuck_at`` cell built
    (:func:`classic_stuck_at`, memoised per compiled network).
``iddq``
    Greedy compact IDDQ screening-vector selection (Sec. V-B).
``stuck_open``
    Channel-break census: DP-masked sites needing the polarity-
    inversion procedure, plus two-pattern SOF ATPG with fault dropping
    on the testable remainder (Sec. V-C).

A fifth runner, ``fault_sim``, is registered for the scaling tier but
kept out of :data:`DEFAULT_FAULT_CLASSES`: it skips ATPG entirely and
random-simulates the full stuck-at + polarity populations through the
multi-word 2-D engine (:mod:`repro.logic.multiword`), which is what
makes thousands-of-gate corpus circuits tractable per campaign cell.

Every runner sources its fault list from the unified universe registry
(:func:`repro.faults.get_universe` — ``stuck_at`` / ``polarity`` /
``stuck_open`` by name), so a new fault class is a registered
:class:`~repro.faults.universe.FaultUniverse` plus one dict entry::

    >>> from repro.campaign.tasks import TASK_RUNNERS
    >>> sorted(TASK_RUNNERS)
    ['fault_sim', 'iddq', 'polarity', 'stuck_at', 'stuck_open']

Example (runs in a few milliseconds)::

    >>> from repro.campaign.registry import get_registry
    >>> metrics = run_fault_class(get_registry().load("c17"), "stuck_at")
    >>> metrics["coverage"] == 1.0 and metrics["n_vectors"] > 0
    True
"""

from __future__ import annotations

from typing import Callable

from repro.atpg.compaction import compact_tests
from repro.atpg.fault_sim import (
    parallel_polarity_simulation,
    parallel_stuck_at_simulation,
)
from repro.atpg.iddq import select_iddq_vectors
from repro.atpg.podem import StuckAtAtpgResult, run_stuck_at_atpg
from repro.atpg.polarity_atpg import run_polarity_atpg
from repro.atpg.sof_atpg import run_sof_atpg
from repro.faults import get_universe
from repro.faults.logic import StuckAtFault
from repro.logic.compiled import compile_network
from repro.logic.network import Network

TaskRunner = Callable[[Network], dict]


def classic_stuck_at(
    network: Network, max_backtracks: int = 500
) -> tuple[list[StuckAtFault], StuckAtAtpgResult, list[dict[str, int]]]:
    """The classic production test set and how it was built.

    Returns ``(faults, atpg, vectors)``: the collapsed stuck-at list,
    the PODEM run with fault dropping over it, and that run's tests
    after greedy compaction (the baseline every escape metric is
    against).  Memoised on the compiled network per ``max_backtracks``,
    so a circuit's ``stuck_at`` and ``polarity`` cells build it once per
    process; :func:`repro.logic.compiled.invalidate_network` drops it
    with the compiled form.  The returned objects are shared: read
    them, do not modify them.
    """
    cnet = compile_network(network)
    memo = getattr(cnet, "_classic_stuck_at", None)
    if memo is None:
        memo = cnet._classic_stuck_at = {}
    built = memo.get(max_backtracks)
    if built is None:
        faults = get_universe("stuck_at").collapse(network)
        atpg = run_stuck_at_atpg(network, faults, max_backtracks)
        vectors = compact_tests(network, atpg.tests, faults).vectors
        built = memo[max_backtracks] = (faults, atpg, vectors)
    return built


def classic_stuck_at_testset(
    network: Network, max_backtracks: int = 500
) -> list[dict[str, int]]:
    """The compacted classic stuck-at test set of
    :func:`classic_stuck_at`."""
    return classic_stuck_at(network, max_backtracks)[2]


def run_stuck_at_task(network: Network) -> dict:
    """Sec. V-A baseline: full stuck-at ATPG + compaction + fault sim."""
    faults, atpg, vectors = classic_stuck_at(network)
    sim = parallel_stuck_at_simulation(network, faults, vectors)
    return {
        "n_faults": len(faults),
        "n_tests_generated": len(atpg.tests),
        "n_vectors": len(vectors),
        "coverage": sim.coverage,
        "n_untestable": len(atpg.untestable),
        "n_aborted": len(atpg.aborted),
        "backtracks": atpg.total_backtracks,
    }


def run_polarity_task(network: Network) -> dict:
    """Sec. V-B gap: polarity escapes of the classic set vs. the
    polarity-aware ATPG.  Circuits without DP gates report ``None``
    coverages (rendered as ``n/a``)."""
    faults = get_universe("polarity").collapse(network)
    if not faults:
        return {
            "n_faults": 0,
            "coverage_by_stuck_at_set": None,
            "n_escapes": 0,
            "atpg_coverage": None,
            "n_voltage_tests": 0,
            "n_iddq_tests": 0,
            "n_untestable": 0,
            "n_aborted": 0,
        }
    sa_set = classic_stuck_at_testset(network)
    by_sa = parallel_polarity_simulation(network, faults, sa_set)
    atpg = run_polarity_atpg(network, faults)
    modes: dict[str, int] = {}
    for test in atpg.tests:
        modes[test.mode] = modes.get(test.mode, 0) + 1
    return {
        "n_faults": len(faults),
        "coverage_by_stuck_at_set": by_sa.coverage,
        "n_escapes": len(by_sa.undetected),
        "atpg_coverage": atpg.coverage,
        "n_voltage_tests": modes.get("voltage", 0),
        "n_iddq_tests": modes.get("iddq", 0),
        "n_untestable": len(atpg.untestable),
        "n_aborted": len(atpg.aborted),
    }


def run_iddq_task(network: Network) -> dict:
    """Sec. V-B screening: greedy compact IDDQ vector selection."""
    faults = get_universe("polarity").collapse(network)
    if not faults:
        return {
            "n_faults": 0,
            "n_vectors": 0,
            "coverage": None,
            "n_detected": 0,
            "n_uncovered": 0,
        }
    selection = select_iddq_vectors(network, faults)
    return {
        "n_faults": len(faults),
        "n_vectors": len(selection.vectors),
        "coverage": selection.coverage,
        "n_detected": len(selection.covered),
        "n_uncovered": len(selection.uncovered),
    }


def run_stuck_open_task(network: Network) -> dict:
    """Sec. V-C census: masked channel breaks + two-pattern SOF ATPG
    with fault dropping on the testable remainder."""
    faults = get_universe("stuck_open").collapse(network)
    atpg = run_sof_atpg(network, faults, drop_detected=True)
    return {
        "n_faults": len(faults),
        "n_masked": len(atpg.masked),
        "n_tests": len(atpg.tests),
        "n_dropped": len(atpg.dropped),
        "n_untestable": len(atpg.untestable),
        "coverage": atpg.coverage,
    }


#: Vectors per :func:`run_fault_sim_task` sweep — two multi-word
#: chunks on every circuit, so the 2-D packing is always exercised.
FAULT_SIM_VECTORS = 256

#: Clock cycles per sequential test in :func:`run_fault_sim_task` —
#: enough frames for state faults to reach the outputs on the
#: ISCAS-89-class corpus circuits while the unrolled problem stays a
#: small multiple of the combinational one.
FAULT_SIM_FRAMES = 3


def run_fault_sim_task(network: Network) -> dict:
    """Scaling-tier cell: pure multi-word random fault simulation.

    No ATPG — a seeded random vector sweep (seed derived from the
    circuit name, so any process regenerates the identical set) fault-
    simulates the whole collapsed stuck-at population plus the polarity
    population in voltage and IDDQ modes as 2-D fault×vector sweeps.
    This is the only runner that stays single-digit seconds on the
    ≥1000-gate corpus circuits, and its metrics are bit-identical
    across processes and worker counts by construction.

    Sequential circuits run through the same sweeps time-frame expanded
    (:data:`FAULT_SIM_FRAMES` cycles per test, flops reset to 0): each
    random test is a per-cycle input sequence and a fault counts as
    detected when any frame's outputs differ.  The metrics dict then
    carries ``n_frames`` / ``n_flops`` alongside the shared keys, so
    combinational and sequential cells stay directly comparable.
    """
    import zlib

    from repro.atpg.fault_sim import polarity_detection_words
    from repro.circuits.random_circuits import (
        random_sequence_vectors,
        random_vectors,
    )

    seed = zlib.crc32(network.name.encode("utf-8"))
    sequence_opts: dict = {}
    metrics: dict = {}
    if network.is_sequential:
        vectors = random_sequence_vectors(
            network, FAULT_SIM_VECTORS, FAULT_SIM_FRAMES, seed=seed
        )
        sequence_opts = dict(
            unroll=FAULT_SIM_FRAMES,
            initial_state={q: 0 for q in network.flops},
        )
        metrics = {
            "n_frames": FAULT_SIM_FRAMES,
            "n_flops": len(network.flops),
        }
    else:
        vectors = random_vectors(network, FAULT_SIM_VECTORS, seed=seed)
    sa_faults = get_universe("stuck_at").collapse(network)
    sa = parallel_stuck_at_simulation(
        network, sa_faults, vectors, **sequence_opts
    )
    po_faults = get_universe("polarity").collapse(network)
    metrics.update({
        "n_vectors": len(vectors),
        "n_stuck_at_faults": len(sa_faults),
        "stuck_at_coverage": sa.coverage,
        "n_polarity_faults": len(po_faults),
        "polarity_voltage_coverage": None,
        "polarity_iddq_coverage": None,
    })
    if po_faults:
        voltage = polarity_detection_words(
            network, po_faults, vectors, **sequence_opts
        )
        iddq = polarity_detection_words(
            network, po_faults, vectors, iddq=True, **sequence_opts
        )
        metrics["polarity_voltage_coverage"] = sum(
            1 for w in voltage if w
        ) / len(po_faults)
        metrics["polarity_iddq_coverage"] = sum(
            1 for w in iddq if w
        ) / len(po_faults)
    return metrics


#: Fault-class name -> runner.  Tests and downstream users may add
#: entries; campaign workers resolve the name in their own process.
#: Caveat: runtime registrations reach workers only under the ``fork``
#: start method (Linux default) — ``spawn``-started workers re-import
#: this module fresh, so on those platforms custom classes must be
#: registered at import time or run with ``workers=1``.
TASK_RUNNERS: dict[str, TaskRunner] = {
    "stuck_at": run_stuck_at_task,
    "polarity": run_polarity_task,
    "iddq": run_iddq_task,
    "stuck_open": run_stuck_open_task,
    "fault_sim": run_fault_sim_task,
}

#: Grid default: the paper's four Section 5 fault classes, in
#: narrative order.  ``fault_sim`` is opt-in — it is the scaling-tier
#: cell, not part of the paper's per-class story.
DEFAULT_FAULT_CLASSES: tuple[str, ...] = (
    "stuck_at", "polarity", "iddq", "stuck_open",
)


def run_fault_class(network: Network, fault_class: str) -> dict:
    """Dispatch one (circuit, fault class) cell to its runner."""
    try:
        runner = TASK_RUNNERS[fault_class]
    except KeyError:
        raise KeyError(
            f"unknown fault class {fault_class!r}; "
            f"available: {sorted(TASK_RUNNERS)}"
        ) from None
    return runner(network)
