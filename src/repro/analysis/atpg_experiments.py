"""Circuit-scale ATPG experiments (the paper's claims at benchmark scale).

The paper's thesis, lifted from single gates to circuits: classic
stuck-at test sets do *not* cover the CP-specific faults (polarity
bridges, DP channel breaks), while the new models make them testable.
:func:`experiment_atpg_coverage` quantifies this on the benchmark suite.

Since the campaign subsystem landed, this module is a thin, typed view
over it: the measurements run as a ``(circuit x fault-class)`` grid
through :func:`repro.campaign.runner.run_campaign` (in-process,
unsharded — the same records ``python -m repro paper-tables`` produces
with a pool and a sqlite store), and the table is rendered by
:func:`repro.campaign.tables.coverage_table`.  Example::

    >>> from repro.analysis.atpg_experiments import experiment_atpg_coverage
    >>> results, report = experiment_atpg_coverage(("c17", "tmr_voter"))
    >>> [r.name for r in results]
    ['c17', 'tmr_voter']
    >>> results[0].stuck_at_coverage
    1.0
"""

from __future__ import annotations

import dataclasses

from repro.logic.network import Network


@dataclasses.dataclass
class CircuitCoverage:
    """Coverage summary for one benchmark circuit."""

    name: str
    n_gates: int
    n_stuck_at: int
    n_polarity: int
    n_stuck_open: int
    n_masked_opens: int
    stuck_at_coverage: float
    stuck_at_vectors: int
    polarity_by_stuck_at_set: float
    """Fraction of polarity faults the classic stuck-at set detects at
    the outputs — the paper's 'current fault models are insufficient'."""
    polarity_atpg_coverage: float
    iddq_vectors: int
    iddq_coverage: float


def _nan_if_none(value: float | None) -> float:
    return float("nan") if value is None else value


def coverage_from_records(records: list[dict]) -> list[CircuitCoverage]:
    """Fold campaign records into :class:`CircuitCoverage` rows.

    Tolerates partial grids the way
    :func:`repro.campaign.tables.coverage_table` does: fault classes
    missing from a circuit's records report zero counts / NaN
    coverages instead of raising.
    """
    from repro.campaign.tables import by_circuit

    rows = []
    for circuit, cells in by_circuit(records).items():
        def metrics(fault_class: str) -> dict:
            return cells.get(fault_class, {}).get("metrics", {})

        sa = metrics("stuck_at")
        pol = metrics("polarity")
        iddq = metrics("iddq")
        sop = metrics("stuck_open")
        stats = next(iter(cells.values())).get("circuit_stats", {})
        rows.append(
            CircuitCoverage(
                name=circuit,
                n_gates=stats.get("gates", 0),
                n_stuck_at=sa.get("n_faults", 0),
                n_polarity=pol.get("n_faults", 0),
                n_stuck_open=sop.get("n_faults", 0),
                n_masked_opens=sop.get("n_masked", 0),
                stuck_at_coverage=_nan_if_none(sa.get("coverage")),
                stuck_at_vectors=sa.get("n_vectors", 0),
                polarity_by_stuck_at_set=_nan_if_none(
                    pol.get("coverage_by_stuck_at_set")
                ),
                polarity_atpg_coverage=_nan_if_none(
                    pol.get("atpg_coverage")
                ),
                iddq_vectors=iddq.get("n_vectors", 0),
                iddq_coverage=_nan_if_none(iddq.get("coverage")),
            )
        )
    return rows


def coverage_for(network: Network) -> CircuitCoverage:
    """Full coverage analysis of one circuit.

    Runs all four campaign fault classes
    (:data:`repro.campaign.tasks.TASK_RUNNERS`) on ``network``
    in-process; the compiled network and its search structures are
    shared across the campaigns through the
    :func:`repro.logic.compiled.compile_network` memo.
    """
    from repro.campaign.store import ENGINE_LABEL, SCHEMA_VERSION
    from repro.campaign.tasks import DEFAULT_FAULT_CLASSES, run_fault_class

    records = [
        {
            "schema": SCHEMA_VERSION,
            "task_id": f"{network.name}/{fault_class}/{ENGINE_LABEL}",
            "circuit": network.name,
            "fault_class": fault_class,
            "engine": ENGINE_LABEL,
            "status": "ok",
            "circuit_stats": network.stats(),
            "metrics": run_fault_class(network, fault_class),
        }
        for fault_class in DEFAULT_FAULT_CLASSES
    ]
    return coverage_from_records(records)[0]


def experiment_atpg_coverage(
    benchmark_names: tuple[str, ...] | None = None,
) -> tuple[list[CircuitCoverage], str]:
    """Run the coverage study over the benchmark suite (default: the
    Section 5 suite, :data:`repro.campaign.tables.SECTION5_SUITE`).

    Equivalent CLI: ``python -m repro paper-tables`` (which adds
    multiprocessing fan-out and store-backed resume on top of the same grid).
    """
    from repro.campaign.runner import expand_grid, run_campaign
    from repro.campaign.tables import (
        SECTION5_READING,
        SECTION5_SUITE,
        coverage_table,
    )

    if benchmark_names is None:
        benchmark_names = SECTION5_SUITE
    campaign = run_campaign(expand_grid(benchmark_names))
    failed = [r["task_id"] for r in campaign.records
              if r["status"] != "ok"]
    if failed:
        raise RuntimeError(f"campaign tasks failed: {failed}")
    results = coverage_from_records(campaign.records)
    report = [
        "Circuit-scale coverage: classic stuck-at tests vs CP fault models",
        coverage_table(campaign.records),
        "",
        SECTION5_READING,
    ]
    return results, "\n".join(report)
