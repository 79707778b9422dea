"""Render the paper's campaign tables from stored campaign records.

This is the read side of the campaign subsystem: everything here is a
pure function of the record dicts (:mod:`repro.campaign.store`), so
tables can be re-rendered from a store file long after the grid ran —
``repro report`` and ``repro paper-tables`` are thin wrappers over
these functions.  Rendering sorts and merges by task id, so stores
written by different worker counts or resumed runs produce identical
text.

Three views:

* :func:`coverage_table` — the paper's Section 5 headline: classic
  stuck-at coverage vs. the CP fault universe per circuit.
* :func:`escape_table` — the defect-escape view: polarity bridges the
  classic set misses and channel breaks masked by DP redundancy.
* :func:`run_table` — per-task status/runtime bookkeeping.

:func:`render_report` stitches the applicable views into one text
report from whatever record mix the store holds.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a fixed-width table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    def line(row):
        return " | ".join(c.ljust(w) for c, w in zip(row, widths))
    sep = "-+-".join("-" * w for w in widths)
    out = [line(headers), sep]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


#: The benchmark suite behind the paper's Section 5 tables (shared by
#: ``repro paper-tables`` and ``experiment_atpg_coverage``).
SECTION5_SUITE: tuple[str, ...] = (
    "c17", "rca4", "parity8", "tmr_voter", "eq4", "alu_slice"
)

#: How to read the Section 5 tables — printed by both entry points.
SECTION5_READING = (
    "Reading: the classic stuck-at set leaves most polarity faults\n"
    "undetected at the outputs; the polarity-aware ATPG (voltage +\n"
    "IDDQ modes) closes the gap, and every DP-gate open is masked,\n"
    "requiring the paper's channel-break procedure."
)


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 100:.0f}%"


def by_circuit(records: Iterable[Mapping]) -> dict[str, dict[str, Mapping]]:
    """circuit -> fault_class -> latest ok record, preserving the order
    circuits first appear in the record stream (grid/report row order)."""
    grouped: dict[str, dict[str, Mapping]] = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        grouped.setdefault(record["circuit"], {})[record["fault_class"]] = (
            record
        )
    return grouped


def coverage_table(records: Sequence[Mapping]) -> str:
    """The Section 5 coverage study: classic stuck-at tests vs. the CP
    fault models, one row per circuit (needs ``stuck_at`` records;
    other fault classes fill in as available)."""
    rows = []
    for circuit, cells in by_circuit(records).items():
        sa = cells.get("stuck_at", {}).get("metrics", {})
        pol = cells.get("polarity", {}).get("metrics", {})
        iddq = cells.get("iddq", {}).get("metrics", {})
        sop = cells.get("stuck_open", {}).get("metrics", {})
        stats = next(iter(cells.values())).get("circuit_stats", {})
        rows.append(
            (
                circuit,
                stats.get("gates", "?"),
                sa.get("n_vectors", "n/a"),
                _pct(sa.get("coverage")),
                pol.get("n_faults", "n/a"),
                _pct(pol.get("coverage_by_stuck_at_set")),
                _pct(pol.get("atpg_coverage")),
                iddq.get("n_vectors", "n/a"),
                sop.get("n_masked", "n/a"),
                sop.get("n_faults", "n/a"),
            )
        )
    return ascii_table(
        (
            "circuit",
            "gates",
            "SA vecs",
            "SA cov",
            "pol faults",
            "pol cov by SA set",
            "pol cov (new ATPG)",
            "IDDQ vecs",
            "masked opens",
            "opens",
        ),
        rows,
    )


def escape_table(records: Sequence[Mapping]) -> str:
    """The defect-escape view: what a classic stuck-at flow ships.

    Polarity escapes are bridges the stuck-at set misses at the
    outputs; masked opens are channel breaks no two-pattern test can
    expose (both need the paper's new procedures)."""
    rows = []
    for circuit, cells in by_circuit(records).items():
        pol = cells.get("polarity", {}).get("metrics", {})
        iddq = cells.get("iddq", {}).get("metrics", {})
        sop = cells.get("stuck_open", {}).get("metrics", {})
        n_pol = pol.get("n_faults")
        n_escapes = pol.get("n_escapes")
        escape_rate = (
            None
            if not n_pol or n_escapes is None
            else n_escapes / n_pol
        )
        n_sop = sop.get("n_faults")
        n_masked = sop.get("n_masked")
        masked_rate = (
            None if not n_sop or n_masked is None else n_masked / n_sop
        )
        rows.append(
            (
                circuit,
                "n/a" if n_pol is None else n_pol,
                "n/a" if n_escapes is None else n_escapes,
                _pct(escape_rate),
                iddq.get("n_vectors", "n/a"),
                _pct(iddq.get("coverage")),
                "n/a" if n_sop is None else n_sop,
                "n/a" if n_masked is None else n_masked,
                _pct(masked_rate),
            )
        )
    return ascii_table(
        (
            "circuit",
            "pol faults",
            "pol escapes",
            "escape rate",
            "IDDQ vecs",
            "IDDQ cov",
            "opens",
            "masked opens",
            "masked rate",
        ),
        rows,
    )


def run_table(records: Sequence[Mapping]) -> str:
    """Per-task bookkeeping: status, headline metric, runtime."""
    latest: dict[str, Mapping] = {}
    for record in records:
        latest[record["task_id"]] = record
    rows = []
    for task_id in sorted(latest):
        record = latest[task_id]
        metrics = record.get("metrics", {})
        coverage = metrics.get(
            "coverage", metrics.get("atpg_coverage")
        )
        rows.append(
            (
                task_id,
                record.get("status", "?"),
                _pct(coverage) if coverage is not None else "n/a",
                f"{record.get('runtime_s', 0.0):.2f}s",
                record.get("error", ""),
            )
        )
    return ascii_table(
        ("task", "status", "coverage", "runtime", "error"), rows
    )


def render_report(records: Sequence[Mapping]) -> str:
    """Full text report from a record stream (store or fresh run)."""
    if not records:
        return "no campaign records"
    classes = {r["fault_class"] for r in records if r.get("status") == "ok"}
    sections = [
        "Campaign report "
        f"({len(records)} records, {len(by_circuit(records))} circuits)",
        "",
        "Task summary:",
        run_table(records),
    ]
    if "stuck_at" in classes:
        sections += [
            "",
            "Coverage: classic stuck-at tests vs CP fault models",
            coverage_table(records),
        ]
    if classes & {"polarity", "iddq", "stuck_open"}:
        sections += [
            "",
            "Escapes of the classic flow (needing the paper's new tests):",
            escape_table(records),
        ]
    return "\n".join(sections)
