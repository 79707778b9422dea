"""Legacy vs compiled PODEM: end-to-end ATPG wall-clock.

Runs the full stuck-at ATPG campaign (PODEM generation + bit-parallel
fault dropping) on rca8 / rca16 / alu4 twice — on the compiled kernel,
and with the dict-based oracle kernel of ``tests/oracles/podem_legacy.py``
patched in its place — asserts

* bit-identical results — same test vectors, same detection indices,
  same untestable/aborted classification — and
* the >=5x wall-clock bar on rca16 and alu4 (the acceptance circuits),

then writes a machine-readable perf record to ``BENCH_atpg.json`` at
the repository root (the perf-trajectory seed; CI uploads it as an
artifact).

A second, **scaling** tier covers the multi-word 2-D engine on the
ISCAS-class corpus (``benchmarks/netlists/``): a full stuck-at +
polarity random-simulation campaign (the ``fault_sim`` task) per
corpus circuit — combinational (cpx432 / cpx880 / cpx1908) and
sequential (sqx344 / sqx1488, time-frame expanded over 3 clock cycles
per test) — with single-digit-second wall-clock bars on the
>=1000-gate cpx1908 and sqx1488.  Both tiers land in the same
``BENCH_atpg.json`` record (schema v2: classic engine comparison under
``records``, corpus sweeps under ``scaling``; sequential rows carry a
non-null ``frames``).

Dual-mode: run under pytest (``pytest benchmarks/bench_atpg_speed.py``)
for the full bars, or standalone::

    PYTHONPATH=src python benchmarks/bench_atpg_speed.py [--smoke]
    PYTHONPATH=src python benchmarks/bench_atpg_speed.py --scaling

``--smoke`` is the CI perf-regression gate: one timing round and
relaxed bars so shared-runner jitter cannot fail a healthy build.
``--scaling`` runs only the corpus tier (the CI scaling-smoke job
pairs it with ``--smoke``).
"""

import argparse
import json
import sys
import time
from pathlib import Path

# The legacy kernel is a test oracle: import it the way the tests do.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles.podem_legacy import on_legacy_kernel  # noqa: E402

from repro.analysis import save_report
from repro.analysis.report import ascii_table
from repro.faults import stuck_at_faults
from repro.atpg.podem import run_stuck_at_atpg
from repro.circuits import build_benchmark

CIRCUITS = ("rca8", "rca16", "alu4")
#: Acceptance circuits and their required end-to-end speedup.
SPEEDUP_BARS = {"rca16": 5.0, "alu4": 5.0}
SMOKE_BAR = 2.0
#: Scaling tier: ISCAS-class corpus circuits for the multi-word sweep —
#: combinational plus the sequential (DFF) pair, which runs time-frame
#: expanded (FAULT_SIM_FRAMES cycles per test).
SCALING_CIRCUITS = ("cpx432", "cpx880", "cpx1908", "sqx344", "sqx1488")
#: The acceptance bars — full stuck-at + polarity campaigns on the
#: >=1000-gate circuits in single-digit seconds (relaxed under
#: --smoke).  sqx1488 unrolled x3 is a ~4500-gate problem, so its bar
#: doubles as the sequential-path perf gate.
SCALING_BARS_S = {"cpx1908": 9.0, "sqx1488": 9.0}
SCALING_SMOKE_BAR_S = 30.0
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_atpg.json"


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_campaigns(circuits=CIRCUITS, repeats=3):
    """Time both engines on full campaigns; returns per-circuit records.

    Raises AssertionError if any result field differs between engines —
    the speed comparison is only meaningful at identical coverage and
    identical untestable classification.
    """
    records = []
    for name in circuits:
        network = build_benchmark(name)
        faults = stuck_at_faults(network)
        t_legacy, legacy = _best_of(
            lambda: on_legacy_kernel(run_stuck_at_atpg, network, faults),
            repeats,
        )
        t_compiled, compiled = _best_of(
            lambda: run_stuck_at_atpg(network, faults), repeats
        )
        assert legacy.tests == compiled.tests, name
        assert legacy.detected == compiled.detected, name
        assert legacy.untestable == compiled.untestable, name
        assert legacy.aborted == compiled.aborted, name
        records.append({
            "circuit": name,
            "gates": len(network.gates),
            "faults": len(faults),
            "tests": len(compiled.tests),
            "coverage": compiled.coverage,
            "untestable": len(compiled.untestable),
            "aborted": len(compiled.aborted),
            "legacy_ms": t_legacy * 1e3,
            "compiled_ms": t_compiled * 1e3,
            "speedup": t_legacy / t_compiled,
        })
    return records


def run_scaling(circuits=SCALING_CIRCUITS, repeats=2):
    """Time the multi-word fault_sim campaign on the corpus circuits."""
    from repro.campaign.registry import get_registry
    from repro.campaign.tasks import FAULT_SIM_VECTORS, run_fault_sim_task

    registry = get_registry()
    records = []
    for name in circuits:
        network = registry.load(name)
        seconds, metrics = _best_of(
            lambda: run_fault_sim_task(network), repeats
        )
        records.append({
            "circuit": name,
            "gates": len(network.gates),
            "frames": metrics.get("n_frames"),  # None: combinational
            "vectors": FAULT_SIM_VECTORS,
            "stuck_at_faults": metrics["n_stuck_at_faults"],
            "stuck_at_coverage": metrics["stuck_at_coverage"],
            "polarity_faults": metrics["n_polarity_faults"],
            "polarity_iddq_coverage": metrics["polarity_iddq_coverage"],
            "seconds": seconds,
        })
    return records


def format_scaling_report(records):
    rows = [
        (
            r["circuit"], r["gates"],
            "-" if r["frames"] is None else f"x{r['frames']}",
            r["stuck_at_faults"],
            r["polarity_faults"], r["vectors"],
            f"{r['stuck_at_coverage'] * 100:.1f}%",
            "n/a" if r["polarity_iddq_coverage"] is None
            else f"{r['polarity_iddq_coverage'] * 100:.1f}%",
            f"{r['seconds']:.2f}",
        )
        for r in records
    ]
    return "\n".join([
        "Scaling tier: multi-word 2-D fault x vector sweeps on the "
        "ISCAS-class corpus",
        ascii_table(
            ("circuit", "gates", "frames", "sa faults", "pol faults",
             "vectors", "sa cov", "iddq cov", "seconds"),
            rows,
        ),
        "",
        "Full stuck-at + polarity (voltage and IDDQ) random-vector",
        "campaign per circuit through repro.logic.multiword: the fault",
        "batch and the whole vector set simulate as one numpy uint64",
        "sweep (fault-major x vector-word axes).  Sequential circuits",
        "(frames column) run time-frame expanded; each vector is a",
        "per-cycle input sequence and faults replicate across frames.",
    ])


def check_scaling_bars(records, bars):
    failures = []
    for r in records:
        bar = bars.get(r["circuit"])
        if bar is not None and r["seconds"] > bar:
            failures.append(
                f"{r['circuit']}: {r['seconds']:.2f}s over the "
                f"{bar:.0f}s bar"
            )
    return failures


def format_report(records):
    rows = [
        (
            r["circuit"], r["faults"], r["tests"],
            f"{r['coverage'] * 100:.1f}%", r["untestable"],
            f"{r['legacy_ms']:.1f}", f"{r['compiled_ms']:.1f}",
            f"x{r['speedup']:.1f}",
        )
        for r in records
    ]
    return "\n".join([
        "End-to-end stuck-at ATPG: legacy dict-based PODEM vs compiled "
        "D-calculus engine",
        ascii_table(
            ("circuit", "faults", "tests", "coverage", "untestable",
             "legacy ms", "compiled ms", "speedup"),
            rows,
        ),
        "",
        "Identical vectors, detection maps and untestable classification",
        "on every circuit; the compiled engine encodes good/faulty",
        "machines in the dual-rail words and re-implies only each",
        "decision's fanout cone.",
    ])


def write_record(records, bars, path=RECORD_PATH, scaling=None,
                 scaling_bars=None):
    record = {
        "benchmark": "atpg_speed",
        "schema_version": 2,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "python": sys.version.split()[0],
        "engine": "compiled D-calculus PODEM vs legacy dict-based PODEM",
        "workload": "run_stuck_at_atpg: PODEM + bit-parallel fault "
                    "dropping over the full collapsed stuck-at list",
        "speedup_bars": bars,
        "records": records,
    }
    if path.exists():
        # Preserve whichever tier this invocation did not rerun, so
        # --scaling and the classic run don't clobber each other.
        try:
            previous = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            previous = {}
        if scaling is None:
            scaling = previous.get("scaling")
            scaling_bars = previous.get("scaling_bars_s", scaling_bars)
        if not records:
            record["records"] = previous.get("records", [])
            record["speedup_bars"] = previous.get("speedup_bars", bars)
    if scaling is not None:
        record["scaling_workload"] = (
            "run_fault_sim_task: multi-word stuck-at + polarity "
            "random-vector campaign on the ISCAS-class corpus"
        )
        record["scaling_bars_s"] = scaling_bars or {}
        record["scaling"] = scaling
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def check_bars(records, bars):
    failures = []
    for r in records:
        bar = bars.get(r["circuit"])
        if bar is not None and r["speedup"] < bar:
            failures.append(
                f"{r['circuit']}: x{r['speedup']:.1f} below the "
                f"{bar:.0f}x bar"
            )
    return failures


def test_atpg_speed(once):
    records = run_campaigns()
    report = format_report(records)
    print("\n" + report)
    save_report("atpg_speed", report)
    write_record(records, SPEEDUP_BARS)

    def run_compiled_again():
        network = build_benchmark("rca16")
        return run_stuck_at_atpg(network, stuck_at_faults(network))

    once(run_compiled_again)
    failures = check_bars(records, SPEEDUP_BARS)
    assert not failures, "; ".join(failures)


def test_scaling_tier(once):
    scaling = run_scaling(repeats=2)
    report = format_scaling_report(scaling)
    print("\n" + report)
    save_report("atpg_scaling", report)
    write_record([], SPEEDUP_BARS, scaling=scaling,
                 scaling_bars=SCALING_BARS_S)

    def run_cpx1908_again():
        from repro.campaign.registry import get_registry
        from repro.campaign.tasks import run_fault_sim_task

        return run_fault_sim_task(get_registry().load("cpx1908"))

    once(run_cpx1908_again)
    failures = check_scaling_bars(scaling, SCALING_BARS_S)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: single timing round, relaxed "
             f"{SMOKE_BAR:.0f}x / {SCALING_SMOKE_BAR_S:.0f}s bars",
    )
    parser.add_argument(
        "--scaling", action="store_true",
        help="run only the ISCAS-class corpus scaling tier",
    )
    parser.add_argument(
        "--out", type=Path, default=RECORD_PATH,
        help="perf-record path (default: repo-root BENCH_atpg.json)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else 3
    failures = []
    if args.scaling:
        records, bars = [], {}
        scaling_bars = (
            {name: SCALING_SMOKE_BAR_S for name in SCALING_BARS_S}
            if args.smoke else dict(SCALING_BARS_S)
        )
        scaling = run_scaling(repeats=max(1, repeats - 1))
        print(format_scaling_report(scaling))
        failures += check_scaling_bars(scaling, scaling_bars)
    else:
        bars = (
            {name: SMOKE_BAR for name in SPEEDUP_BARS}
            if args.smoke else dict(SPEEDUP_BARS)
        )
        scaling, scaling_bars = None, None
        records = run_campaigns(repeats=repeats)
        print(format_report(records))
        failures += check_bars(records, bars)
    path = write_record(records, bars, args.out, scaling=scaling,
                        scaling_bars=scaling_bars)
    print(f"\nperf record -> {path}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
