"""The fault-modeling pipeline benchmark: one command, four workloads.

    python3 perfbench/run.py --workload corpus_scale --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last stdout line is a JSON object with
every end-to-end metric; with ``--trace 1`` it has every per-layer
metric instead, and the lines before it say which end-to-end metric and
workload each layer metric should move.  The full run record (every
operation, pass and failure) goes to ``perfbench/out/<workload>.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples per run, for the set-up median.  Every pass gives
#: one; a workload whose pass fills the window (corpus_scale,
#: cell_screen) is topped up with set-up-only processes.
MIN_SETUPS = 3
WORKER_TIMEOUT_S = 170.0


def spawn_worker(work: Path, index: int, request: dict) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its result."""
    workdir = work / f"w{index}"
    workdir.mkdir(parents=True)
    request_path, result_path = workdir / "request.json", workdir / "result.json"
    request_path.write_text(json.dumps(dict(
        request, root=str(ROOT), workdir=str(workdir),
        spawned_at=time.monotonic(),
    )), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(request_path),
         str(result_path)],
        cwd=workdir, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {request['mode']} failed:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(workdir)
    return result


def run_passes(run_one, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced (and, when tracing, alternating traced) passes until the
    next pass would overrun ``seconds``; at least one of each kind."""
    plain, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        with_trace = trace and index % 2 == 1
        (traced if with_trace else plain).append(run_one(index, with_trace))
        index += 1
        elapsed = time.monotonic() - start
        if trace and not traced:
            continue
        if elapsed + elapsed / index > seconds:
            return plain, traced


def measure_worker_workload(name, inputs, seconds, trace, work):
    def one(index, with_trace):
        return spawn_worker(work, index, {
            "workload": name, "mode": "pass", "trace": with_trace,
            "inputs": inputs,
        })

    plain, traced = run_passes(one, seconds, trace)
    samples = plain + traced + [
        spawn_worker(work, 1000 + i, {"workload": name, "mode": "setup"})
        for i in range(MIN_SETUPS - len(plain) - len(traced))
    ]
    return {
        "setups": [r["setup_s"] for r in samples],
        "imports": [r["import_s"] for r in samples],
        "plain": plain,
        "traced": traced,
        "pre": [],
    }


def measure_service(inputs, seconds, trace, work):
    import service

    warm, warm_log = service.warm_up(ROOT, work)

    def one(index, with_trace):
        state_dir = work / f"pass-{index}"
        service.copy_store(warm, state_dir)
        return service.server_pass(
            ROOT, state_dir, inputs["jobs"], trace=with_trace
        )

    plain, traced = run_passes(one, seconds, trace)
    return {
        # A traced server's set-up runs under the tracer: not a sample.
        "setups": [r["setup_s"] for r in plain],
        "imports": [r["import_s"] for r in traced],
        "plain": plain,
        "traced": traced,
        "pre": [warm_log],
    }


def check_passes(name, measured, pinned) -> list[dict]:
    """Check every pass's outputs and return the ops of the whole run.

    An op whose output disagrees with the pinned values fails.  Every
    failed op is a ``mismatch`` (the run is not correct) unless the
    pinned outputs expect it to fail (``workloads.expected_failure``).
    ``measured["pre"]`` (the service warm-up) is checked but not timed."""
    ops = []
    for result in measured["pre"] + measured["plain"] + measured["traced"]:
        bad = workloads.check_outputs(name, result["outputs"], pinned)
        for op in result["ops"]:
            if op["id"] in bad and op["ok"]:
                op.update(ok=False, reason=f"output check: {bad[op['id']]}")
        ops.extend(result["ops"])
    if measured["traced"]:
        # Tracing must not change what the program computes.
        same = all(r["outputs"] == measured["plain"][0]["outputs"]
                   for r in measured["traced"])
        ops.append({"id": "trace:identical-outputs", "seconds": 0.0,
                    "ok": same, "reason": "" if same
                    else "traced pass outputs differ from untraced"})
    for op in ops:
        op["mismatch"] = not op["ok"] and not workloads.expected_failure(
            name, op["id"], pinned
        )
    return ops


def end_to_end(measured, ops) -> dict[str, float]:
    plain = measured["plain"]
    failed = sum(1 for op in ops if not op["ok"])
    return {
        "setup_s": report.median(measured["setups"]),
        "run_s": report.median(r["run_s"] for r in plain),
        "peak_rss_mb": report.median(r["rss_mb"] for r in plain),
        "ok_rate": 1.0 - report.ratio(failed, len(ops)),
    }


def per_layer(name, measured, ops) -> dict[str, float]:
    plain, traced = measured["plain"], measured["traced"]
    metrics = report.median_metrics(
        [report.traced_layer_metrics(r) for r in traced]
    )
    extra = {k: sum(r.get("extra", {}).get(k, 0) for r in plain)
             for k in ("fault_vectors", "fault_sim_s", "podem_resolved",
                       "podem_s")}

    def ms(values):
        return 1000.0 * report.median(values)

    service = name == "service_jobs"
    latency = {
        route: [s for r in plain for s in r["latency"][route]]
        for route in ("submit", "status", "results")
    } if service else {}
    metrics.update({
        "import.cli_s": report.median(measured["imports"]),
        "jobs.queue_wait_ms": report.median(
            w for r in plain for w in r["queue_wait_ms"]
        ) if service else 0.0,
        "http.submit.p50_ms": ms(latency.get("submit", [])),
        "http.status.p50_ms": ms(latency.get("status", [])),
        "http.results.p50_ms": ms(latency.get("results", [])),
        "fault_vectors_per_s": report.ratio(
            extra["fault_vectors"], extra["fault_sim_s"]
        ),
        "podem_faults_per_s": report.ratio(
            extra["podem_resolved"], extra["podem_s"]
        ),
        "jobs_per_s": report.ratio(
            sum(len(r["job_latency"]) for r in plain),
            sum(r["wall_s"] for r in plain),
        ) if service else 0.0,
        "job_p50_ms": ms(
            s for r in plain for s in r["job_latency"]
        ) if service else 0.0,
        "status_p50_ms": ms(latency.get("status", [])),
        "error_rate": report.ratio(
            sum(1 for op in ops if not op["ok"]), len(ops)
        ),
        "trace.overhead_s": report.median(r["run_s"] for r in traced)
        - report.median(r["run_s"] for r in plain),
    })
    return metrics


def write_record(name, args, measured, ops, metrics) -> Path:
    """The run record: every pass's timings, every failed operation and
    the cell-screen pairs that did not converge."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}.json"
    passes = []
    for kind in ("plain", "traced"):
        for r in measured[kind]:
            passes.append({
                "traced": kind == "traced",
                "run_s": r["run_s"],
                "wall_s": r["wall_s"],
                "setup_s": r.get("setup_s"),
                "setup_wall_s": r.get("setup_wall_s"),
                "n_ops": len(r["ops"]),
                "nonconverged": r.get("nonconverged", []),
            })
    path.write_text(json.dumps({
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "setups": measured["setups"],
        "passes": passes,
        "failed_ops": [op for op in ops if not op["ok"]],
        "nonconverged": sorted({
            op_id for r in measured["plain"] + measured["traced"]
            for op_id in r.get("nonconverged", [])
        }),
    }, indent=1), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    pinned = workloads.load_pinned()
    inputs = workloads.make_inputs(args.workload, args.seed, pinned)
    work = HERE / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "service_jobs":
            measured = measure_service(
                inputs, args.seconds, bool(args.trace), work
            )
        else:
            measured = measure_worker_workload(
                args.workload, inputs, args.seconds, bool(args.trace), work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = check_passes(args.workload, measured, pinned)
    metrics = (per_layer(args.workload, measured, ops) if args.trace
               else end_to_end(measured, ops))
    record = write_record(args.workload, args, measured, ops, metrics)

    failed = [op for op in ops if not op["ok"]]
    moves = {name: m for name, _u, _b, m in report.PER_LAYER}
    for name, value in metrics.items():
        line = f"{name:32s} {value:14.6g} {report.UNITS[name]}"
        print(line + (f"   -> {moves[name]}" if args.trace else ""))
    for op in failed:
        print(f"failed: {op['id']}: {op['reason']}")
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(op["mismatch"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": report.UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
