"""service_jobs: the HTTP job service driven by two closed-loop clients.

Every pass runs ``python -m repro serve`` as a subprocess on a fresh
``--state-dir`` and an ephemeral port; traced passes run the same
server under the tracer (``traced_server.py``), so the wrappers see
``JobManager.submit`` / ``status`` / ``results`` and the campaign
layers under them in the server process.

Every pass starts from a copy of one warmed store (the paper grid,
computed once per run by an untimed warm-up job), so every pass reads
the same rows and writes the same not-yet-computed cells.  A pass's
``setup_s`` is the server's CPU time from spawn to the end of its
priming job and its ``run_s`` the server's CPU time after that; its
``wall_s`` and the job and HTTP latencies are client-side wall times.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

#: Fixed client poll interval for ``GET /jobs/<id>``.  Every poll costs
#: the server a store scan, so the poll count must not follow the
#: machine's speed: at 10 ms a pass made 2 000-3 400 polls from run to
#: run and the server's CPU time spread 14 % over ten seeds; at 50 ms
#: most jobs are done by their first poll.
POLL_S = 0.05
#: Bound on one job, submit to terminal state.
JOB_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")
WARMUP_JOB = {
    "circuits": [c for cs in workloads.CLIENT_CIRCUITS for c in cs],
    "fault_classes": ["stuck_at", "polarity", "iddq", "stuck_open"],
}
#: First job of every pass, counted in set-up: a stored cell, so it only
#: makes the fresh server build its circuit registry (1-2 s of CPU, paid
#: on the first submit), which would otherwise dominate the pass.
PRIME_JOB = {"circuits": ["c17"], "fault_classes": ["stuck_at"]}
_PORT_LINE = re.compile(r"http://[^:]+:(\d+)")


def call(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP request on its own connection: ``(status, payload,
    seconds)``; status 0 means the request itself failed."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read() or b"null")
        status = response.status
    except (OSError, http.client.HTTPException, ValueError):
        status, payload = 0, None
    finally:
        conn.close()
    return status, payload, time.perf_counter() - start


class Server:
    """``python -m repro serve`` as a subprocess, answering ``/healthz``
    once constructed."""

    def __init__(self, root: Path, state_dir: Path,
                 trace_stats: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [sys.executable, "-m", "repro", "serve", "--state-dir",
                   str(state_dir), "--port", "0"]
        if trace_stats is not None:
            command = [sys.executable, str(HERE / "traced_server.py"),
                       str(state_dir), str(trace_stats)]
        self.log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            cwd=state_dir.parent, env=env, stdout=subprocess.PIPE,
            stderr=self.log,
        )
        try:
            self.port = self._read_port(deadline=self.spawned + 60.0)
            while call(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > self.spawned + 60.0:
                    raise RuntimeError("service never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], max(0.0, deadline - time.monotonic())
            )
            if not ready:
                raise RuntimeError("service printed no address")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("service exited before listening")
            line += chunk
        match = _PORT_LINE.search(line.decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"no port in service banner {line!r}")
        return int(match.group(1))

    def cpu_s(self) -> float:
        """CPU seconds (user + system, all threads) the server used."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = re.search(r"VmHWM:\s+(\d+)", status)
        return int(kb.group(1)) / 1024.0 if kb else 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _cells_reason(spec: dict, records: list[dict]) -> str:
    """Reason a finished job's results do not hold exactly its cells,
    all ok, or ``""``.  The cells' values are checked against the pinned
    ones by ``workloads.check_outputs``."""
    expected = {
        f"{c}/{fc}/{spec['engine']}"
        for c in spec["circuits"] for fc in spec["fault_classes"]
    }
    latest = {r["task_id"]: r for r in records}
    if set(latest) != expected:
        return f"results hold {sorted(latest)}, expected {sorted(expected)}"
    if any(r.get("status") != "ok" for r in latest.values()):
        return "a cell did not finish ok"
    return ""


def run_job(port: int, payload: dict, log: dict, job_id: str) -> None:
    """Submit one job, poll until terminal, page its results.

    The job is one op; it fails unless it ends ``done`` with exactly its
    cells, all ok.  Its cells' metrics go to ``log["outputs"][job_id]``.
    """
    ops = log["ops"]

    def http(route, method, path, body=None):
        status, reply, seconds = call(port, method, path, body)
        log["latency"][route].append(seconds)
        ok = 200 <= status < 300
        ops.append({"id": f"http:{route}", "seconds": seconds, "ok": ok,
                    "reason": "" if ok else f"HTTP {status}"})
        return reply if ok else None

    start = time.perf_counter()
    status = http("submit", "POST", "/jobs", payload)
    reason = "submit failed" if status is None else ""
    while status is not None and status["state"] not in TERMINAL:
        if time.perf_counter() - start > JOB_TIMEOUT_S:
            reason = f"still {status['state']} after {JOB_TIMEOUT_S:g}s"
            break
        time.sleep(POLL_S)
        status = http("status", "GET", f"/jobs/{status['id']}") or status
    latency = time.perf_counter() - start
    if not reason and status["state"] != "done":
        reason = f"job ended {status['state']}: {status.get('error')}"
    if not reason:
        log["job_latency"].append(latency)
        log["queue_wait_ms"].append(
            1000.0 * (status["started_at"] - status["submitted_at"])
        )
        records: list[dict] = []
        offset = None
        while offset != len(records):
            offset = len(records)
            page = http("results", "GET",
                        f"/jobs/{status['id']}/results?offset={offset}")
            if page is None:
                reason = "results paging failed"
                break
            records.extend(page["records"])
        if not reason:
            reason = _cells_reason(status["spec"], records)
        if not reason:
            log["outputs"][job_id] = {
                r["task_id"]: r.get("metrics") for r in records
            }
    ops.append({"id": job_id, "seconds": latency, "ok": not reason,
                "reason": reason})


def _new_log() -> dict:
    return {"ops": [], "outputs": {}, "job_latency": [], "queue_wait_ms": [],
            "latency": {"submit": [], "status": [], "results": []}}


def _merge(logs: list[dict]) -> dict:
    merged = _new_log()
    for log in logs:
        for key in ("ops", "job_latency", "queue_wait_ms"):
            merged[key].extend(log[key])
        merged["outputs"].update(log["outputs"])
        for route, values in log["latency"].items():
            merged["latency"][route].extend(values)
    return merged


def client_pass(port: int, sequences: list[list[dict]]) -> dict:
    """Both clients' job sequences, one thread each, closed loop.  Job
    ``j`` of client ``i`` is op ``job:i/j``."""
    logs = [_new_log() for _ in sequences]

    def client(index, jobs, log):
        for number, payload in enumerate(jobs):
            run_job(port, payload, log, f"job:{index}/{number}")

    threads = [
        threading.Thread(target=client, args=(index, jobs, log))
        for index, (jobs, log) in enumerate(zip(sequences, logs))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = _merge(logs)
    result["wall_s"] = time.perf_counter() - start
    return result


def duplicated_tasks(store_path: Path) -> list[str]:
    """Task ids with more than one row in the store."""
    conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
    try:
        rows = conn.execute("SELECT record FROM results").fetchall()
    finally:
        conn.close()
    seen: dict[str, int] = {}
    for (text,) in rows:
        task_id = json.loads(text)["task_id"]
        seen[task_id] = seen.get(task_id, 0) + 1
    return sorted(t for t, n in seen.items() if n > 1)


def _store_check(state_dir: Path) -> dict:
    dups = duplicated_tasks(state_dir / "store.sqlite")
    return {"id": "store:no-duplicates", "seconds": 0.0, "ok": not dups,
            "reason": f"duplicated task rows: {dups}" if dups else ""}


def copy_store(src: Path, dst: Path) -> None:
    dst.mkdir(parents=True)
    for path in src.glob("store.sqlite*"):
        shutil.copy2(path, dst / path.name)


def warm_up(root: Path, work: Path) -> tuple[Path, dict]:
    """Compute the paper grid once; return the warmed state directory
    and the warm-up's log (its op and outputs are checked like any
    pass's)."""
    base = work / "warm"
    base.mkdir(parents=True)
    server = Server(root, base)
    try:
        log = _new_log()
        run_job(server.port, WARMUP_JOB, log, "warmup")
    finally:
        server.stop()
    return base, log


def server_pass(root, state_dir, sequences, trace=False) -> dict:
    """One pass against a fresh server; a traced pass runs the server
    under the tracer and returns its layer statistics too.

    Set-up ends when the priming job is done, so ``setup_s`` (server
    CPU seconds) counts the registry build every fresh server pays.
    ``run_s`` is the server's CPU time for both clients' job sequences;
    ``wall_s``, the clients' wall time over the same span, also counts
    waits (sqlite busy time-outs, lock waits, polling) but on a shared
    machine it also counts the time other tenants hold the CPU."""
    stats = state_dir.parent / f"{state_dir.name}.stats.json"
    server = Server(root, state_dir, stats if trace else None)
    prime = _new_log()
    try:
        run_job(server.port, PRIME_JOB, prime, "prime")
        setup_s = server.cpu_s()
        setup_wall_s = time.monotonic() - server.spawned
        result = client_pass(server.port, sequences)
        result["run_s"] = server.cpu_s() - setup_s
        result["rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    result["setup_s"] = setup_s
    result["setup_wall_s"] = setup_wall_s
    result["ops"] += prime["ops"] + [_store_check(state_dir)]
    result["outputs"].update(prime["outputs"])
    if trace:
        result.update(json.loads(stats.read_text(encoding="utf-8")))
    return result
