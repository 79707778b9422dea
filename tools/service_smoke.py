#!/usr/bin/env python
"""End-to-end smoke of the campaign job service, over real HTTP.

Boots ``python -m repro serve`` as a subprocess on an ephemeral port,
submits a smoke grid through the HTTP API, waits for it to finish,
then cross-checks the three views of the same campaign:

* the job status (per-task counts, all ``ok``),
* the ``/metrics`` scrape (``repro_service_jobs_total``,
  ``repro_campaign_tasks_total``), and
* the sqlite store on disk (one committed row per task, zero
  stale claims).

It then resubmits the same grid, which resume must serve from the
store (every cell ``ok``, no new row), SIGTERMs the server, asserting a
clean (code 0) graceful shutdown, restarts it on the same state
directory and checks that the finished job's status and results come
back identical, that ``GET /jobs`` lists the same jobs in the same
states (as many as ``/healthz`` counts), and that the state directory
holds nothing but the store's ``store.sqlite*`` files.  Last it tears
one result row on disk while the server is down, restarts it and
resubmits the grid: exactly that cell is recomputed, its torn row sits
in the ``quarantine`` table and the result-row count is unchanged.
Any divergence — a lost or recomputed row, a counter that drifts from
the store, an unclean exit, a job that reads differently after a
restart, a job file beside the store, a torn row served or kept —
fails the script.  CI runs this in the ``service-smoke`` job;
locally::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.service.api import ServiceClient  # noqa: E402

SMOKE_SPEC = {
    "circuits": ["c17", "tmr_voter"],
    "fault_classes": ["stuck_at", "polarity", "iddq", "stuck_open"],
}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz().get("ok"):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError("service never became healthy")


def store_rows(store: Path) -> dict[str, int]:
    """Committed-row count per status, from the store on disk."""
    uri = f"file:{store}?mode=ro"
    with sqlite3.connect(uri, uri=True) as conn:
        return dict(conn.execute(
            "SELECT status, COUNT(*) FROM tasks GROUP BY status"
        ))


def result_rows(store: Path) -> int:
    """Committed result rows, every attempt of every task."""
    uri = f"file:{store}?mode=ro"
    with sqlite3.connect(uri, uri=True) as conn:
        return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]


def job_states(client: ServiceClient) -> list[tuple[str, str]]:
    """``(id, state)`` of every job ``GET /jobs`` lists, in its order,
    after checking that ``/healthz`` counts as many jobs."""
    states = [(job["id"], job["state"]) for job in client.jobs()]
    n_jobs = client.healthz()["jobs"]
    assert n_jobs == len(states), (
        f"/healthz counts {n_jobs} jobs, GET /jobs lists {len(states)}"
    )
    return states


def tear_row(store: Path, task_id: str) -> int:
    """Truncate ``task_id``'s result row on disk, as a torn write
    would; returns the store's highest result ``seq``."""
    conn = sqlite3.connect(str(store))
    with conn:
        conn.execute(
            "UPDATE results SET record = substr(record, 1, 20) "
            "WHERE task_id = ?", (task_id,),
        )
        last_seq = conn.execute("SELECT MAX(seq) FROM results").fetchone()[0]
    conn.close()
    return last_seq


def rows_after(store: Path, seq: int) -> tuple[list[str], list[str]]:
    """Task ids of the result rows committed after ``seq``, and of the
    quarantined rows."""
    uri = f"file:{store}?mode=ro"
    with sqlite3.connect(uri, uri=True) as conn:
        fresh = [task_id for (task_id,) in conn.execute(
            "SELECT task_id FROM results WHERE seq > ? ORDER BY seq", (seq,)
        )]
        quarantined = [task_id for (task_id,) in conn.execute(
            "SELECT task_id FROM quarantine"
        )]
    return fresh, quarantined


def start_server(state_dir: Path) -> tuple[subprocess.Popen, ServiceClient]:
    port = free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--state-dir", str(state_dir)],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    return server, ServiceClient(f"http://127.0.0.1:{port}")


def stop_server(server: subprocess.Popen) -> None:
    server.send_signal(signal.SIGTERM)
    code = server.wait(timeout=30.0)
    assert code == 0, f"server exited {code} on SIGTERM"
    print("server shut down cleanly on SIGTERM")


def main() -> int:
    n_tasks = len(SMOKE_SPEC["circuits"]) * len(SMOKE_SPEC["fault_classes"])
    with tempfile.TemporaryDirectory() as tmp_dir:
        state_dir = Path(tmp_dir) / "service_state"
        store = state_dir / "store.sqlite"
        server, client = start_server(state_dir)
        try:
            wait_healthy(client)

            status = client.submit(SMOKE_SPEC)
            print(f"submitted job {status['id']} ({n_tasks} tasks)")
            status = client.wait(status["id"], timeout=120.0)
            assert status["state"] == "done", status
            assert status["counts"].get("ok") == n_tasks, status["counts"]

            page = client.results(status["id"], offset=0)
            assert page["complete"] and len(page["records"]) == n_tasks, (
                f"results page: {len(page['records'])}/{n_tasks} records"
            )

            jobs_done = client.metric_value(
                "repro_service_jobs_total", state="done"
            )
            tasks_ok = client.metric_value(
                "repro_campaign_tasks_total", status="ok"
            )
            rows = store_rows(store)
            assert jobs_done == 1.0, f"jobs_total done={jobs_done}"
            assert tasks_ok == float(n_tasks), f"tasks_total ok={tasks_ok}"
            # The tasks table tracks the claim lifecycle: every task
            # 'done' (committed) and none left claimed or pending.
            assert rows == {"done": n_tasks}, (
                f"store rows {rows} != metrics ok={tasks_ok:g}"
            )
            print(f"metrics agree with store: {n_tasks} ok rows, "
                  f"{jobs_done:g} job done")

            # The same grid again: resume serves every cell from the
            # store and commits nothing.
            n_rows = result_rows(store)
            again = client.wait(client.submit(SMOKE_SPEC)["id"],
                                timeout=120.0)
            assert again["state"] == "done", again
            assert again["counts"].get("ok") == n_tasks, again["counts"]
            again_page = client.results(again["id"], offset=0)
            assert len(again_page["records"]) == n_tasks and all(
                r["status"] == "ok" for r in again_page["records"]
            ), again_page["records"]
            assert result_rows(store) == n_rows, (
                f"resubmit committed {result_rows(store) - n_rows} new rows"
            )
            resumed = client.metric_value(
                "repro_campaign_tasks_resumed_total"
            )
            assert resumed == float(n_tasks), f"tasks resumed={resumed}"
            print(f"resubmitted grid served by resume: {n_tasks} cells, "
                  "no new rows")
            before = (client.status(status["id"]),
                      client.results(status["id"], offset=0))
            jobs_before = job_states(client)
        finally:
            stop_server(server)

        server, client = start_server(state_dir)
        try:
            wait_healthy(client)
            after = (client.status(status["id"]),
                     client.results(status["id"], offset=0))
            assert after == before, (
                "finished job reads differently after a restart"
            )
            assert result_rows(store) == n_rows
            print("finished job's status and results unchanged by a "
                  "restart")
            jobs_after = job_states(client)
            assert jobs_after == jobs_before, (
                f"GET /jobs after a restart: {jobs_after} != {jobs_before}"
            )
            print(f"GET /jobs unchanged by a restart: {len(jobs_after)} jobs")
            extra = sorted(
                path.name for path in state_dir.iterdir()
                if not path.name.startswith("store.sqlite")
            )
            assert not extra, f"state dir holds more than the store: {extra}"
            print("state dir holds only the store")
        finally:
            stop_server(server)

        # A row torn while the server is down: the restart reads no
        # result row, and the resubmitted grid's resume quarantines the
        # row and recomputes exactly its cell.
        torn = page["records"][0]["task_id"]
        last_seq = tear_row(store, torn)
        server, client = start_server(state_dir)
        try:
            wait_healthy(client)
            rerun = client.wait(client.submit(SMOKE_SPEC)["id"],
                                timeout=120.0)
            assert rerun["state"] == "done", rerun
            assert rerun["counts"].get("ok") == n_tasks, rerun["counts"]
            fresh, quarantined = rows_after(store, last_seq)
            assert fresh == [torn], f"recomputed {fresh}, torn {torn}"
            assert quarantined == [torn], f"quarantine holds {quarantined}"
            assert result_rows(store) == n_rows, (
                f"result rows {result_rows(store)} != {n_rows}"
            )
            resumed = client.metric_value(
                "repro_campaign_tasks_resumed_total"
            )
            assert resumed == float(n_tasks - 1), f"tasks resumed={resumed}"
            job_states(client)
            print(f"torn row {torn} quarantined and its cell recomputed, "
                  "no other cell")
        finally:
            stop_server(server)
    print("service smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
