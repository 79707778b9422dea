"""Campaign job service: metrics registry, job manager, HTTP API and
the failure modes the service must survive.

The service contract mirrors the storage layer's: nothing the service
does — cancelling a campaign mid-grid, SIGKILLing the server process,
racing two clients over the same grid, SIGTERMing a CLI run — may
change *what* a campaign computes.  Every disturbed store must stay
resumable and converge (after :func:`strip_volatile`) to the
undisturbed run, with exactly one committed row per task.
"""

import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.backends import open_store
from repro.campaign.runner import expand_grid, run_campaign
from repro.campaign.store import stores_equal
from repro.obs import Registry
from repro.service.api import (
    METRICS_CONTENT_TYPE,
    ServiceClient,
    ServiceHTTPError,
    create_server,
)
from repro.service import jobs as jobs_module
from repro.service.jobs import JobError, JobManager, JobSpec
from repro.service.metrics import cache_stats, install_cache_collectors

needs_posix = pytest.mark.skipif(
    os.name != "posix", reason="needs POSIX signal semantics"
)

REPO = Path(__file__).resolve().parents[1]

#: Fast grid (small circuits, milliseconds per cell): API plumbing.
SMALL_SPEC = {
    "circuits": ["c17", "tmr_voter"],
    "fault_classes": ["stuck_at", "polarity", "iddq", "stuck_open"],
}
SMALL_TASKS = 8

#: Slow-enough grid (the alu8 stuck_open cell runs for seconds, after
#: the first record): the subprocess interruption tests need the
#: campaign still in flight when the signal lands, and a server or CLI
#: process cannot see a fault class registered by the test.
SLOW_SPEC = {
    "circuits": ["alu8", "c17"],
    "fault_classes": ["stuck_at", "stuck_open"],
}
SLOW_TASKS = 4

#: In-process interruption grid: the ``gated`` test fault class (see
#: :func:`gated_cells`) keeps the job in flight after its first record,
#: however fast real cells run.
GATED_SPEC = {
    "circuits": ["c17", "tmr_voter", "rca4", "parity8"],
    "fault_classes": ["gated"],
}
GATED_TASKS = 4


class _GatedCells:
    """Test-only fault class: its first cell returns at once, and every
    later cell signals ``in_flight`` and blocks until ``release`` is set."""

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = 0
        self.in_flight = threading.Event()
        self.release = threading.Event()

    def __call__(self, network):
        with self._lock:
            self._calls += 1
            first = self._calls == 1
        if not first:
            self.in_flight.set()
            if not self.release.wait(60.0):
                raise TimeoutError("gated cell never released")
        return {"n_gates": len(network.gates)}


@pytest.fixture
def gated_cells(monkeypatch):
    """Register the ``gated`` fault class for in-process campaigns."""
    from repro.campaign.tasks import TASK_RUNNERS

    cells = _GatedCells()
    monkeypatch.setitem(TASK_RUNNERS, "gated", cells)
    yield cells
    cells.release.set()  # never leave a worker thread blocked


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _store_task_ids(store_path):
    """task_id of every committed record, in commit order."""
    uri = f"file:{store_path}?mode=ro"
    with sqlite3.connect(uri, uri=True) as conn:
        return [
            json.loads(text)["task_id"]
            for (text,) in conn.execute(
                "SELECT record FROM results ORDER BY seq"
            )
        ]


def _claim_statuses(store_path):
    uri = f"file:{store_path}?mode=ro"
    with sqlite3.connect(uri, uri=True) as conn:
        return dict(conn.execute(
            "SELECT status, COUNT(*) FROM tasks GROUP BY status"
        ))


# ---------------------------------------------------------------------------
# Metrics registry (pure unit tests, fresh Registry per test)
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_labels_and_render(self):
        reg = Registry()
        c = reg.counter("x_total", "Things", ("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="a").inc(2.5)
        c.labels(kind="b").inc()
        assert c.value_for(kind="a") == 3.5
        assert c.total() == 4.5
        text = reg.render()
        assert "# HELP x_total Things" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{kind="a"} 3.5' in text
        assert 'x_total{kind="b"} 1.0' in text

    def test_gauge_set_and_dec(self):
        reg = Registry()
        g = reg.gauge("depth", "Queue depth")
        g.set(7.0)
        g.dec(2.0)
        assert g.value == 5.0
        assert "# TYPE depth gauge" in reg.render()

    def test_histogram_buckets_are_cumulative(self):
        reg = Registry()
        h = reg.histogram("lat", "Latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 100.0):
            h.observe(value)
        text = reg.render()
        assert 'lat_bucket{le="0.1"} 1.0' in text
        assert 'lat_bucket{le="1.0"} 3.0' in text
        assert 'lat_bucket{le="10.0"} 3.0' in text
        assert 'lat_bucket{le="+Inf"} 4.0' in text
        assert "lat_count 4.0" in text
        assert "lat_sum 101.05" in text

    def test_histogram_single_observation_counts_once(self):
        # Regression: an observation must land in exactly one raw
        # bucket — cumulation happens at render time only.
        reg = Registry()
        h = reg.histogram("one", "One", buckets=(0.005, 0.01, 0.025))
        h.observe(0.007)
        text = reg.render()
        assert 'one_bucket{le="0.005"} 0.0' in text
        assert 'one_bucket{le="0.01"} 1.0' in text
        assert 'one_bucket{le="0.025"} 1.0' in text
        assert 'one_bucket{le="+Inf"} 1.0' in text

    def test_label_value_escaping(self):
        reg = Registry()
        c = reg.counter("esc_total", "Escapes", ("path",))
        c.labels(path='a"b\\c\nd').inc()
        assert r'esc_total{path="a\"b\\c\nd"} 1.0' in reg.render()

    def test_get_or_create_identity_and_conflict(self):
        reg = Registry()
        first = reg.counter("same_total", "Same", ("k",))
        assert reg.counter("same_total", "Same", ("k",)) is first
        with pytest.raises(ValueError):
            reg.gauge("same_total", "Same", ("k",))
        with pytest.raises(ValueError):
            reg.counter("same_total", "Same", ("other",))

    def test_cache_stats_shape(self):
        stats = cache_stats()
        assert set(stats) == {"device", "compile_memo"}
        for counters in stats.values():
            assert {"hits", "misses"} <= set(counters)

    def test_cache_collector_renders_gauges(self):
        reg = Registry()
        install_cache_collectors(reg)
        text = reg.render()
        assert 'repro_cache_events{cache="device", event="hits"}' in text
        assert 'repro_cache_events{cache="compile_memo"' in text

    def test_device_counters_read_once_the_model_is_loaded(self):
        from repro.device.cache import cached_device, clear_model_caches

        clear_model_caches()
        try:
            cached_device()
            cached_device()
            assert cache_stats()["device"] == {"hits": 1, "misses": 1}
        finally:
            clear_model_caches()

    def test_scrape_does_not_load_the_analog_stack(self):
        # A digital-only process reports zero device/table counters
        # instead of importing scipy and the compact model to read them.
        code = (
            "import sys\n"
            "from repro.obs import Registry\n"
            "from repro.service.metrics import install_cache_collectors\n"
            "reg = Registry()\n"
            "install_cache_collectors(reg)\n"
            "text = reg.render()\n"
            "assert 'cache=\"device\", event=\"misses\"} 0.0' in text, text\n"
            "loaded = [m for m in ('scipy', 'repro.device')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# Job spec validation
# ---------------------------------------------------------------------------

class TestJobSpec:
    @pytest.mark.parametrize("payload, fragment", [
        ([], "JSON object"),
        ({"circuits": []}, "circuits"),
        ({"circuits": ["c17"], "fault_classes": []}, "fault_classes"),
        ({"circuits": ["c17"], "fault_classes": ["nope"]}, "nope"),
        ({"circuits": ["c17"], "workers": 0}, "workers"),
        ({"circuits": ["c17"], "timeout": -1}, "timeout"),
        ({"circuits": ["c17"], "bogus": 1}, "bogus"),
        ({"circuits": ["c17"], "engine": "legacy"}, "may only be 'compiled'"),
        ({"circuits": ["c17"], "engine": 3}, "engine"),
        ({"circuits": ["c17"], "workers": True}, "workers"),
        ({"circuits": ["c17"], "workers": 2.0}, "workers"),
        ({"circuits": ["c17"], "timeout": True}, "timeout"),
        ({"circuits": ["c17"], "timeout": False}, "timeout"),
        ({"circuits": ["c17"], "timeout": float("inf")}, "timeout"),
        ({"circuits": ["c17"], "timeout": float("nan")}, "timeout"),
        (json.loads('{"circuits": ["c17"], "timeout": Infinity}'),
         "timeout"),
        (json.loads('{"circuits": ["c17"], "timeout": NaN}'), "timeout"),
    ])
    def test_invalid_payloads(self, payload, fragment):
        with pytest.raises(JobError, match=fragment):
            JobSpec.from_payload(payload)

    def test_unknown_circuit_fails_at_expand(self):
        spec = JobSpec.from_payload({"circuits": ["no_such_circuit"]})
        with pytest.raises(JobError, match="no_such_circuit"):
            spec.expand()

    def test_defaults_round_trip(self):
        spec = JobSpec.from_payload({"circuits": ["c17"]})
        assert spec.to_payload()["engine"] == "compiled"
        assert spec.workers == 1
        assert JobSpec.from_payload(spec.to_payload()) == spec
        assert JobSpec.from_payload(
            {"circuits": ["c17"], "engine": "compiled"}
        ) == spec


# ---------------------------------------------------------------------------
# In-process service (manager + HTTP API)
# ---------------------------------------------------------------------------

@pytest.fixture
def service(tmp_path):
    manager = JobManager(tmp_path / "state", job_workers=2).start()
    server = create_server(manager, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield manager, ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()
        manager.stop(drain=False)


class TestServiceAPI:
    def test_end_to_end_job_over_http(self, service):
        manager, client = service
        assert client.healthz()["ok"] is True

        status = client.submit(SMALL_SPEC)
        assert status["state"] in ("queued", "running", "done")
        job_id = status["id"]
        status = client.wait(job_id)
        assert status["state"] == "done"
        assert status["counts"] == {
            "tasks": SMALL_TASKS, "ok": SMALL_TASKS,
            "failed": 0, "pending": 0,
        }

        page = client.results(job_id)
        assert page["complete"] and len(page["records"]) == SMALL_TASKS
        # Cursor paging: offset == next_offset yields no new rows.
        rest = client.results(job_id, offset=page["next_offset"])
        assert rest["records"] == [] and rest["complete"]

        assert any(j["id"] == job_id for j in client.jobs())

        text = client.metrics()
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_campaign_task_runtime_seconds histogram" in text
        done = client.metric_value("repro_service_jobs_total", state="done")
        assert done is not None and done >= 1.0
        ok = client.metric_value("repro_campaign_tasks_total", status="ok")
        assert ok is not None and ok >= SMALL_TASKS

    def test_error_statuses(self, service):
        _, client = service
        with pytest.raises(ServiceHTTPError) as err:
            client.status("feedbeefcafe")
        assert err.value.code == 404
        with pytest.raises(ServiceHTTPError) as err:
            client.submit({"circuits": []})
        assert err.value.code == 400
        with pytest.raises(ServiceHTTPError) as err:
            client.submit({"circuits": ["no_such_circuit"]})
        assert err.value.code == 400
        with pytest.raises(ServiceHTTPError) as err:
            client._json("GET", "/no/such/route")
        assert err.value.code == 404

    def test_unknown_engine_rejected_before_queueing(self, service):
        manager, client = service
        job = client.submit(
            {"circuits": ["c17"], "fault_classes": ["stuck_at"]}
        )
        assert client.wait(job["id"])["state"] == "done"
        rows = _store_task_ids(manager.store_path)
        claims = _claim_statuses(manager.store_path)
        with pytest.raises(ServiceHTTPError) as err:
            client.submit({"circuits": ["c17"], "engine": "legacy"})
        assert err.value.code == 400
        assert "'legacy'" in str(err.value)
        assert "may only be 'compiled'" in str(err.value)
        assert [j["id"] for j in client.jobs()] == [job["id"]]
        assert _store_task_ids(manager.store_path) == rows
        assert _claim_statuses(manager.store_path) == claims

    def test_bool_and_non_finite_fields_rejected_with_400(self, service):
        # The client's json.dumps writes NaN/Infinity, which the
        # server's json.loads accepts; the spec check must refuse them.
        manager, client = service
        for bad in ({"workers": True}, {"timeout": True},
                    {"timeout": float("nan")}, {"timeout": float("inf")}):
            with pytest.raises(ServiceHTTPError) as err:
                client.submit({"circuits": ["c17"], **bad})
            assert err.value.code == 400
            assert "must be a positive" in str(err.value)
        assert client.jobs() == []
        assert not list(manager.jobs_dir.glob("*.json"))

    def test_metrics_content_type(self, service):
        _, client = service
        import urllib.request

        with urllib.request.urlopen(
            client.base_url + "/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE

    def test_concurrent_identical_grids_no_duplicate_rows(self, service):
        # Two clients race the same grid against the shared store: the
        # atomic claims must leave exactly one committed row per task.
        manager, client = service
        ids, errors = [], []
        # The metrics registry is process-global: count the delta.
        base_done = client.metric_value(
            "repro_service_jobs_total", state="done"
        ) or 0.0

        def submit_and_wait():
            try:
                status = client.submit(SMALL_SPEC)
                ids.append(client.wait(status["id"])["state"])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_and_wait) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not errors
        assert ids == ["done", "done"]
        # The done-jobs counter agrees with the jobs the clients saw.  A
        # job turns 'done' just before the counter moves, so give the
        # job worker a moment to count it.
        deadline = time.monotonic() + 10.0
        while True:
            done = client.metric_value(
                "repro_service_jobs_total", state="done"
            ) - base_done
            if done >= len(ids) or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert done == len(ids)
        task_ids = _store_task_ids(manager.store_path)
        assert len(task_ids) == SMALL_TASKS
        assert len(set(task_ids)) == SMALL_TASKS


class TestJobFailureModes:
    def test_cancel_mid_campaign_leaves_store_resumable(
        self, tmp_path, gated_cells
    ):
        manager = JobManager(tmp_path / "state", job_workers=1).start()
        try:
            job_id = manager.submit(GATED_SPEC)["id"]
            assert gated_cells.in_flight.wait(60.0), "no second cell"
            manager.cancel(job_id)
            gated_cells.release.set()
            status = manager.wait(job_id)
            assert status["state"] == "cancelled"
            # The first cell and the one in flight when the cancel
            # landed; no cell starts after it.
            assert status["counts"]["ok"] == 2

            # Store left resumable: clean audit, no claims held.
            with open_store(manager.store_path, "sqlite") as store:
                assert store.verify()["ok"]
            assert "claimed" not in _claim_statuses(manager.store_path)

            # Resubmitting the same grid computes only the remainder
            # and converges to a fully-ok campaign.
            rerun = manager.wait(manager.submit(GATED_SPEC)["id"])
            assert rerun["state"] == "done"
            assert rerun["counts"]["ok"] == GATED_TASKS
        finally:
            manager.stop(drain=False)

    def test_cancel_queued_job_without_workers(self, tmp_path):
        manager = JobManager(tmp_path / "state")  # never started
        job_id = manager.submit(SMALL_SPEC)["id"]
        status = manager.cancel(job_id)
        assert status["state"] == "cancelled"
        assert manager.status(job_id)["counts"]["pending"] == SMALL_TASKS

    def test_status_state_is_not_newer_than_its_counts(
        self, tmp_path, monkeypatch
    ):
        """A job can finish while status() scans the store; the state
        it reports must not be newer than the records it counted, or a
        poller sees 'done' with tasks still pending."""
        manager = JobManager(tmp_path / "state")  # never started
        job_id = manager.submit(SMALL_SPEC)["id"]
        job = manager.get(job_id)

        def scan_then_finish(_path):
            job.state = "done"  # the worker finishes mid-scan
            return []

        monkeypatch.setattr(jobs_module, "scan_records", scan_then_finish)
        status = manager.status(job_id)
        assert status["state"] == "queued"
        assert status["counts"]["pending"] == SMALL_TASKS
        assert manager.status(job_id)["state"] == "done"

    def test_stop_requeues_running_job_and_restart_resumes(
        self, tmp_path, gated_cells
    ):
        manager = JobManager(tmp_path / "state", job_workers=1).start()
        job_id = manager.submit(GATED_SPEC)["id"]
        assert gated_cells.in_flight.wait(60.0), "no second cell"
        # stop() joins the worker, which waits on the gate: stop from
        # another thread, and open the gate once the stop has asked the
        # running job to wind down.
        stopper = threading.Thread(target=manager.stop,
                                   kwargs={"drain": False})
        stopper.start()
        cancel_requested = manager.get(job_id).cancel_event
        deadline = time.monotonic() + 60.0
        while not cancel_requested.is_set():
            assert time.monotonic() < deadline, "stop never reached the job"
            time.sleep(0.01)
        gated_cells.release.set()
        stopper.join(60.0)
        assert not stopper.is_alive()
        status = manager.status(job_id)
        assert status["state"] == "queued"
        assert status["counts"]["ok"] == 2
        assert "claimed" not in _claim_statuses(manager.store_path)

        manager.start()
        try:
            status = manager.wait(job_id)
            assert status["state"] == "done"
            assert status["counts"]["ok"] == GATED_TASKS
        finally:
            manager.stop(drain=False)

    def test_recover_requeues_jobs_from_disk(self, tmp_path):
        # Simulate a SIGKILLed manager: the job file says 'running'
        # but no process is working on it.
        first = JobManager(tmp_path / "state")
        job_id = first.submit(SMALL_SPEC)["id"]
        path = first.jobs_dir / f"{job_id}.json"
        payload = json.loads(path.read_text())
        payload["state"] = "running"
        path.write_text(json.dumps(payload))

        second = JobManager(tmp_path / "state", job_workers=1)
        assert second.recover() == [job_id]
        second.start()
        try:
            assert second.wait(job_id)["state"] == "done"
        finally:
            second.stop(drain=False)


# ---------------------------------------------------------------------------
# Real-process failure modes (serve subprocess, CLI SIGTERM)
# ---------------------------------------------------------------------------

def _start_server(state_dir, port):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--state-dir", str(state_dir)],
        env=_subprocess_env(),
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_healthy(client, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz().get("ok"):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError("service never became healthy")


@needs_posix
class TestProcessFailureModes:
    def test_sigkill_server_restart_converges_bit_identical(self, tmp_path):
        state_dir = tmp_path / "state"
        store_path = state_dir / "store.sqlite"

        port = _free_port()
        server = _start_server(state_dir, port)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            _wait_healthy(client)
            job_id = client.submit(SLOW_SPEC)["id"]
            deadline = time.monotonic() + 60.0
            while client.status(job_id)["counts"]["ok"] < 1:
                assert time.monotonic() < deadline, "no first record"
                time.sleep(0.05)
        finally:
            server.kill()  # SIGKILL: no cleanup, claims left dangling
            server.wait(timeout=30.0)

        port = _free_port()
        server = _start_server(state_dir, port)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            _wait_healthy(client)
            # recover() re-queued the persisted job; same id, same grid.
            status = client.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert status["counts"]["ok"] == SLOW_TASKS
        finally:
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30.0) == 0

        with open_store(store_path, "sqlite") as store:
            disturbed = store.latest()
        tasks = expand_grid(SLOW_SPEC["circuits"], SLOW_SPEC["fault_classes"])
        fresh_path = tmp_path / "undisturbed.sqlite"
        run_campaign(tasks, store=fresh_path)
        with open_store(fresh_path, "sqlite") as store:
            undisturbed = store.latest()
        assert stores_equal(
            [disturbed[t] for t in sorted(disturbed)],
            [undisturbed[t] for t in sorted(undisturbed)],
        )

    def test_cli_run_sigterm_releases_claims_and_resumes(self, tmp_path):
        store = tmp_path / "grid.sqlite"
        argv = [
            sys.executable, "-m", "repro", "run",
            "--circuits", *SLOW_SPEC["circuits"],
            "--fault-classes", *SLOW_SPEC["fault_classes"],
            "--store", str(store), "--workers", "1",
        ]
        proc = subprocess.Popen(
            argv, env=_subprocess_env(), cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while True:
                assert time.monotonic() < deadline, "no first record"
                try:
                    if _store_task_ids(store):
                        break
                except sqlite3.OperationalError:
                    pass
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)

        # Graceful path: SIGINT-style exit code, claims released,
        # partial progress committed.
        assert code == 130
        statuses = _claim_statuses(store)
        assert "claimed" not in statuses
        assert 0 < statuses.get("done", 0) < SLOW_TASKS

        # The same command again resumes to completion.
        done = subprocess.run(
            argv, env=_subprocess_env(), cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        assert done.returncode == 0
        assert _claim_statuses(store) == {"done": SLOW_TASKS}


# ---------------------------------------------------------------------------
# CLI --json verbs
# ---------------------------------------------------------------------------

def _run_cli(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_subprocess_env(), cwd=REPO,
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestCliJson:
    def test_campaign_list_json(self):
        payload = json.loads(_run_cli("campaign", "list", "--json"))
        names = [c["name"] for c in payload["circuits"]]
        assert "c17" in names and "alu8" in names
        assert "stuck_at" in payload["fault_classes"]
        assert set(payload["default_fault_classes"]) <= set(
            payload["fault_classes"]
        )

    def test_faults_census_json(self):
        payload = json.loads(
            _run_cli("faults", "census", "c17", "tmr_voter", "--json")
        )
        assert [block["circuit"] for block in payload] == [
            "c17", "tmr_voter"
        ]
        by_name = {
            u["universe"]: u for u in payload[1]["universes"]
        }
        # tmr_voter: one DP MAJ3 gate, 14 stuck-at faults, 8 collapsed
        # (the docs/FAULT_UNIVERSES.md worked example).
        assert by_name["stuck_at"]["faults"] == 14
        assert by_name["stuck_at"]["collapsed"] == 8

    def test_cache_stats_json(self):
        payload = json.loads(_run_cli("cache", "stats", "--json"))
        assert set(payload) == {"device", "compile_memo"}
        assert all(
            isinstance(v, int)
            for stats in payload.values()
            for v in stats.values()
        )
