"""The campaign service's HTTP surface (stdlib ``ThreadingHTTPServer``).

Routes (all JSON unless noted; see ``docs/SERVICE.md`` for the full
reference)::

    POST   /jobs               submit a campaign spec -> job status
    GET    /jobs               every known job, newest first
    GET    /jobs/<id>          lifecycle state + live per-task counts
    GET    /jobs/<id>/results  commit-ordered records; ?offset= cursor
    DELETE /jobs/<id>          cooperative cancel (store stays resumable)
    GET    /healthz            {"ok": true, ...} liveness probe
    GET    /metrics            Prometheus text exposition (not JSON)

No framework, no new dependencies: requests are parsed and routed here,
the work happens in :class:`repro.service.jobs.JobManager`, and every
request is timed into the ``repro_http_request_seconds`` histogram
(labelled by method + route *pattern*, so job ids do not explode the
cardinality) with outcomes in ``repro_http_requests_total``.

:class:`ServiceClient` is the matching stdlib (``urllib``) client used
by the CI smoke script (``tools/service_smoke.py``) and the tests.

``python -m repro serve`` wires :func:`serve_forever` to the CLI: it
recovers persisted jobs, serves until SIGTERM/SIGINT, then winds the
job pool down gracefully (running campaigns release their store claims
and re-queue, so the next start resumes them).
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import JobError, JobManager
from repro.obs import REGISTRY, counter, histogram
from repro.service.metrics import install_cache_collectors

#: Content type Prometheus scrapers expect from /metrics.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

HTTP_REQUESTS = counter(
    "repro_http_requests_total",
    "HTTP requests by method, route pattern and status code",
    ("method", "route", "code"),
)
HTTP_LATENCY = histogram(
    "repro_http_request_seconds",
    "HTTP request wall-clock by method and route pattern",
    ("method", "route"),
)

_JOB_ROUTE = re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)$")
_RESULTS_ROUTE = re.compile(r"^/jobs/(?P<job_id>[0-9a-f]+)/results$")

#: Request-body size cap: campaign specs are small; anything bigger is
#: a client bug, not a grid.
_MAX_BODY = 1 << 20


class ServiceHandler(BaseHTTPRequestHandler):
    """Routing + JSON plumbing; the manager does the real work."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _reply(
        self, code: int, body: bytes, content_type: str = "application/json"
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, code: int, payload: dict) -> None:
        self._reply(
            code, json.dumps(payload, sort_keys=True).encode("utf-8")
        )

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise JobError(f"request body over {_MAX_BODY} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobError("empty request body (expected a JSON object)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobError(f"invalid JSON body: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        """Route one request, timing it under its route *pattern*."""
        url = urlparse(self.path)
        route, handler, kwargs = self._resolve(method, url.path)
        start = time.perf_counter()
        try:
            if handler is None:
                code = 404 if route == "*" else 405
                self._reply_json(
                    code,
                    {"error": f"no route for {method} {url.path}"},
                )
            else:
                code = handler(query=parse_qs(url.query), **kwargs)
        except JobError as exc:
            message = str(exc)
            code = 404 if message.startswith("unknown job id") else 400
            self._reply_json(code, {"error": message})
        except BrokenPipeError:  # pragma: no cover - client went away
            code = 499
        except Exception as exc:  # noqa: BLE001 — a handler bug is a 500
            code = 500
            try:
                self._reply_json(
                    code, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:  # pragma: no cover
                pass
        HTTP_REQUESTS.labels(
            method=method, route=route, code=str(code)
        ).inc()
        HTTP_LATENCY.labels(method=method, route=route).observe(
            time.perf_counter() - start
        )

    def _resolve(self, method: str, path: str):
        """(route pattern, handler, kwargs) for one request line."""
        if path == "/jobs":
            if method == "POST":
                return "/jobs", self._post_job, {}
            if method == "GET":
                return "/jobs", self._list_jobs, {}
            return "/jobs", None, {}
        match = _RESULTS_ROUTE.match(path)
        if match:
            if method == "GET":
                return (
                    "/jobs/<id>/results",
                    self._job_results,
                    {"job_id": match["job_id"]},
                )
            return "/jobs/<id>/results", None, {}
        match = _JOB_ROUTE.match(path)
        if match:
            if method == "GET":
                return "/jobs/<id>", self._get_job, {
                    "job_id": match["job_id"]
                }
            if method == "DELETE":
                return "/jobs/<id>", self._delete_job, {
                    "job_id": match["job_id"]
                }
            return "/jobs/<id>", None, {}
        if path == "/healthz" and method == "GET":
            return "/healthz", self._healthz, {}
        if path == "/metrics" and method == "GET":
            return "/metrics", self._metrics, {}
        return "*", None, {}

    # -- handlers (each returns the status code it sent) -------------------

    def _post_job(self, query) -> int:
        del query
        status = self.manager.submit(self._read_json())
        self._reply_json(201, status)
        return 201

    def _list_jobs(self, query) -> int:
        del query
        self._reply_json(200, {"jobs": self.manager.list_jobs()})
        return 200

    def _get_job(self, query, job_id: str) -> int:
        del query
        self._reply_json(200, self.manager.status(job_id))
        return 200

    def _job_results(self, query, job_id: str) -> int:
        try:
            offset = int(query.get("offset", ["0"])[0])
        except ValueError as exc:
            raise JobError("'offset' must be an integer") from exc
        self._reply_json(200, self.manager.results(job_id, offset=offset))
        return 200

    def _delete_job(self, query, job_id: str) -> int:
        del query
        self._reply_json(200, self.manager.cancel(job_id))
        return 200

    def _healthz(self, query) -> int:
        del query
        self._reply_json(
            200,
            {
                "ok": True,
                "store": str(self.manager.store_path),
                "jobs": self.manager.n_jobs,
            },
        )
        return 200

    def _metrics(self, query) -> int:
        del query
        self._reply(
            200, REGISTRY.render().encode("utf-8"), METRICS_CONTENT_TYPE
        )
        return 200

    # stdlib dispatch entry points
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def create_server(
    manager: JobManager, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A bound (not yet serving) server wired to ``manager``.

    ``port=0`` binds an ephemeral port (tests, the load harness); read
    the real one from ``server.server_address[1]``.
    """
    install_cache_collectors()
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.daemon_threads = True
    server.manager = manager  # type: ignore[attr-defined]
    return server


def serve_forever(
    state_dir: str,
    host: str = "127.0.0.1",
    port: int = 8089,
    *,
    job_workers: int = 2,
    ready: threading.Event | None = None,
    install_signals: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT, then wind down gracefully.

    Startup recovers the store and its jobs (see
    :meth:`JobManager.recover`); shutdown stops accepting requests,
    cancels running campaigns cooperatively *as re-queues* — store
    claims released, store flushed, jobs back to ``queued`` in the
    store — so a restart resumes them.  ``ready`` (tests) is set once
    the socket is listening.
    """
    manager = JobManager(state_dir, job_workers=job_workers).start()
    server = create_server(manager, host, port)
    stop = threading.Event()

    if install_signals and threading.current_thread() is threading.main_thread():
        def handler(_signum, _frame):
            stop.set()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, handler)

    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1},
        daemon=True,
    )
    thread.start()
    host_, port_ = server.server_address[:2]
    print(f"repro service on http://{host_}:{port_} "
          f"(state: {manager.state_dir})", flush=True)
    if ready is not None:
        ready.set()
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()
        manager.stop(drain=False)
        print("repro service: drained, store released", flush=True)
    return 0


class ServiceClient:
    """Minimal stdlib client for the job API (tests, bench, CI smoke).

    Every call returns the decoded JSON payload (or raises
    :class:`ServiceHTTPError` with the server's error message); the
    per-call wall-clock of the *last* request is in
    ``last_latency_s`` — the load harness's measurement hook.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.last_latency_s = 0.0

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ):
        data = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            body = exc.read()
            self.last_latency_s = time.perf_counter() - start
            try:
                message = json.loads(body.decode("utf-8")).get("error", "")
            except (json.JSONDecodeError, UnicodeDecodeError):
                message = body.decode("utf-8", "replace")
            raise ServiceHTTPError(exc.code, message) from exc
        self.last_latency_s = time.perf_counter() - start
        return body

    def _json(self, method: str, path: str, payload: dict | None = None):
        return json.loads(self._request(method, path, payload))

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        return self._request("GET", "/metrics").decode("utf-8")

    def metric_value(
        self, name: str, **labels: str
    ) -> float | None:
        """One sample's value from a /metrics scrape (None if absent)."""
        want = {f'{k}="{v}"' for k, v in labels.items()}
        for line in self.metrics().splitlines():
            if not line.startswith(name):
                continue
            head, _, value = line.rpartition(" ")
            body = head[len(name):]
            if body and not body.startswith("{"):
                continue
            have = set(body.strip("{}").split(", ")) if body else set()
            if want <= have:
                return float(value)
        return None

    def submit(self, spec: dict) -> dict:
        return self._json("POST", "/jobs", spec)

    def jobs(self) -> list[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def results(self, job_id: str, offset: int = 0) -> dict:
        return self._json("GET", f"/jobs/{job_id}/results?offset={offset}")

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0) -> dict:
        """Poll until the job is terminal (done/failed/cancelled)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(0.05)


class ServiceHTTPError(RuntimeError):
    """Non-2xx API response, carrying the server's error message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"HTTP {code}: {message}")
        self.code = code
        self.message = message
