"""Async campaign job manager: submit / status / results / cancel.

A :class:`JobManager` turns :func:`repro.campaign.runner.run_campaign`
into a long-lived service primitive:

* **Submit** — a :class:`JobSpec` (circuits × fault classes plus
  worker / timeout options) is validated against the registry,
  expanded to its task grid, written as a row of the store's ``jobs``
  table, and queued; the caller gets a job id immediately.
* **Background supervision** — a small pool of daemon worker threads
  drains the queue; each job runs one campaign against the manager's
  **shared sqlite store**, so concurrent jobs over overlapping grids
  coordinate through the store's atomic task claims (zero duplicated
  rows) and the process-wide ``compile_network`` / device-model memos
  are shared across all of them.  Each worker thread opens the store
  once, on its first job — that open runs the store's recovery (WAL
  journal recovery, quarantine, stale-claim re-queue) — hands it to
  every campaign it runs, and closes it when the thread exits.
* **Status + incremental results** — :meth:`JobManager.status` merges
  the in-memory lifecycle state with live per-task counts read from
  the store; :meth:`JobManager.results` streams a job's records in
  commit order with an ``offset`` cursor, so clients poll for *new*
  rows only.  Both read only the job's own rows (through the store's
  task index) on one shared read-only connection, so a request costs
  O(the job), not O(the store), and opens nothing.
* **Cooperative cancel** — :meth:`JobManager.cancel` sets the job's
  stop event; the campaign winds down between cells, releases its
  store claims and leaves the store resumable (state ``cancelled``).
* **SIGKILL survival** — job records, results and claims are all in
  the sqlite store, so a killed server loses nothing:
  :meth:`JobManager.recover` (run at startup) reads the ``jobs`` table
  and re-queues every job that had not reached a terminal state;
  ``resume=True`` plus the store's dead-PID claim reclamation make the
  rerun recompute exactly the unfinished cells, converging
  bit-identical (after ``strip_volatile``) to an undisturbed run.

Job lifecycle (the state machine ``docs/SERVICE.md`` documents)::

    queued ── run ──> running ──> done      (terminal)
      │                 │  └────> failed    (terminal: campaign raised)
      │                 └───────> cancelled (terminal, store resumable)
      └── cancel ─────> cancelled

    (server killed)  ──restart──> queued    (recover() re-queues
                                             queued/running jobs)
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Iterable

from repro.campaign.backends import SqliteBackend, StoreReader
from repro.campaign.runner import (
    RetryPolicy,
    TaskSpec,
    expand_grid,
    run_campaign,
)
from repro.campaign.store import ENGINE_LABEL
from repro.campaign.tasks import DEFAULT_FAULT_CLASSES, TASK_RUNNERS
from repro.obs import counter, gauge
from repro.service.metrics import install_cache_collectors

#: Lifecycle states (terminal: done / failed / cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

JOBS_TOTAL = counter(
    "repro_service_jobs_total",
    "Job lifecycle transitions by new state",
    ("state",),
)
JOBS_INFLIGHT = gauge(
    "repro_service_jobs_inflight",
    "Jobs currently queued or running",
)
CAMPAIGN_COVERAGE = gauge(
    "repro_campaign_coverage",
    "Mean fault coverage over a finished job's cells, by fault class",
    ("job", "fault_class"),
)


class JobError(ValueError):
    """Invalid job payload or unknown job id (HTTP 400/404 material)."""


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One submitted campaign: the grid plus its execution knobs."""

    circuits: tuple[str, ...]
    fault_classes: tuple[str, ...] = DEFAULT_FAULT_CLASSES
    workers: int = 1
    timeout: float | None = None

    #: Payload keys accepted by :meth:`from_payload`.  ``engine`` is a
    #: constant (:data:`~repro.campaign.store.ENGINE_LABEL`): accepted
    #: and echoed so existing clients keep working.
    FIELDS = ("circuits", "fault_classes", "engine", "workers", "timeout")

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Validate an API payload into a spec (raises :class:`JobError`
        with a client-readable message on any problem)."""
        if not isinstance(payload, dict):
            raise JobError("job payload must be a JSON object")
        unknown = sorted(set(payload) - set(cls.FIELDS))
        if unknown:
            raise JobError(
                f"unknown field(s) {unknown}; accepted: {list(cls.FIELDS)}"
            )
        circuits = payload.get("circuits")
        if not circuits or not isinstance(circuits, (list, tuple)) or not all(
            isinstance(c, str) for c in circuits
        ):
            raise JobError("'circuits' must be a non-empty list of names")
        fault_classes = payload.get("fault_classes", list(DEFAULT_FAULT_CLASSES))
        if not fault_classes or not isinstance(
            fault_classes, (list, tuple)
        ) or not all(isinstance(f, str) for f in fault_classes):
            raise JobError(
                "'fault_classes' must be a non-empty list of names"
            )
        bad = sorted(set(fault_classes) - set(TASK_RUNNERS))
        if bad:
            raise JobError(
                f"unknown fault class(es) {bad}; "
                f"available: {sorted(TASK_RUNNERS)}"
            )
        engine = payload.get("engine", ENGINE_LABEL)
        if engine != ENGINE_LABEL:
            raise JobError(
                f"unknown engine {engine!r}; 'engine' may only be "
                f"{ENGINE_LABEL!r} (or left out)"
            )
        # ``bool`` is an ``int`` subclass, and ``json.loads`` accepts
        # NaN and Infinity: neither is a worker count or a timeout.
        workers = payload.get("workers", 1)
        if (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise JobError("'workers' must be a positive integer")
        timeout = payload.get("timeout")
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not math.isfinite(timeout)
            or timeout <= 0
        ):
            raise JobError(
                "'timeout' must be a positive finite number or null"
            )
        return cls(
            circuits=tuple(circuits),
            fault_classes=tuple(fault_classes),
            workers=workers,
            timeout=None if timeout is None else float(timeout),
        )

    def to_payload(self) -> dict:
        return {
            "circuits": list(self.circuits),
            "fault_classes": list(self.fault_classes),
            "engine": ENGINE_LABEL,
            "workers": self.workers,
            "timeout": self.timeout,
        }

    def expand(self) -> list[TaskSpec]:
        """The grid (raises :class:`JobError` on unknown circuits, so
        submission fails fast instead of queueing a doomed job)."""
        try:
            return expand_grid(list(self.circuits), list(self.fault_classes))
        except KeyError as exc:
            raise JobError(str(exc.args[0]) if exc.args else str(exc)) from exc


@dataclasses.dataclass
class Job:
    """In-memory job record (persisted as a row of the store's
    ``jobs`` table)."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    task_ids: tuple[str, ...] = ()
    cancel_event: threading.Event = dataclasses.field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: Set during server shutdown: the cancel is a wind-down, so the
    #: job goes back to ``queued`` in the store and resumes next start.
    requeue_on_cancel: bool = dataclasses.field(
        default=False, repr=False, compare=False
    )

    def to_payload(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec.to_payload(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }


class JobManager:
    """The async job registry and its background execution pool.

    One manager per state directory::

        manager = JobManager(state_dir).start()   # recovers + spawns pool
        job_id = manager.submit({"circuits": ["c17"]})["id"]
        manager.wait(job_id)
        manager.status(job_id)["counts"]["ok"]

    All public methods are thread-safe (the HTTP layer calls them from
    ``ThreadingHTTPServer`` request threads).
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        job_workers: int = 2,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.store_path = self.state_dir / "store.sqlite"
        self.job_workers = max(1, job_workers)
        self.policy = policy or RetryPolicy()
        #: The request threads' read-only view of the store.
        self._reader = StoreReader(self.store_path)
        #: The connection job records are written on: opened (and so
        #: recovered) by the first read or write, used under _store_lock.
        self._store = SqliteBackend(self.store_path)
        self._store_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._shutdown = False
        self._drain = False
        install_cache_collectors()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobManager":
        """Recover stored jobs and spawn the worker-thread pool."""
        self.recover()
        with self._lock:
            self._shutdown = False
            self._drain = False
            while len(self._threads) < self.job_workers:
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-job-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def stop(self, *, drain: bool = False, timeout: float = 30.0) -> None:
        """Wind the pool down.

        ``drain=True`` lets running jobs finish; the default cancels
        them cooperatively *as a requeue* — they go back to ``queued``
        in the store (claims released, store flushed) so the next
        :meth:`start` resumes them where they stopped.
        """
        with self._lock:
            self._shutdown = True
            self._drain = drain
            if not drain:
                for job in self._jobs.values():
                    if job.state == RUNNING:
                        job.requeue_on_cancel = True
                        job.cancel_event.set()
            self._wake.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = [t for t in self._threads if t.is_alive()]
        self._reader.close()
        with self._store_lock:
            self._store.close()

    def recover(self) -> list[str]:
        """Re-queue every stored job that never reached a terminal
        state (the post-SIGKILL path).  Returns the re-queued ids.

        The read opens the store first, which runs its recovery
        (journal recovery, quarantine, stale-claim re-queue).  A job
        whose spec no longer validates (say, it names a circuit this
        checkout lacks) is skipped."""
        with self._store_lock:
            rows = self._store.jobs()
        requeued = []
        for job_id, text in rows:
            try:
                payload = json.loads(text)
                spec = JobSpec.from_payload(payload["spec"])
                task_ids = tuple(t.task_id for t in spec.expand())
            except (json.JSONDecodeError, KeyError, TypeError, JobError):
                continue
            with self._lock:
                if job_id in self._jobs:
                    continue
                job = Job(
                    id=job_id,
                    spec=spec,
                    state=payload.get("state", QUEUED),
                    submitted_at=payload.get("submitted_at", 0.0),
                    started_at=payload.get("started_at"),
                    finished_at=payload.get("finished_at"),
                    error=payload.get("error"),
                    task_ids=task_ids,
                )
                self._jobs[job_id] = job
                if job.state in (QUEUED, RUNNING):
                    # A 'running' job here means the previous server
                    # died mid-campaign; its store claims are stale
                    # (dead PID) and resume recomputes the rest.
                    job.state = QUEUED
                    job.started_at = None
                    self._queue.append(job_id)
                    self._wake.notify()
                    requeued.append(job_id)
        for job_id in requeued:
            self._persist(self.get(job_id))
        return requeued

    # -- the API surface ---------------------------------------------------

    def submit(self, payload: dict) -> dict:
        """Validate, persist and queue a job; returns its status dict."""
        spec = JobSpec.from_payload(payload)
        tasks = spec.expand()  # validates circuit names eagerly
        job = Job(
            id=uuid.uuid4().hex[:12],
            spec=spec,
            submitted_at=time.time(),
            task_ids=tuple(t.task_id for t in tasks),
        )
        with self._lock:
            if self._shutdown:
                raise JobError("server is shutting down")
            self._jobs[job.id] = job
            self._queue.append(job.id)
            self._wake.notify()
        JOBS_TOTAL.labels(state=QUEUED).inc()
        self._refresh_inflight()
        self._persist(job)
        return self.status(job.id)

    @property
    def n_jobs(self) -> int:
        with self._lock:
            return len(self._jobs)

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job id {job_id!r}")
        return job

    def list_jobs(self) -> list[dict]:
        """Status dicts for every known job, newest first."""
        with self._lock:
            ids = [
                job.id
                for job in sorted(
                    self._jobs.values(),
                    key=lambda j: j.submitted_at,
                    reverse=True,
                )
            ]
        return [self.status(job_id) for job_id in ids]

    def status(self, job_id: str) -> dict:
        """Lifecycle state plus live per-task counts from the store.

        The lifecycle fields are read before the store is: a job's
        records are committed before it turns terminal, so a terminal
        state always comes with complete counts.
        """
        job = self.get(job_id)
        with self._lock:
            state = job.state
            started_at = job.started_at
            finished_at = job.finished_at
            error = job.error
        latest = {
            record["task_id"]: record
            for record in self._reader.records(job.task_ids)
        }
        n_ok = sum(1 for r in latest.values() if r.get("status") == "ok")
        n_failed = len(latest) - n_ok
        counts = {
            "tasks": len(job.task_ids),
            "ok": n_ok,
            "failed": n_failed,
            "pending": len(job.task_ids) - len(latest),
        }
        return {
            "id": job.id,
            "state": state,
            "spec": job.spec.to_payload(),
            "submitted_at": job.submitted_at,
            "started_at": started_at,
            "finished_at": finished_at,
            "error": error,
            "counts": counts,
        }

    def results(self, job_id: str, offset: int = 0) -> dict:
        """The job's store records in commit order, from ``offset``.

        Returns ``{"records": [...], "next_offset": int, "complete":
        bool}``; clients poll with the returned cursor to stream rows
        incrementally while the campaign runs.  Records include every
        attempt (reruns supersede — the *latest* row per task wins),
        exactly as the store holds them.

        As in :meth:`status`, the state is read before the rows, so a
        page that says ``complete`` holds every row of the job.
        """
        job = self.get(job_id)
        offset = max(0, int(offset))
        with self._lock:
            state = job.state
        mine = self._reader.records(job.task_ids)
        return {
            "id": job.id,
            "state": state,
            "records": mine[offset:],
            "next_offset": len(mine),
            "complete": state in TERMINAL_STATES,
        }

    def cancel(self, job_id: str) -> dict:
        """Cooperative cancel: queued jobs die immediately, running
        jobs wind down between cells (claims released, store kept
        resumable).  Cancelling a terminal job is a no-op."""
        job = self.get(job_id)
        with self._lock:
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = time.time()
                with contextlib.suppress(ValueError):
                    self._queue.remove(job_id)
                JOBS_TOTAL.labels(state=CANCELLED).inc()
            elif job.state == RUNNING:
                job.cancel_event.set()
        self._refresh_inflight()
        self._persist(job)
        return self.status(job_id)

    def wait(self, job_id: str, timeout: float = 120.0) -> dict:
        """Block until the job reaches a terminal state (tests/bench)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            time.sleep(0.02)
        raise TimeoutError(f"job {job_id} still {status['state']!r}")

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        # The thread's own store: opened (and so recovered) on its first
        # job, its claims scoped to this instance, closed on exit.
        with SqliteBackend(self.store_path) as store:
            while True:
                with self._lock:
                    while not self._queue and not self._shutdown:
                        self._wake.wait(timeout=0.5)
                    # Non-drain shutdown exits even with a non-empty
                    # queue: interrupted jobs are *re*-queued during
                    # wind-down, and picking them up again would rerun
                    # them uncancellable.
                    if self._shutdown and not (self._drain and self._queue):
                        return
                    if not self._queue:
                        continue
                    job = self._jobs[self._queue.popleft()]
                    if job.state != QUEUED:  # cancelled while queued
                        continue
                    job.state = RUNNING
                    job.started_at = time.time()
                JOBS_TOTAL.labels(state=RUNNING).inc()
                self._refresh_inflight()
                self._persist(job)
                self._run_job(job, store)

    def _run_job(self, job: Job, store: SqliteBackend) -> None:
        try:
            result = run_campaign(
                job.spec.expand(),
                store=store.open(),
                workers=job.spec.workers,
                timeout=job.spec.timeout,
                resume=True,
                policy=self.policy,
                should_stop=job.cancel_event.is_set,
            )
        except Exception as exc:  # noqa: BLE001 — jobs must not kill workers
            with self._lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
        else:
            with self._lock:
                if result.interrupted and job.requeue_on_cancel:
                    # Shutdown wind-down: back to the queue (and, via
                    # the persisted 'queued' state, to the next start).
                    job.state = QUEUED
                    job.started_at = None
                    job.cancel_event = threading.Event()
                    job.requeue_on_cancel = False
                    self._queue.append(job.id)
                elif result.interrupted:
                    job.state = CANCELLED
                    job.finished_at = time.time()
                else:
                    job.state = DONE
                    job.finished_at = time.time()
            if job.state == DONE:
                self._publish_coverage(job, result.records)
        if job.state in TERMINAL_STATES:
            JOBS_TOTAL.labels(state=job.state).inc()
        self._refresh_inflight()
        self._persist(job)

    def _publish_coverage(self, job: Job, records: Iterable[dict]) -> None:
        """Per-fault-class mean coverage gauge for a finished job."""
        sums: dict[str, list[float]] = {}
        for record in records:
            coverage = (record.get("metrics") or {}).get("coverage")
            if coverage is None:
                continue
            sums.setdefault(record.get("fault_class", ""), []).append(
                float(coverage)
            )
        for fault_class, values in sums.items():
            CAMPAIGN_COVERAGE.labels(
                job=job.id, fault_class=fault_class
            ).set(sum(values) / len(values))

    # -- persistence -------------------------------------------------------

    def _persist(self, job: Job) -> None:
        """Write the job's row.  The submit thread and a worker thread
        can persist the same job concurrently: the state is read under
        the same lock as the write, so the last row written holds the
        newest state."""
        with self._store_lock:
            with self._lock:
                payload = job.to_payload()
            self._store.put_job(job.id, payload)

    def _refresh_inflight(self) -> None:
        with self._lock:
            inflight = sum(
                1
                for job in self._jobs.values()
                if job.state in (QUEUED, RUNNING)
            )
        JOBS_INFLIGHT.set(float(inflight))
