"""Async campaign job manager: submit / status / results / cancel.

A :class:`JobManager` turns :func:`repro.campaign.runner.run_campaign`
into a long-lived service primitive:

* **Submit** — a :class:`JobSpec` (circuits × fault classes plus
  worker / timeout options) is validated against the registry and
  written as a ``queued`` row of the store's ``jobs`` table; the caller
  gets a job id immediately.
* **One source of job state** — the ``jobs`` table is the queue and
  the lifecycle record: every read of a job's state reads its row, and
  every later transition is one read-modify-write of that row under
  the manager's lock.  In memory the manager keeps only what a running job
  needs (its cancel event, keyed by job id while it runs) and each
  job's checked spec: a row's spec never changes after submit.
* **Background supervision** — a small pool of daemon worker threads
  takes the oldest ``queued`` row, one at a time; each job runs one
  campaign against the manager's **shared sqlite store**, so
  concurrent jobs over overlapping grids coordinate through the store's
  atomic task claims (zero duplicated rows) and the process-wide
  ``compile_network`` / device-model memos are shared across all of
  them.  Each worker thread opens the store once, on its first job —
  that open runs WAL journal recovery and the stale-claim re-queue —
  hands it to every campaign it runs, and closes it when the thread
  exits.
* **Status + incremental results** — :meth:`JobManager.status` reads
  the job's row, then live per-task counts from the store;
  :meth:`JobManager.results` streams a job's records in commit order
  with an ``offset`` cursor, so clients poll for *new* rows only.  Both
  read only the job's own rows (through the store's task index) on one
  shared read-only connection, so a request costs O(the job), not
  O(the store), opens nothing and builds no circuit.
* **Cooperative cancel** — :meth:`JobManager.cancel` sets the job's
  stop event; the campaign winds down between cells, releases its
  store claims and leaves the store resumable (state ``cancelled``).
* **SIGKILL survival** — job records, results and claims are all in
  the sqlite store, so a killed server loses nothing:
  :meth:`JobManager.recover` (run at startup) reads the ``jobs`` table
  and re-queues every job that had not reached a terminal state (one
  whose row no longer validates is marked ``failed`` instead);
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

import dataclasses
import json
import math
import threading
import time
import uuid
from pathlib import Path
from typing import Iterable, Iterator

from repro.campaign.backends import SqliteBackend, StoreReader
from repro.campaign.registry import get_registry
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
STATES = (QUEUED, RUNNING, *sorted(TERMINAL_STATES))

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

    def task_ids(self) -> tuple[str, ...]:
        """The grid's task ids in :meth:`expand` order, from the names
        alone: no circuit is built.  Raises :class:`JobError` on an
        unknown circuit."""
        registry = get_registry()
        try:
            for circuit in self.circuits:
                registry.spec(circuit)
        except KeyError as exc:
            raise JobError(str(exc.args[0])) from exc
        return tuple(
            f"{circuit}/{fault_class}/{ENGINE_LABEL}"
            for circuit in self.circuits
            for fault_class in self.fault_classes
        )

    def expand(self) -> list[TaskSpec]:
        """The grid (raises :class:`JobError` on unknown circuits, so
        submission fails fast instead of queueing a doomed job)."""
        try:
            return expand_grid(list(self.circuits), list(self.fault_classes))
        except KeyError as exc:
            raise JobError(str(exc.args[0]) if exc.args else str(exc)) from exc


def _check_spec(payload) -> tuple[JobSpec, tuple[str, ...]] | str:
    """A stored spec and its task ids, or why it does not validate."""
    try:
        spec = JobSpec.from_payload(payload)
        return spec, spec.task_ids()
    except JobError as exc:
        return str(exc)


@dataclasses.dataclass(frozen=True)
class Job:
    """A job as its row of the store's ``jobs`` table records it."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    task_ids: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        """The job's row; a status adds ``counts`` to it."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_payload(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }


@dataclasses.dataclass
class _Run:
    """What a running job needs besides its row."""

    #: Set to stop the job's campaign between cells.
    cancel_event: threading.Event = dataclasses.field(
        default_factory=threading.Event
    )
    #: Set during server shutdown: the cancel is a wind-down, so the
    #: job goes back to ``queued`` and resumes at the next start.
    requeue_on_cancel: bool = False


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
        #: The connection job rows are read and written on: opened (and
        #: so recovered) by the first use, used under _lock.
        self._store = SqliteBackend(self.store_path)
        #: The jobs this manager is running, by id: the only job state
        #: outside the ``jobs`` table.
        self._running: dict[str, _Run] = {}
        #: Each job's checked spec and task ids, or why its spec does
        #: not validate, by id.  A row's spec never changes after
        #: submit, so a manager checks it once (a restart checks again).
        self._specs: dict[str, tuple[JobSpec, tuple[str, ...]] | str] = {}
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
                for run in self._running.values():
                    run.requeue_on_cancel = True
                    run.cancel_event.set()
            self._wake.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = [t for t in self._threads if t.is_alive()]
        self._reader.close()
        with self._lock:
            self._store.close()

    def recover(self) -> list[str]:
        """Re-queue every stored job that was queued or running when its
        server stopped (the post-SIGKILL path).  Returns the re-queued
        ids, sorted.

        A job this manager is still running (a worker that outlived a
        :meth:`stop`) is left alone.  A job whose row no longer
        validates (say, it names a circuit this checkout lacks) is
        marked ``failed`` with the reason, since nothing can run it.
        The first read opens the store, which runs its recovery
        (journal recovery, stale-claim re-queue)."""
        requeued = []
        with self._lock:
            for job_id, text in self._store.jobs((QUEUED, RUNNING)):
                if job_id in self._running:
                    continue
                try:
                    job = self._job(job_id, text)
                except JobError as exc:
                    self._update(
                        job_id, state=FAILED, finished_at=time.time(),
                        error=f"job no longer validates: {exc}",
                    )
                    JOBS_TOTAL.labels(state=FAILED).inc()
                    continue
                if job.state == RUNNING:
                    # The previous server died mid-campaign; its store
                    # claims are stale (dead PID) and resume recomputes
                    # the rest.
                    self._update(job.id, state=QUEUED, started_at=None)
                requeued.append(job.id)
            self._wake.notify_all()
            JOBS_INFLIGHT.set(float(len(requeued) + len(self._running)))
        return sorted(requeued)

    # -- the API surface ---------------------------------------------------

    def submit(self, payload: dict) -> dict:
        """Validate, persist and queue a job; returns its status dict."""
        spec = JobSpec.from_payload(payload)
        job = Job(
            id=uuid.uuid4().hex[:12],
            spec=spec,
            submitted_at=time.time(),
            task_ids=spec.task_ids(),  # validates circuit names eagerly
        )
        with self._lock:
            if self._shutdown:
                raise JobError("server is shutting down")
            self._specs[job.id] = (spec, job.task_ids)
            self._store.put_job(job.id, job.to_payload())
            self._wake.notify()
        JOBS_TOTAL.labels(state=QUEUED).inc()
        JOBS_INFLIGHT.inc()
        return self.status(job.id)

    @property
    def n_jobs(self) -> int:
        with self._lock:
            return sum(1 for _job in self._jobs())

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._get(job_id)

    def list_jobs(self) -> list[dict]:
        """Status dicts for every known job, newest first."""
        with self._lock:
            jobs = list(self._jobs())
        return [self._status(job) for job in reversed(jobs)]

    def status(self, job_id: str) -> dict:
        """Lifecycle state plus live per-task counts from the store.

        The job's row is read before its result rows: a job's records
        are committed before it turns terminal, so a terminal state
        always comes with complete counts.
        """
        return self._status(self.get(job_id))

    def _status(self, job: Job) -> dict:
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
        return {**job.to_payload(), "counts": counts}

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
        mine = self._reader.records(job.task_ids)
        return {
            "id": job.id,
            "state": job.state,
            "records": mine[offset:],
            "next_offset": len(mine),
            "complete": job.state in TERMINAL_STATES,
        }

    def cancel(self, job_id: str) -> dict:
        """Cooperative cancel: queued jobs die immediately, running
        jobs wind down between cells (claims released, store kept
        resumable).  Cancelling a terminal job is a no-op."""
        with self._lock:
            job = self._get(job_id)
            if job.state == QUEUED:
                self._update(job_id, state=CANCELLED, finished_at=time.time())
                JOBS_TOTAL.labels(state=CANCELLED).inc()
                JOBS_INFLIGHT.dec()
            elif job_id in self._running:
                self._running[job_id].cancel_event.set()
        return self.status(job_id)

    def wait(self, job_id: str, timeout: float = 120.0) -> dict:
        """Block until the job reaches a terminal state (tests/bench).
        The job is polled at least once, even with ``timeout=0``."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r}"
                )
            time.sleep(0.02)

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        # The thread's own store: opened (and so recovered) on its first
        # job, its claims scoped to this instance, closed on exit.
        with SqliteBackend(self.store_path) as store:
            while True:
                with self._lock:
                    job = self._next_job()
                    if job is None:
                        return
                    self._update(
                        job.id, state=RUNNING, started_at=time.time()
                    )
                    run = self._running[job.id] = _Run()
                JOBS_TOTAL.labels(state=RUNNING).inc()
                self._run_job(job, run, store)

    def _next_job(self) -> Job | None:
        """The oldest queued job, waited for; ``None`` once the worker
        is to exit.  Called under ``_lock``."""
        while True:
            # Non-drain shutdown exits even with jobs queued: interrupted
            # jobs are *re*-queued during wind-down, and picking them up
            # again would rerun them uncancellable.
            if self._shutdown and not self._drain:
                return None
            job = next(self._jobs(QUEUED), None)
            if job is not None or self._shutdown:
                return job
            self._wake.wait(timeout=0.5)

    def _run_job(self, job: Job, run: _Run, store: SqliteBackend) -> None:
        try:
            result = run_campaign(
                job.spec.expand(),
                store=store.open(),
                workers=job.spec.workers,
                timeout=job.spec.timeout,
                resume=True,
                policy=self.policy,
                should_stop=run.cancel_event.is_set,
            )
        except Exception as exc:  # noqa: BLE001 — jobs must not kill workers
            result = None
            end = {
                "state": FAILED,
                "error": f"{type(exc).__name__}: {exc}",
                "finished_at": time.time(),
            }
        else:
            if result.interrupted and run.requeue_on_cancel:
                # Shutdown wind-down: back to the queue (and, via the
                # stored 'queued' state, to the next start).
                end = {"state": QUEUED, "started_at": None}
            elif result.interrupted:
                end = {"state": CANCELLED, "finished_at": time.time()}
            else:
                end = {"state": DONE, "finished_at": time.time()}
        with self._lock:
            del self._running[job.id]
            self._update(job.id, **end)
        if end["state"] == DONE:
            self._publish_coverage(job, result.records)
        if end["state"] in TERMINAL_STATES:
            JOBS_TOTAL.labels(state=end["state"]).inc()
            JOBS_INFLIGHT.dec()

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

    # -- the jobs table (every method below is called under _lock) ---------

    def _job(self, job_id: str, text: str) -> Job:
        """The job a ``jobs`` row records; raises :class:`JobError` when
        the row does not validate.  The spec is checked on this
        manager's first read of the id only (:attr:`_specs`)."""
        try:
            payload = json.loads(text)
            checked = self._specs.get(job_id)
            if checked is None:
                checked = self._specs[job_id] = _check_spec(payload["spec"])
            if isinstance(checked, str):
                raise JobError(checked)
            spec, task_ids = checked
            return Job(job_id, spec, task_ids=task_ids, **{
                key: payload[key] for key in (
                    "state", "submitted_at", "started_at", "finished_at",
                    "error",
                )
            })
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise JobError(f"unreadable job row: {exc!r}") from exc

    def _get(self, job_id: str) -> Job:
        """The job with this id; a row that does not validate is
        unknown too."""
        text = self._store.job(job_id)
        if text is not None:
            try:
                return self._job(job_id, text)
            except JobError:
                pass
        raise JobError(f"unknown job id {job_id!r}")

    def _jobs(self, *states: str) -> Iterator[Job]:
        """The valid jobs in submit order: all, or those in ``states``."""
        for job_id, text in self._store.jobs(states or STATES):
            try:
                job = self._job(job_id, text)
            except JobError:
                continue
            yield job

    def _update(self, job_id: str, **changes) -> None:
        """One transition: a read-modify-write of the job's row."""
        payload = json.loads(self._store.job(job_id))
        payload.update(changes)
        self._store.put_job(job_id, payload)
