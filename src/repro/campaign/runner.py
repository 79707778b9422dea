"""Campaign runner: a (circuit x fault-class) grid over workers.

The runner turns the per-circuit engines of :mod:`repro.atpg` into
orchestrated campaigns:

* **Grid expansion** — :func:`expand_grid` crosses registry circuit
  names with fault classes into :class:`TaskSpec` cells; every cell is
  independent and deterministic.
* **Fan-out** — :func:`run_campaign` runs cells on the supervised
  worker layer of :mod:`repro.campaign.supervisor` (``workers=1`` runs
  inline, which is also the debugging path).  Workers reconstruct each
  circuit themselves; the process-wide
  :func:`repro.logic.compiled.compile_network` memo then makes every
  later task on a structurally identical circuit reuse the compiled
  network and its search structures, so a worker that sees the same
  circuit for four fault classes compiles it once.
* **Fault tolerance** — each cell runs under a two-level timeout (a
  ``SIGALRM`` soft bound inside the worker plus the supervisor's hard
  watchdog that kills workers wedged in native code or on platforms
  without ``SIGALRM``), a transient-vs-permanent error classification
  with exponential-backoff **retries** of transient errors (a permanent
  error fails the cell at once), and **poison-task quarantine** for
  cells that repeatedly kill their worker.  Failure modes become
  record statuses (``error`` / ``timeout`` / ``poisoned``) — never a
  crashed campaign.
* **Checkpointing** — each finished record is committed to the sqlite
  store (:mod:`repro.campaign.backends`) immediately; with
  ``resume=True`` (default) a rerun skips every task whose latest
  stored record succeeded, so an interrupted campaign continues
  instead of restarting.

Because tasks are deterministic and records carry no worker identity,
the *final store content* is identical (up to the volatile
``runtime_s`` / ``attempt`` / ``failures`` fields and row order) for
1-worker and N-worker runs, for interrupted-then-resumed runs, and for
runs disturbed by injected worker kills/hangs/transient errors —
``tests/test_campaign.py`` and ``tests/test_campaign_chaos.py``
enforce all three.

Example::

    >>> from repro.campaign.runner import expand_grid, run_campaign
    >>> grid = expand_grid(["c17"], ["stuck_at"])
    >>> result = run_campaign(grid)           # in-memory, no store
    >>> result.records[0]["status"]
    'ok'
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.campaign.backends import SqliteBackend, open_store
from repro.campaign.registry import Registry, get_registry
from repro.circuits.generators import BENCHMARK_BUILDERS
from repro.campaign.store import ENGINE_LABEL, SCHEMA_VERSION
from repro.campaign.tasks import DEFAULT_FAULT_CLASSES, run_fault_class
from repro.logic.bench_format import parse_bench
from repro.logic.network import Network
from repro.obs import counter, histogram

#: Whether the in-worker soft timeout is available.  Module-level so
#: tests can simulate SIGALRM-less platforms (the supervisor's watchdog
#: is then the only timeout enforcement).
_HAS_SIGALRM = hasattr(signal, "SIGALRM")

#: Live campaign instrumentation (see docs/SERVICE.md for the
#: catalogue).  Declared here — not in the service layer — so every
#: campaign entry point (CLI, job API, direct ``run_campaign`` calls)
#: feeds the same process-wide registry.  Counters are incremented on
#: the *parent* side of the supervised path (the ``finish`` emit), so
#: worker subprocesses never need to ship metrics across processes.
TASKS_TOTAL = counter(
    "repro_campaign_tasks_total",
    "Finished campaign cells by final record status",
    ("status",),
)
TASKS_RESUMED = counter(
    "repro_campaign_tasks_resumed_total",
    "Cells skipped because the store already holds an ok record",
)
TASK_FAILURES = counter(
    "repro_campaign_task_failures_total",
    "Non-final cell failures by kind (transient/crash/hang)",
    ("kind",),
)
TASK_RUNTIME = histogram(
    "repro_campaign_task_runtime_seconds",
    "Cell wall-clock by fault class",
    ("fault_class",),
)


class TransientTaskError(RuntimeError):
    """Base class for errors worth retrying (resource pressure, flaky
    I/O, injected chaos) as opposed to deterministic task bugs."""


#: Exception types classified as transient: the same cell may well
#: succeed on a retried attempt.  Everything else is permanent — a
#: deterministic cell would fail identically again.
TRANSIENT_EXCEPTION_TYPES: tuple[type[BaseException], ...] = (
    MemoryError,
    OSError,          # includes ConnectionError/TimeoutError/BrokenPipeError
    TransientTaskError,
)


def classify_transient(exc: BaseException) -> bool:
    """Transient (retry with backoff) vs permanent (fail fast)."""
    return isinstance(exc, TRANSIENT_EXCEPTION_TYPES)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/watchdog knobs for one campaign.

    ``max_attempts`` bounds transient-error retries; ``max_crash_attempts``
    bounds how often a cell may kill (or hang) its worker before it is
    quarantined as ``poisoned`` (crashes) or finalised as ``timeout``
    (watchdog kills).  Backoff is deterministic exponential:
    ``base * factor**(attempt-1)`` capped at ``backoff_max``.
    ``watchdog_grace`` is how long past the soft ``timeout`` the
    supervisor waits before killing a worker from outside.
    """

    max_attempts: int = 3
    max_crash_attempts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    watchdog_grace: float = 5.0

    def backoff(self, attempt: int) -> float:
        """Delay before retrying after the ``attempt``-th failure."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )

    def retry_transient(
        self, record: dict, attempt: int, failures: list[dict]
    ) -> bool:
        """The one transient-retry rule, shared by the inline loop and
        the supervisor.

        A transient error on an attempt below ``max_attempts`` logs a
        ``transient`` entry to ``failures`` and returns ``True`` (retry
        after :meth:`backoff`).  Any other record is final: it takes the
        failures logged so far, if any, and ``False`` comes back.
        """
        if (
            record["status"] == "error"
            and record.get("transient")
            and attempt < self.max_attempts
        ):
            failures.append(
                {
                    "attempt": attempt,
                    "kind": "transient",
                    "error": record.get("error", ""),
                }
            )
            return True
        if failures:
            record["failures"] = failures
        return False


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One grid cell.  ``bench_text`` makes externally-registered
    netlists self-contained, so a worker process can rebuild the
    circuit without sharing the parent's registry."""

    circuit: str
    fault_class: str
    bench_text: str | None = None

    @property
    def task_id(self) -> str:
        return f"{self.circuit}/{self.fault_class}/{ENGINE_LABEL}"

    def build_network(self) -> Network:
        if self.bench_text is not None:
            return parse_bench(self.bench_text, name=self.circuit)
        return get_registry().load(self.circuit)


@dataclasses.dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign`.

    ``records`` is the latest record per task in grid order (including
    records recovered from the store for skipped tasks)."""

    records: list[dict]
    n_run: int
    n_skipped: int
    store_path: Path | None
    #: Tasks another runner process claimed first (multi-runner
    #: campaigns): not computed here, recovered from the store scan
    #: where already committed.
    n_external: int = 0
    #: Whether the campaign stopped early because its ``should_stop``
    #: hook fired (cooperative cancel / graceful shutdown).  Unfinished
    #: cells are simply absent from ``records`` — the store stays
    #: resumable.
    interrupted: bool = False

    @property
    def n_failed(self) -> int:
        """Tasks whose final record is not ``ok`` (``error`` /
        ``timeout`` / ``poisoned``) — the CLI exit-code source."""
        return sum(1 for r in self.records if r.get("status") != "ok")


def expand_grid(
    circuits: Sequence[str],
    fault_classes: Sequence[str] = DEFAULT_FAULT_CLASSES,
    registry: Registry | None = None,
) -> list[TaskSpec]:
    """Cross circuits with fault classes into grid cells (circuit-major
    order, which is also the report's row order).

    Cells are self-contained: circuits that a worker process could not
    rebuild from the default registry — entries of a custom
    ``registry``, or runtime registrations a spawn-started worker would
    not inherit — are serialised to bench text here (which normalises
    gate names to the ``g_<net>`` convention of the format).
    """
    from repro.logic.bench_format import write_bench

    registry = registry or get_registry()
    tasks = []
    for circuit in circuits:
        spec = registry.spec(circuit)  # fail fast on unknown names
        bench_text = spec.bench_text
        if bench_text is None and (
            registry is not get_registry() or circuit not in BENCHMARK_BUILDERS
        ):
            bench_text = write_bench(spec.build())
        for fault_class in fault_classes:
            tasks.append(
                TaskSpec(
                    circuit=circuit,
                    fault_class=fault_class,
                    bench_text=bench_text,
                )
            )
    return tasks


class _TaskTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _TaskTimeout()


def execute_task(
    spec: TaskSpec,
    timeout: float | None = None,
    *,
    attempt: int = 1,
    chaos=None,
) -> dict:
    """Run one grid cell to a finished record (never raises for task
    failures — errors and timeouts become record statuses).

    One *attempt*: an error ends it as an ``error`` record whose
    ``transient`` flag tells the caller whether to retry the cell with
    backoff.  The soft ``SIGALRM`` timeout spans the whole attempt.
    ``chaos`` is the fault-injection hook of
    :class:`repro.campaign.chaos.ChaosPolicy` (tests only).
    """
    record = {
        "schema": SCHEMA_VERSION,
        "task_id": spec.task_id,
        "circuit": spec.circuit,
        "fault_class": spec.fault_class,
        "engine": ENGINE_LABEL,
        "attempt": attempt,
    }
    # SIGALRM handlers can only be installed from the main thread; the
    # job service runs inline campaigns on worker *threads*, where the
    # soft timeout silently degrades to the caller's cancel/watchdog.
    use_alarm = (
        timeout is not None
        and _HAS_SIGALRM
        and threading.current_thread() is threading.main_thread()
    )
    previous = None
    start = time.perf_counter()
    try:
        if use_alarm:
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        if chaos is not None:
            chaos.before_attempt(spec.task_id, attempt)
        network = spec.build_network()
        record["circuit_stats"] = network.stats()
        record["metrics"] = run_fault_class(network, spec.fault_class)
        record["status"] = "ok"
    except _TaskTimeout:
        record["status"] = "timeout"
        record["error"] = f"task exceeded {timeout:g}s"
    except Exception as exc:  # noqa: BLE001 — campaign must outlive cells
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["transient"] = classify_transient(exc)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    record["runtime_s"] = round(time.perf_counter() - start, 6)
    return record


def run_task_with_retries(
    spec: TaskSpec,
    timeout: float | None = None,
    policy: RetryPolicy | None = None,
    chaos=None,
) -> dict:
    """Inline attempt loop: :func:`execute_task` plus transient-error
    retries with exponential backoff (the ``workers=1`` twin of the
    supervisor's parent-side retry logic; worker-death recovery needs
    the supervised path)."""
    policy = policy or RetryPolicy()
    failures: list[dict] = []
    attempt = 1
    while True:
        record = execute_task(spec, timeout, attempt=attempt, chaos=chaos)
        if not policy.retry_transient(record, attempt, failures):
            return record
        time.sleep(policy.backoff(attempt))
        attempt += 1


def run_campaign(
    tasks: Sequence[TaskSpec],
    store: SqliteBackend | str | Path | None = None,
    workers: int = 1,
    timeout: float | None = None,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
    policy: RetryPolicy | None = None,
    chaos=None,
    should_stop: Callable[[], bool] | None = None,
) -> CampaignResult:
    """Run a task grid with checkpointing, resume and fault tolerance.

    Args:
        tasks: Grid cells from :func:`expand_grid` (or hand-built).
        store: Checkpoint target; ``None`` runs purely in memory.  A
            path gets a store the campaign opens and closes itself; an
            open :class:`~repro.campaign.backends.sqlite.SqliteBackend`
            stays caller-owned (so its ``fsync`` configuration and
            connection lifetime are the caller's).
        workers: Pool size; ``1`` executes inline in this process,
            ``>1`` fans out over the supervised worker layer
            (:mod:`repro.campaign.supervisor`) with watchdog kills,
            crash respawn and poison quarantine.
        timeout: Per-task soft wall-clock bound in seconds; the
            supervised path adds a hard watchdog at
            ``timeout + policy.watchdog_grace``.
        resume: Skip tasks whose latest stored record is ``ok``.
        progress: Optional sink for one-line progress messages.
        policy: Retry/backoff/watchdog knobs (:class:`RetryPolicy`).
        chaos: Fault-injection hook for the chaos test harness
            (:class:`repro.campaign.chaos.ChaosPolicy`; its ``storage``
            script reaches a campaign-owned store).
        should_stop: Cooperative-cancel hook, polled between cells (and
            every supervisor tick).  Once it returns True no new cell
            is started, in-flight supervised workers are killed, claims
            are released and the result comes back with
            ``interrupted=True`` — the store is left resumable.

    With a store, the pending tasks are registered and then
    *claimed* one by one, so N independent runner processes
    pointed at one store split the grid between them: a cell another
    runner claimed first is skipped here (counted in ``n_external``)
    and its record recovered from the final store scan.
    """
    owns_store = isinstance(store, (str, Path))
    if owns_store:
        store = open_store(store, chaos=getattr(chaos, "storage", None))
    policy = policy or RetryPolicy()
    say = progress or (lambda _line: None)

    done: dict[str, dict] = {}
    if store is not None and resume:
        done = {
            task_id: record
            for task_id, record in store.latest().items()
            if record.get("status") == "ok"
        }
    pending = [t for t in tasks if t.task_id not in done]
    n_skipped = len(tasks) - len(pending)
    if n_skipped:
        TASKS_RESUMED.inc(n_skipped)
        say(f"resume: {n_skipped} task(s) already in "
            f"{store.path if store else 'store'}, {len(pending)} to run")

    if store is not None and pending:
        store.register(
            [spec.task_id for spec in pending], force=not resume
        )

    fresh: dict[str, dict] = {}
    external: list[TaskSpec] = []
    scanned: dict[str, dict] = {}

    def finish(record: dict) -> None:
        fresh[record["task_id"]] = record
        if store is not None:
            store.append(record)
        status = record["status"]
        TASKS_TOTAL.labels(status=status).inc()
        TASK_RUNTIME.labels(
            fault_class=record.get("fault_class", ""),
        ).observe(record.get("runtime_s", 0.0))
        for failure in record.get("failures", ()):
            TASK_FAILURES.labels(kind=failure.get("kind", "unknown")).inc()
        extra = "" if status == "ok" else f" ({record.get('error', '')})"
        say(f"[{len(fresh)}/{len(pending)}] {record['task_id']}: "
            f"{status} in {record['runtime_s']:.2f}s{extra}")

    def lost_claim(spec: TaskSpec) -> None:
        external.append(spec)
        say(f"{spec.task_id}: claimed by another runner, skipping")

    interrupted = False
    try:
        if pending:
            if workers <= 1:
                for spec in pending:
                    if should_stop is not None and should_stop():
                        interrupted = True
                        break
                    if store is not None and not store.claim(spec.task_id):
                        lost_claim(spec)
                        continue
                    finish(
                        run_task_with_retries(spec, timeout, policy, chaos)
                    )
            else:
                from repro.campaign.supervisor import run_supervised

                interrupted = run_supervised(
                    pending,
                    workers=workers,
                    timeout=timeout,
                    policy=policy,
                    chaos=chaos,
                    emit=finish,
                    claim=store.claim if store is not None else None,
                    external=lost_claim,
                    should_stop=should_stop,
                )
        if interrupted:
            say(f"interrupted: {len(fresh)}/{len(pending)} cell(s) "
                "finished; store left resumable")
    finally:
        if store is not None:
            store.release()  # hand back claims an exception left behind
        # Cells another runner claimed are (usually) in the store by
        # now; recover their records from a final scan.  A cell still
        # being computed elsewhere is simply absent from this result.
        if external and store is not None:
            scanned = store.latest()
        if owns_store and store is not None:
            store.close()

    records = []
    for t in tasks:
        record = (
            fresh.get(t.task_id)
            or done.get(t.task_id)
            or scanned.get(t.task_id)
        )
        if record is not None:
            records.append(record)
    return CampaignResult(
        records=records,
        n_run=len(fresh),
        n_skipped=n_skipped,
        store_path=store.path if store is not None else None,
        n_external=len(external),
        interrupted=interrupted,
    )
