"""Supervised worker-process layer: the fault-tolerant campaign engine.

``multiprocessing.Pool`` treats a dead worker as a fatal event: one
segfaulting, OOM-killed or wedged cell aborts the whole campaign, and
the in-worker ``SIGALRM`` soft timeout cannot interrupt native
numpy/sparse-solver code.  This module replaces the pool with a parent
that *owns* its workers and supervises them from outside:

* **One task in flight per worker** — the parent always knows which
  cell a worker holds, so every failure is attributable.
* **Hard watchdog** — a worker that overruns
  ``timeout + policy.watchdog_grace`` is SIGKILLed from the parent,
  covering native-code hangs and platforms without ``SIGALRM``.
* **Death detection + respawn** — a worker that dies mid-task
  (segfault, OOM killer, SIGKILL) is detected by liveness polling; the
  parent respawns a replacement and reschedules the cell.
* **Retry with exponential backoff** — transient task errors
  (classified by :func:`repro.campaign.runner.classify_transient`) and
  worker deaths/hangs are retried on the
  :class:`~repro.campaign.runner.RetryPolicy` schedule; permanent
  errors fail fast.
* **Poison-task quarantine** — a cell that keeps killing workers is
  finalised as ``status: "poisoned"`` after
  ``policy.max_crash_attempts`` deaths instead of crash-looping the
  campaign; repeated watchdog kills finalise as ``status: "timeout"``.
  Both stay resumable: non-``ok`` records rerun on the next campaign.

The parent emits exactly one final record per pending cell (the same
contract the pool had), so :func:`repro.campaign.runner.run_campaign`
checkpointing, resume and determinism guarantees apply unchanged —
``tests/test_campaign_chaos.py`` proves a campaign under injected
kills/hangs/transient errors converges to the same store as an
undisturbed single-worker run.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import heapq
import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
from typing import Callable, Iterator

from repro.campaign.runner import (
    RetryPolicy,
    TaskSpec,
    execute_task,
)
from repro.campaign.store import ENGINE_LABEL, SCHEMA_VERSION

#: Parent event-loop tick: result-queue poll timeout, which also bounds
#: watchdog/liveness detection latency.
_POLL_INTERVAL = 0.02

#: How long to wait for a worker to exit after SIGKILL / shutdown.
_JOIN_TIMEOUT = 5.0


def _worker_main(task_queue, result_queue, chaos) -> None:
    """Worker loop: one cell at a time, result tagged with our pid so
    the parent can attribute it.  ``None`` is the shutdown sentinel.
    SIGINT is ignored — campaign interruption is the parent's call."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    while True:
        item = task_queue.get()
        if item is None:
            return
        spec, timeout, attempt = item
        record = execute_task(spec, timeout, attempt=attempt, chaos=chaos)
        result_queue.put((os.getpid(), record))


@dataclasses.dataclass
class _TaskState:
    """Parent-side bookkeeping for one pending cell."""

    spec: TaskSpec
    attempt: int = 1
    crashes: int = 0
    hangs: int = 0
    failures: list = dataclasses.field(default_factory=list)
    first_started: float | None = None
    #: Whether this runner already owns the cell's store claim (claims
    #: are taken once and survive retries — the claim is only resolved
    #: when the final record is appended).
    claimed: bool = False


class _Worker:
    """One supervised child process with its private task queue."""

    def __init__(self, context, result_queue, chaos) -> None:
        self.task_queue = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(self.task_queue, result_queue, chaos),
            daemon=True,
        )
        self.process.start()
        self.busy: _TaskState | None = None
        self.deadline: float | None = None

    def dispatch(
        self, state: _TaskState, timeout: float | None, grace: float
    ) -> None:
        state.first_started = state.first_started or time.perf_counter()
        self.busy = state
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout + grace
        )
        self.task_queue.put((state.spec, timeout, state.attempt))

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_JOIN_TIMEOUT)

    def shutdown(self) -> None:
        if self.process.is_alive():
            try:
                self.task_queue.put_nowait(None)
            except Exception:  # pragma: no cover - full pipe on teardown
                pass
            self.process.join(_JOIN_TIMEOUT)
        self.kill()


def _synthetic_record(
    state: _TaskState, status: str, error: str
) -> dict:
    """Final record for a cell that never returned from a worker
    (quarantined crash loop or exhausted watchdog kills)."""
    record = {
        "schema": SCHEMA_VERSION,
        "task_id": state.spec.task_id,
        "circuit": state.spec.circuit,
        "fault_class": state.spec.fault_class,
        "engine": ENGINE_LABEL,
        "attempt": state.attempt,
        "status": status,
        "error": error,
    }
    if state.failures:
        record["failures"] = list(state.failures)
    started = state.first_started or time.perf_counter()
    record["runtime_s"] = round(time.perf_counter() - started, 6)
    return record


def run_supervised(
    tasks: list[TaskSpec],
    *,
    workers: int,
    timeout: float | None,
    policy: RetryPolicy,
    chaos,
    emit: Callable[[dict], None],
    claim: Callable[[str], bool] | None = None,
    external: Callable[[TaskSpec], None] | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> bool:
    """Run ``tasks`` on supervised workers, calling ``emit`` exactly
    once per cell with its final record (completion order).

    With a ``claim`` callback (a campaign with a store), each cell is
    claimed exactly once before its first dispatch; a cell another
    runner owns is dropped from this run and reported via ``external``
    instead of ``emit`` — the other runner's store row is its record.
    Retries reuse the original claim (the claim resolves only when the
    final record is appended).

    ``should_stop`` is the cooperative-cancel hook, polled once per
    event-loop tick: when it fires, dispatch stops, in-flight workers
    are killed (their cells emit nothing — a resume recomputes them)
    and the call returns ``True`` instead of ``False``.  The caller
    (:func:`repro.campaign.runner.run_campaign`) then releases store
    claims and flushes/closes the store in its ``finally``.

    See the module docstring for the failure-handling state machine;
    the knobs live on ``policy`` (:class:`RetryPolicy`).
    """
    context = multiprocessing.get_context()
    result_queue = context.Queue()
    states = {spec.task_id: _TaskState(spec) for spec in tasks}
    ready: collections.deque[TaskSpec] = collections.deque(tasks)
    delayed: list[tuple[float, int, TaskSpec]] = []  # (ready_at, seq, spec)
    sequence = 0
    n_final = 0

    def finalize(record: dict) -> None:
        nonlocal n_final
        n_final += 1
        emit(record)

    def reschedule(state: _TaskState) -> None:
        nonlocal sequence
        delay = policy.backoff(state.attempt)
        state.attempt += 1
        sequence += 1
        heapq.heappush(
            delayed, (time.monotonic() + delay, sequence, state.spec)
        )

    def handle_result(state: _TaskState, record: dict) -> None:
        if policy.retry_transient(record, state.attempt, state.failures):
            reschedule(state)
        else:
            finalize(record)

    def handle_crash(state: _TaskState, exitcode: int | None) -> None:
        state.crashes += 1
        state.failures.append(
            {
                "attempt": state.attempt,
                "kind": "crash",
                "error": f"worker died (exitcode {exitcode}) "
                         f"while running the cell",
            }
        )
        if state.crashes >= policy.max_crash_attempts:
            finalize(
                _synthetic_record(
                    state,
                    "poisoned",
                    f"cell killed {state.crashes} worker(s) in a row; "
                    "quarantined",
                )
            )
        else:
            reschedule(state)

    def handle_hang(state: _TaskState, budget: float) -> None:
        state.hangs += 1
        state.failures.append(
            {
                "attempt": state.attempt,
                "kind": "hang",
                "error": f"watchdog killed worker after {budget:g}s",
            }
        )
        if state.hangs >= policy.max_crash_attempts:
            finalize(
                _synthetic_record(
                    state,
                    "timeout",
                    f"cell exceeded the {budget:g}s watchdog on "
                    f"{state.hangs} attempt(s)",
                )
            )
        else:
            reschedule(state)

    pool = [
        _Worker(context, result_queue, chaos)
        for _ in range(max(1, min(workers, len(tasks))))
    ]
    interrupted = False
    try:
        while n_final < len(states):
            if should_stop is not None and should_stop():
                # Wind down: no new dispatches, kill in-flight workers
                # (their cells stay unfinished — a resume recomputes
                # them), and let the caller release claims and flush
                # the store in its ``finally``.
                interrupted = True
                break
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, spec = heapq.heappop(delayed)
                ready.append(spec)

            for index, worker in enumerate(pool):
                if worker.busy is None and ready:
                    state = states[ready.popleft().task_id]
                    if claim is not None and not state.claimed:
                        if not claim(state.spec.task_id):
                            # Another runner owns this cell; its store
                            # row is the record — nothing to emit here.
                            n_final += 1
                            if external is not None:
                                external(state.spec)
                            continue
                        state.claimed = True
                    if not worker.process.is_alive():
                        # Died while idle (should not happen, but never
                        # strand a slot) — replace before dispatching.
                        worker.kill()
                        worker = pool[index] = _Worker(
                            context, result_queue, chaos
                        )
                    worker.dispatch(state, timeout, policy.watchdog_grace)

            try:
                pid, record = result_queue.get(timeout=_POLL_INTERVAL)
            except queue_module.Empty:
                pid, record = None, None
            if record is not None:
                for worker in pool:
                    if worker.busy is not None and worker.process.pid == pid:
                        state, worker.busy = worker.busy, None
                        worker.deadline = None
                        handle_result(state, record)
                        break
                # No matching busy worker: the sender was already
                # killed/declared dead and its cell rescheduled — drop
                # the stale record (the retry recomputes it).

            now = time.monotonic()
            for index, worker in enumerate(pool):
                if worker.busy is None:
                    continue
                if not worker.process.is_alive():
                    state = worker.busy
                    exitcode = worker.process.exitcode
                    worker.kill()
                    pool[index] = _Worker(context, result_queue, chaos)
                    handle_crash(state, exitcode)
                elif worker.deadline is not None and now > worker.deadline:
                    state = worker.busy
                    worker.kill()
                    pool[index] = _Worker(context, result_queue, chaos)
                    handle_hang(state, timeout + policy.watchdog_grace)
    finally:
        for worker in pool:
            if interrupted and worker.busy is not None:
                worker.kill()
            else:
                worker.shutdown()
        result_queue.close()
    return interrupted


@contextlib.contextmanager
def graceful_shutdown(
    signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
) -> Iterator[threading.Event]:
    """Turn SIGTERM/SIGINT into a cooperative campaign stop.

    Yields a :class:`threading.Event`; pass ``event.is_set`` as
    ``run_campaign``'s ``should_stop``.  The first signal sets the
    event — the campaign winds down between cells, releases its sqlite
    claims and flushes/closes the store before the process exits,
    instead of leaving leases to expire for dead-PID reclaim.  A
    second signal restores the default disposition and re-raises
    itself, so a wedged campaign can still be killed the hard way.

    Only the main thread may install signal handlers; anywhere else
    (e.g. the job service's worker threads, which have their own
    cancel events) this is a no-op that yields a never-set event.
    """
    event = threading.Event()
    if threading.current_thread() is not threading.main_thread():
        yield event
        return

    def handler(signum, _frame):
        if event.is_set():  # second signal: die for real
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        event.set()

    previous = {}
    for signum in signals:
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            pass
    try:
        yield event
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
