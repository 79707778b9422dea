"""Deterministic fault injection for the campaign orchestrator.

The differential-harness discipline the simulation engines get from
``tests/test_multiword_engine.py`` — every engine must agree bit-for-
bit with an oracle — applied to the *orchestrator*: a campaign is
subjected to scripted worker kills, native-style hangs, transient and
permanent exceptions and storage faults, and must converge
to the same final store as an undisturbed single-worker run
(``tests/test_campaign_chaos.py``).

Injection is scripted, not random: a :class:`ChaosPolicy` maps a task
id to the fault each attempt should suffer, so every chaos scenario is
reproducible and assertable::

    ChaosPolicy({
        "c17/stuck_at/compiled": ("kill", "ok"),       # die once, then pass
        "c17/polarity/compiled": ("transient",),       # fail once, retried
        "tmr_voter/stuck_at/compiled": ("hang",),      # wedge; watchdog kills
    })

Fault kinds (attempts past the end of a script run clean):

``ok``
    No injection.
``kill``
    The worker SIGKILLs itself before running the cell — the
    segfault/OOM-killer signature.  Supervised (``workers>1``) runs
    only: inline it would kill the campaign process itself.
``hang``
    The worker blocks ``SIGALRM`` and sleeps forever, mimicking a cell
    wedged inside native code where the soft timeout cannot fire; only
    the supervisor's external watchdog can reclaim it.  Supervised
    runs only.
``transient``
    Raises :class:`ChaosTransientError` (a
    :class:`~repro.campaign.runner.TransientTaskError`): retried with
    backoff.
``permanent``
    Raises :class:`ChaosPermanentError`: fails fast, no retry.
``engine``
    The first engine of the cell's fallback chain raises
    :class:`ChaosEngineError`, forcing degradation to the next engine
    (``engine_used`` then records the fallback).

Storage-layer chaos lives alongside the worker-layer script:

* :class:`StorageChaos` scripts faults at the *store* seam — a
  SIGKILL right after a task claim commits (crash between claim and
  commit), a mid-transaction kill during ``append``, and simulated
  out-of-space (``enospc``) failures the store's bounded retries must
  absorb.  Attach it as ``ChaosPolicy(storage=...)`` (or hand it to a
  store directly) and the runner threads it through.
* :func:`hold_sqlite_write_lock` camps on a sqlite store's write lock
  for a while, producing the sustained lock contention the store's
  busy-timeout + backoff must ride out.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from pathlib import Path
from typing import Mapping, Sequence

from repro.campaign.runner import TransientTaskError

#: Legal per-attempt fault kinds in a :class:`ChaosPolicy` script.
FAULT_KINDS = frozenset(
    {"ok", "kill", "hang", "transient", "permanent", "engine"}
)


class ChaosError(RuntimeError):
    """Base class for injected failures (so tests can catch them)."""


class ChaosTransientError(ChaosError, TransientTaskError):
    """Injected transient failure — classified retryable."""


class ChaosPermanentError(ChaosError):
    """Injected permanent failure — fails fast, no retry."""


class ChaosEngineError(ChaosError):
    """Injected engine failure — triggers the fallback chain."""


def hang_forever(poll_s: float = 0.05) -> None:  # pragma: no cover
    """Simulate a cell wedged in native code: disarm the soft-timeout
    signal (native code never re-enters the interpreter, so the Python
    ``SIGALRM`` handler can never fire there) and never return.  Only
    an external kill reclaims this."""
    if hasattr(signal, "SIGALRM"):
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
    while True:
        time.sleep(poll_s)


def _kill_self() -> None:  # pragma: no cover - dies by design
    """Die the way a segfault/OOM kill looks from outside: no cleanup,
    no exit handlers, no exception."""
    if hasattr(signal, "SIGKILL"):
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(113)  # platforms without SIGKILL: still an abrupt death


@dataclasses.dataclass(frozen=True)
class ChaosPolicy:
    """Scripted fault injection, keyed by ``(task_id, attempt)``.

    ``script`` maps a task id to the fault kind per 1-based attempt;
    unlisted tasks and attempts past a script's end run clean.  The
    policy is immutable and picklable, so forked/spawned workers carry
    the identical script — injection is fully deterministic.

    ``storage`` optionally carries a :class:`StorageChaos` script; the
    runner hands it to the store it opens, so one policy
    object describes a scenario's worker-layer *and* storage-layer
    faults together.
    """

    script: Mapping[str, Sequence[str]]
    storage: "StorageChaos | None" = None

    def __post_init__(self) -> None:
        for task_id, faults in self.script.items():
            unknown = set(faults) - FAULT_KINDS
            if unknown:
                raise ValueError(
                    f"unknown chaos fault kind(s) {sorted(unknown)} for "
                    f"{task_id!r}; expected {sorted(FAULT_KINDS)}"
                )

    def fault(self, task_id: str, attempt: int) -> str:
        """The scripted fault for this attempt (``"ok"`` if none)."""
        faults = self.script.get(task_id, ())
        if 1 <= attempt <= len(faults):
            return faults[attempt - 1]
        return "ok"

    def before_attempt(self, task_id: str, attempt: int) -> None:
        """Worker-side hook, called before the cell executes."""
        kind = self.fault(task_id, attempt)
        if kind == "kill":
            _kill_self()
        elif kind == "hang":
            hang_forever()
        elif kind == "transient":
            raise ChaosTransientError(
                f"injected transient failure ({task_id}, attempt {attempt})"
            )
        elif kind == "permanent":
            raise ChaosPermanentError(
                f"injected permanent failure ({task_id}, attempt {attempt})"
            )

    def engine_fault(
        self,
        task_id: str,
        attempt: int,
        engine: str,
        chain: Sequence[str],
    ) -> None:
        """Worker-side hook, called before each engine of the fallback
        chain runs: an ``"engine"`` fault breaks the chain's *first*
        engine, so the cell must degrade to finish."""
        if (
            self.fault(task_id, attempt) == "engine"
            and len(chain) > 1
            and engine == chain[0]
        ):
            raise ChaosEngineError(
                f"injected failure in engine {engine!r} "
                f"({task_id}, attempt {attempt})"
            )


#: Legal storage fault kinds, per injection point.
STORAGE_FAULT_KINDS: dict[str, frozenset[str]] = {
    "claim": frozenset({"ok", "kill"}),
    "append": frozenset({"ok", "enospc", "kill"}),
}


class StorageChaos:
    """Scripted storage-layer faults, keyed by ``(event, task_id)``.

    ``script`` maps an event name to ``{task_id: (kind, kind, ...)}``;
    each occurrence of that event for that task consumes the next kind
    in its script (occurrences past the end run clean), so scenarios
    like "the first append of this cell tears, the retry succeeds" are
    one tuple.  Events and their kinds:

    ``claim``
        Fires right after a task claim *commits*.  ``kill`` SIGKILLs
        the runner process on the spot — the crash between claim and
        commit that must leave nothing behind but a stale claim.
    ``append``
        Fires inside a record append.  ``enospc`` fails the attempt
        with an out-of-space :class:`OSError` before any row lands
        (the store's bounded-backoff retry absorbs it); ``kill``
        SIGKILLs mid-transaction — WAL journal recovery must erase the
        partial effect.

    Unlike :class:`ChaosPolicy` this object is stateful (it tracks how
    far each script has been consumed); build one per scenario/process.
    """

    def __init__(
        self, script: Mapping[str, Mapping[str, Sequence[str]]]
    ) -> None:
        for event, per_task in script.items():
            legal = STORAGE_FAULT_KINDS.get(event)
            if legal is None:
                raise ValueError(
                    f"unknown storage chaos event {event!r}; expected "
                    f"{sorted(STORAGE_FAULT_KINDS)}"
                )
            for task_id, kinds in per_task.items():
                unknown = set(kinds) - legal
                if unknown:
                    raise ValueError(
                        f"unknown {event} fault kind(s) {sorted(unknown)} "
                        f"for {task_id!r}; expected {sorted(legal)}"
                    )
        self.script = script
        self._cursors: dict[tuple[str, str], int] = {}

    def _next(self, event: str, task_id: str) -> str:
        kinds = self.script.get(event, {}).get(task_id, ())
        cursor = self._cursors.get((event, task_id), 0)
        self._cursors[(event, task_id)] = cursor + 1
        return kinds[cursor] if cursor < len(kinds) else "ok"

    def claim_fault(self, task_id: str) -> None:
        """Store hook, fired after a claim commits; may not return."""
        if self._next("claim", task_id) == "kill":
            _kill_self()

    def append_fault(self, task_id: str) -> str:
        """Store hook, fired per append attempt; returns the kind
        (the store implements the fault at its own write seam)."""
        return self._next("append", task_id)


def hold_sqlite_write_lock(
    path: str | Path, hold_s: float, ready=None
) -> None:
    """Camp on a sqlite store's write lock for ``hold_s`` seconds —
    the sustained lock contention a concurrent runner's busy-timeout
    and bounded backoff must ride out.  ``ready`` (an
    ``Event``-like with ``set``) is signalled once the lock is held.
    Run in a thread or child process alongside the campaign."""
    import sqlite3

    conn = sqlite3.connect(str(path), isolation_level=None)
    try:
        conn.execute("BEGIN IMMEDIATE")
        # Touch a real table so the intent lock escalates to a held
        # write lock even on pristine stores.
        conn.execute(
            "CREATE TABLE IF NOT EXISTS _chaos_contention (x INTEGER)"
        )
        conn.execute("INSERT INTO _chaos_contention VALUES (1)")
        if ready is not None:
            ready.set()
        time.sleep(hold_s)
        conn.execute("ROLLBACK")
    finally:
        conn.close()
