"""Fault-injection chaos harness for the campaign orchestrator.

The differential discipline of ``tests/test_multiword_engine.py``
applied to the execution layer itself: a campaign subjected to scripted
worker SIGKILLs, native-style hangs (soft timeout disarmed), transient
and permanent exceptions and storage faults must

* always complete with one final record per cell (never wedge, never
  crash the parent),
* converge — up to the volatile ``runtime_s``/``attempt``/``failures``
  fields — to the store of an undisturbed single-worker run, and
* quarantine cells that keep killing workers as ``poisoned`` after a
  bounded number of respawns, leaving them resumable.

Set ``REPRO_CHAOS_STORE_DIR`` to persist the stores the scenarios
write (the CI ``chaos-smoke`` job uploads them as artifacts).
"""

import multiprocessing
import os
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import chaos as chaos_module
from repro.campaign import runner as runner_module
from repro.campaign.backends import StoreReader, open_store
from repro.campaign.chaos import (
    ChaosPermanentError,
    ChaosPolicy,
    ChaosTransientError,
    StorageChaos,
    hold_sqlite_write_lock,
)
from repro.campaign.tables import coverage_table
from repro.campaign.runner import (
    RetryPolicy,
    TaskSpec,
    execute_task,
    expand_grid,
    run_campaign,
    run_task_with_retries,
)
from repro.campaign.store import stores_equal
from repro.campaign.tasks import TASK_RUNNERS

GRID_CIRCUITS = ("c17", "tmr_voter")
GRID_CLASSES = ("stuck_at", "polarity")

KILL = "c17/stuck_at/compiled"
HANG = "tmr_voter/stuck_at/compiled"
FLAKY = "c17/polarity/compiled"

#: Tight backoff/watchdog so every scenario runs in a couple seconds.
FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05, watchdog_grace=0.3)

needs_posix = pytest.mark.skipif(
    os.name != "posix", reason="needs POSIX kill/fork semantics"
)
needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="runtime-registered task runners reach workers only via fork",
)


@pytest.fixture(scope="module")
def undisturbed():
    """The oracle: an uninterrupted inline run of the chaos grid."""
    result = run_campaign(expand_grid(GRID_CIRCUITS, GRID_CLASSES))
    assert all(r["status"] == "ok" for r in result.records)
    return result.records


@pytest.fixture
def chaos_store(tmp_path, request) -> Path:
    """Store path for a scenario; lands in ``REPRO_CHAOS_STORE_DIR``
    when set so CI can upload the surviving stores as artifacts."""
    base = os.environ.get("REPRO_CHAOS_STORE_DIR")
    directory = Path(base) if base else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{request.node.name}.sqlite"
    # Stale stores (and their WAL sidecars) would satisfy resume.
    for stale in (path, *path.parent.glob(f"{path.name}-*")):
        stale.unlink(missing_ok=True)
    return path


def _record(records, task_id):
    return next(r for r in records if r["task_id"] == task_id)


def _stored(path) -> list[dict]:
    """The latest record per task of a store, read-only."""
    with open_store(path, read_only=True) as store:
        return list(store.latest().values())


class TestChaosPolicy:
    def test_script_indexing_and_default_ok(self):
        policy = ChaosPolicy({KILL: ("kill", "ok")})
        assert policy.fault(KILL, 1) == "kill"
        assert policy.fault(KILL, 2) == "ok"
        assert policy.fault(KILL, 3) == "ok"      # past the script
        assert policy.fault("other/task/id", 1) == "ok"

    def test_unknown_fault_kind_rejected(self):
        for kind in ("segfault", "engine"):
            with pytest.raises(ValueError, match=f"unknown chaos fault.*{kind}"):
                ChaosPolicy({KILL: (kind,)})

    def test_policy_is_picklable(self):
        import pickle

        policy = ChaosPolicy({KILL: ("kill", "ok")})
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.fault(KILL, 1) == "kill"


class TestInjectedExceptions:
    """Inline (workers=1) chaos: the exception-shaped faults."""

    def test_transient_then_ok_retries_with_provenance(self, undisturbed):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(
            grid, chaos=ChaosPolicy({FLAKY: ("transient", "ok")}),
            policy=FAST,
        )
        record = _record(result.records, FLAKY)
        assert record["status"] == "ok"
        assert record["attempt"] == 2
        assert record["failures"][0]["kind"] == "transient"
        assert "injected transient" in record["failures"][0]["error"]
        assert stores_equal(result.records, undisturbed)

    def test_transient_exhausts_attempt_budget(self):
        record = run_task_with_retries(
            TaskSpec("c17", "stuck_at"),
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            chaos=ChaosPolicy({KILL: ("transient", "transient", "ok")}),
        )
        assert record["status"] == "error"
        assert record["transient"] is True
        assert record["attempt"] == 2
        assert [f["kind"] for f in record["failures"]] == ["transient"]

    def test_permanent_error_fails_fast(self, undisturbed):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(
            grid, chaos=ChaosPolicy({KILL: ("permanent", "ok")}),
            policy=FAST,
        )
        record = _record(result.records, KILL)
        assert record["status"] == "error"
        assert record["attempt"] == 1          # no retry burned
        assert record["transient"] is False
        assert "injected permanent" in record["error"]
        assert result.n_failed == 1

    def test_chaos_exception_classification(self):
        assert runner_module.classify_transient(ChaosTransientError("x"))
        assert not runner_module.classify_transient(ChaosPermanentError("x"))
        assert runner_module.classify_transient(MemoryError())
        assert runner_module.classify_transient(OSError())
        assert not runner_module.classify_transient(ValueError())


@needs_posix
class TestSupervisedChaos:
    """Supervised (workers>1) chaos: deaths, hangs and quarantine."""

    def test_sigkilled_worker_is_respawned_and_cell_retried(
        self, chaos_store, undisturbed
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(
            grid, store=chaos_store, workers=2,
            chaos=ChaosPolicy({KILL: ("kill", "ok")}), policy=FAST,
        )
        record = _record(result.records, KILL)
        assert record["status"] == "ok"
        assert record["attempt"] == 2
        assert record["failures"][0]["kind"] == "crash"
        assert stores_equal(result.records, undisturbed)
        assert stores_equal(_stored(chaos_store), undisturbed)

    def test_hung_cell_is_killed_by_watchdog_and_retried(
        self, chaos_store, undisturbed
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        start = time.perf_counter()
        result = run_campaign(
            grid, store=chaos_store, workers=2, timeout=1.0,
            chaos=ChaosPolicy({HANG: ("hang", "ok")}), policy=FAST,
        )
        elapsed = time.perf_counter() - start
        record = _record(result.records, HANG)
        assert record["status"] == "ok"
        assert record["failures"][0]["kind"] == "hang"
        assert "watchdog" in record["failures"][0]["error"]
        assert elapsed < 20.0                 # reclaimed, not wedged
        assert stores_equal(result.records, undisturbed)

    def test_acceptance_kill_hang_transient_converges(
        self, chaos_store, undisturbed
    ):
        """ISSUE acceptance: SIGKILL + hung cell + transient-then-ok in
        one campaign still yields the undisturbed store."""
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(
            grid, store=chaos_store, workers=2, timeout=1.0,
            chaos=ChaosPolicy({
                KILL: ("kill", "ok"),
                HANG: ("hang", "ok"),
                FLAKY: ("transient", "ok"),
            }),
            policy=FAST,
        )
        assert result.n_failed == 0
        assert stores_equal(result.records, undisturbed)
        # The store itself is clean: one committed row per cell.
        with open_store(chaos_store, read_only=True) as store:
            rows = StoreReader(store.path).records()
            assert store.verify()["ok"] is True
        assert stores_equal(rows, undisturbed)
        assert sorted(r["task_id"] for r in rows) == sorted(
            t.task_id for t in grid
        )

    def test_poison_task_is_quarantined_not_looped(
        self, chaos_store, undisturbed
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        policy = RetryPolicy(
            max_crash_attempts=2, backoff_base=0.01, backoff_max=0.05,
            watchdog_grace=0.3,
        )
        result = run_campaign(
            grid, store=chaos_store, workers=2,
            chaos=ChaosPolicy({KILL: ("kill",) * 6}), policy=policy,
        )
        record = _record(result.records, KILL)
        assert record["status"] == "poisoned"
        assert "quarantined" in record["error"]
        assert [f["kind"] for f in record["failures"]] == ["crash", "crash"]
        assert result.n_failed == 1
        # The other cells finished despite the poison task.
        assert sum(1 for r in result.records if r["status"] == "ok") == 3

        # Poisoned records stay resumable: a healthy rerun recomputes
        # exactly the quarantined cell and converges to the oracle.
        rerun = run_campaign(grid, store=chaos_store, policy=FAST)
        assert rerun.n_skipped == 3
        assert rerun.n_run == 1
        assert stores_equal(_stored(chaos_store), undisturbed)

    def test_clean_supervised_run_matches_inline(
        self, chaos_store, undisturbed
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(grid, store=chaos_store, workers=3)
        assert stores_equal(result.records, undisturbed)


@needs_posix
@needs_fork
class TestWatchdogWithoutSigalrm:
    """The timeout path on platforms without ``SIGALRM``: the soft
    in-worker timer is unavailable, so the supervisor's external
    watchdog is the only enforcement (previously untested)."""

    def test_watchdog_bounds_cell_without_soft_timeout(
        self, monkeypatch, chaos_store
    ):
        monkeypatch.setattr(runner_module, "_HAS_SIGALRM", False)

        def sleepy(_network):
            time.sleep(30.0)
            return {}

        TASK_RUNNERS["sleepy"] = sleepy
        try:
            grid = [TaskSpec("c17", "sleepy"), TaskSpec("c17", "stuck_at")]
            policy = RetryPolicy(
                max_crash_attempts=1, backoff_base=0.01,
                watchdog_grace=0.3,
            )
            start = time.perf_counter()
            result = run_campaign(
                grid, store=chaos_store, workers=2, timeout=0.5,
                policy=policy,
            )
            elapsed = time.perf_counter() - start
            record = _record(result.records, "c17/sleepy/compiled")
            assert record["status"] == "timeout"
            assert "watchdog" in record["error"]
            assert _record(result.records, KILL)["status"] == "ok"
            assert elapsed < 20.0
            assert result.n_failed == 1
        finally:
            del TASK_RUNNERS["sleepy"]

    def test_execute_task_runs_unbounded_without_alarm(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_HAS_SIGALRM", False)
        record = execute_task(TaskSpec("c17", "stuck_at"), timeout=0.000001)
        # No soft timer available: the cell runs to completion instead
        # of being interrupted (the watchdog covers it when supervised).
        assert record["status"] == "ok"


class TestStoreChaos:
    def test_mid_write_truncation_heals_and_resumes(
        self, chaos_store, undisturbed
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        run_campaign(grid, store=chaos_store)
        # Truncate the last committed row mid-record: its checksum no
        # longer matches, so the next open quarantines it.
        conn = sqlite3.connect(str(chaos_store))
        conn.execute(
            "UPDATE results SET record = substr(record, 1, length(record) / 2)"
            " WHERE seq = (SELECT MAX(seq) FROM results)"
        )
        conn.commit(); conn.close()

        result = run_campaign(grid, store=chaos_store, policy=FAST)
        assert result.n_skipped == 3
        assert result.n_run == 1              # exactly the torn record
        assert stores_equal(_stored(chaos_store), undisturbed)
        with open_store(chaos_store, read_only=True) as store:
            report = store.verify()
        assert report["ok"] is True and report["n_quarantined"] == 1


def _claim_kill_child(store_path):
    """Runner killed by SIGKILL *between claim and commit* of the
    first grid cell: it claims, then dies before computing anything."""
    run_campaign(
        expand_grid(GRID_CIRCUITS, GRID_CLASSES),
        store=Path(store_path), policy=FAST,
        chaos=ChaosPolicy({}, storage=StorageChaos(
            {"claim": {KILL: ("kill",)}}
        )),
    )


def _midtxn_kill_child(store_path):
    """Runner killed mid-append-transaction: the result row INSERT has
    executed but the commit never happens — WAL recovery must erase
    it."""
    run_campaign(
        expand_grid(GRID_CIRCUITS, GRID_CLASSES),
        store=Path(store_path), policy=FAST,
        chaos=ChaosPolicy({}, storage=StorageChaos(
            {"append": {FLAKY: ("kill",)}}
        )),
    )


class TestStorageFaults:
    """Out-of-space faults at the store's append seam."""

    def test_enospc_disturbed_campaign_converges(
        self, chaos_store, undisturbed
    ):
        """Two injected out-of-space failures on one cell's append are
        absorbed by the store's bounded-backoff retry."""
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(
            grid, store=chaos_store, policy=FAST,
            chaos=ChaosPolicy({}, storage=StorageChaos(
                {"append": {KILL: ("enospc", "enospc")}}
            )),
        )
        assert result.n_failed == 0
        assert stores_equal(result.records, undisturbed)
        with open_store(chaos_store) as store:
            assert stores_equal(
                list(store.latest().values()), undisturbed
            )
            assert store.verify(repair=True)["ok"] is True

    def test_exec_and_storage_chaos_combined(
        self, chaos_store, undisturbed
    ):
        """Worker-layer faults (transient error) and storage-layer
        faults (enospc) in one campaign still converge."""
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        result = run_campaign(
            grid, store=chaos_store, policy=FAST,
            chaos=ChaosPolicy(
                {FLAKY: ("transient", "ok")},
                storage=StorageChaos({"append": {HANG: ("enospc",)}}),
            ),
        )
        assert result.n_failed == 0
        assert stores_equal(result.records, undisturbed)


@needs_posix
@needs_fork
class TestSqliteStorageAcceptance:
    """Kill-between-claim-and-commit, mid-transaction kill and
    sustained lock contention on one store; the campaign resumes and
    renders paper tables *bit-identical* to an undisturbed 1-worker
    run."""

    def test_chaos_disturbed_sqlite_matches_undisturbed_run(
        self, tmp_path, chaos_store
    ):
        context = multiprocessing.get_context("fork")
        store_path = chaos_store
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)

        # Undisturbed oracle: 1 worker, its own store.
        oracle_path = tmp_path / "oracle.sqlite"
        oracle = run_campaign(grid, store=oracle_path)
        assert oracle.n_failed == 0

        # Stage 1: runner SIGKILLed between claim and commit.
        proc = context.Process(
            target=_claim_kill_child, args=(str(store_path),)
        )
        proc.start(); proc.join(120)
        assert proc.exitcode is not None and proc.exitcode < 0
        with open_store(store_path) as store:
            # Claimed, never committed.
            assert StoreReader(store.path).records() == []
            # Opening reclaimed the dead runner's claim: every cell is
            # pending again, nothing stuck in 'claimed'.
            assert store.verify()["tasks"] == {"pending": len(grid)}

        # Stage 2: runner SIGKILLed mid-append-transaction.
        proc = context.Process(
            target=_midtxn_kill_child, args=(str(store_path),)
        )
        proc.start(); proc.join(120)
        assert proc.exitcode is not None and proc.exitcode < 0
        with open_store(store_path) as store:
            rows = StoreReader(store.path).records()
            # WAL recovery erased the uncommitted row; the rows that
            # did commit before the kill are intact and complete.
            assert FLAKY not in {r["task_id"] for r in rows}
            assert all(r["status"] == "ok" for r in rows)

        # Stage 3: finish under sustained write-lock contention.
        ready = threading.Event()
        holder = threading.Thread(
            target=hold_sqlite_write_lock, args=(store_path, 0.6, ready)
        )
        holder.start()
        ready.wait(10)
        try:
            result = run_campaign(grid, store=store_path, policy=FAST)
        finally:
            holder.join()
        assert result.n_failed == 0

        # Bit-identical convergence: same records up to volatile
        # fields, and the rendered paper table is the same string.
        with open_store(store_path) as store:
            stored = list(store.latest().values())
            rows = StoreReader(store.path).records()
            assert store.verify(repair=True)["ok"] is True
        assert stores_equal(stored, oracle.records)
        assert coverage_table(sorted(stored, key=lambda r: r["task_id"])) \
            == coverage_table(
                sorted(oracle.records, key=lambda r: r["task_id"])
            )
        # Zero duplicated, zero lost: exactly one row per grid cell
        # across the whole disturbed history.
        assert sorted(r["task_id"] for r in rows) == sorted(
            t.task_id for t in grid
        )


class TestBackoffSchedule:
    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)   # capped
        assert policy.backoff(9) == pytest.approx(0.35)

    def test_inline_retry_sleeps_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            runner_module.time, "sleep", lambda s: sleeps.append(s)
        )
        record = run_task_with_retries(
            TaskSpec("c17", "stuck_at"),
            policy=RetryPolicy(
                max_attempts=3, backoff_base=0.1, backoff_factor=2.0,
                backoff_max=10.0,
            ),
            chaos=ChaosPolicy({KILL: ("transient", "transient", "ok")}),
        )
        assert record["status"] == "ok"
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]
