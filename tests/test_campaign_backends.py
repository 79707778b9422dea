"""The sqlite campaign store: format check, claim semantics, JSONL
import, multi-runner coordination and kill/resume determinism.

The contract under test mirrors the engine differential harness: the
*storage* layer must never change what a campaign computes.  A grid
run against the store — on any worker count, split across independent
runner processes, interrupted by kills — must converge to the same
records (after :func:`strip_volatile`) as the undisturbed single-worker
run, and the multi-runner split must produce exactly one result row per
task: none lost, none duplicated.
"""

import json
import multiprocessing
import os
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.backends import (
    SqliteBackend,
    migrate_jsonl_to_sqlite,
    open_store,
    scan_records,
)
from repro.campaign.chaos import (
    ChaosPolicy,
    StorageChaos,
    hold_sqlite_write_lock,
)
from repro.campaign.runner import RetryPolicy, expand_grid, run_campaign
from repro.campaign.store import stores_equal, strip_volatile

needs_posix = pytest.mark.skipif(
    os.name != "posix", reason="needs POSIX kill/fork semantics"
)
needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="child-process scenarios need fork start method",
)

#: Tight backoff so scenarios run in seconds.
FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05, watchdog_grace=0.3)

GRID_CIRCUITS = ("c17", "tmr_voter")
GRID_CLASSES = ("stuck_at", "polarity")


def _ok_record(task_id, n=1):
    return {
        "schema": 2, "task_id": task_id, "circuit": task_id.split("/")[0],
        "status": "ok", "metrics": {"n": n}, "runtime_s": 0.01,
    }


def _jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# ---------------------------------------------------------------------------
# Store format check
# ---------------------------------------------------------------------------

class TestDetection:
    def test_existing_files_classified_by_content(self, tmp_path):
        jsonl = tmp_path / "weird.sqlite"   # misleading suffix
        jsonl.write_text('{"task_id": "a"}\n')
        with pytest.raises(ValueError, match="migrate-store"):
            open_store(jsonl)
        assert jsonl.read_text() == '{"task_id": "a"}\n'   # untouched
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weird.sqlite"]

        db = tmp_path / "weird.jsonl"       # misleading suffix
        with open_store(db) as store:
            store.append(_ok_record("a"))
        with open_store(db) as store:
            assert len(store.load()) == 1

    def test_open_store_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="migrate-store"):
            open_store(tmp_path / "a.jsonl", "jsonl")
        assert not (tmp_path / "a.jsonl").exists()


class TestReadOnlyAccess:
    """Read-only opens and scans never create, repair or write."""

    def test_read_only_open_refuses_writes(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with open_store(path) as store:
            store.append(_ok_record("a"))
        with open_store(path, read_only=True) as store:
            assert [r["task_id"] for r in store.load()] == ["a"]
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                store.append(_ok_record("b"))
        with open_store(path, read_only=True) as store:
            assert len(store.load()) == 1

    def test_read_only_open_creates_nothing(self, tmp_path):
        with pytest.raises(sqlite3.OperationalError):
            open_store(tmp_path / "missing.sqlite", read_only=True)
        assert list(tmp_path.iterdir()) == []

    def test_scan_of_missing_store_is_empty(self, tmp_path):
        assert scan_records(tmp_path / "missing.sqlite") == []
        assert list(tmp_path.iterdir()) == []

    def test_empty_file_becomes_a_fresh_store(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        path.write_bytes(b"")
        with open_store(path) as store:
            store.append(_ok_record("a"))
        assert scan_records(path)[0]["task_id"] == "a"


# ---------------------------------------------------------------------------
# Sqlite backend semantics
# ---------------------------------------------------------------------------

class TestSqliteBackend:
    def test_append_load_latest_round_trip(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.append(_ok_record("a", 1))
            store.append(_ok_record("b", 2))
            store.append(_ok_record("a", 3))  # rerun supersedes
            assert [r["metrics"]["n"] for r in store.load()] == [1, 2, 3]
            assert store.latest()["a"]["metrics"]["n"] == 3
        # Persists across close/open.
        with open_store(tmp_path / "s.sqlite") as store:
            assert len(store.load()) == 3

    def test_provenance_stamped_and_volatile(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.append(_ok_record("a"))
            record = store.load()[0]
        assert record["backend"] == "sqlite"
        assert record["store_schema"] == SqliteBackend.STORE_SCHEMA
        stripped = strip_volatile([record])[0]
        assert "backend" not in stripped and "store_schema" not in stripped

    def test_newer_store_schema_refused(self, tmp_path):
        path = tmp_path / "s.sqlite"
        SqliteBackend(path).open().close()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE meta SET value='99' WHERE key='store_schema'"
        )
        conn.commit(); conn.close()
        with pytest.raises(RuntimeError, match="newer than this code"):
            SqliteBackend(path).open()

    def test_fresh_open_rides_out_a_held_write_lock(self, tmp_path):
        """Switching a fresh file to WAL fails at once, without a busy
        wait, while another connection holds its write lock (as when
        several runners open one new store together); open must back
        off and retry instead of raising "database is locked"."""
        path = tmp_path / "s.sqlite"
        ready = threading.Event()
        holder = threading.Thread(
            target=hold_sqlite_write_lock, args=(path, 0.2, ready)
        )
        holder.start()
        assert ready.wait(10)
        try:
            with SqliteBackend(path).open() as store:
                store.append(_ok_record("a"))
        finally:
            holder.join(10)
        assert not holder.is_alive()
        with open_store(path) as store:
            assert [r["task_id"] for r in store.load()] == ["a"]

    def test_verify_reports_healthy_store(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.register(["a"])
            assert store.claim("a")
            store.append(_ok_record("a"))
            report = store.verify()
        assert report["ok"] is True
        assert report["n_records"] == 1
        assert report["n_corrupt"] == 0
        assert report["tasks"] == {"done": 1}


class TestSqliteClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        path = tmp_path / "s.sqlite"
        a = SqliteBackend(path).open()
        b = SqliteBackend(path).open()
        a.register(["t1", "t2"])
        assert a.claim("t1")
        assert not b.claim("t1")          # exactly one winner
        assert b.claim("t2")
        assert not a.claim("t2")
        # release() hands back every claim this *process* holds (both
        # connections share a PID here; real runners are processes).
        a.release()
        assert b.claim("t1")
        a.close(); b.close()

    def test_done_task_is_not_reclaimable(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.register(["t1"])
            assert store.claim("t1")
            store.append(_ok_record("t1"))
            assert not store.claim("t1")           # done, not pending
            store.register(["t1"])                 # idempotent re-register
            assert not store.claim("t1")           # latest record is ok

    def test_failed_task_requeues_on_register(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.register(["t1"])
            assert store.claim("t1")
            record = _ok_record("t1")
            record["status"] = "error"
            store.append(record)
            store.register(["t1"])     # latest record not ok -> pending
            assert store.claim("t1")

    def test_force_register_requeues_done_tasks(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.register(["t1"])
            assert store.claim("t1")
            store.append(_ok_record("t1"))
            store.register(["t1"], force=True)     # --no-resume
            assert store.claim("t1")

    @needs_posix
    def test_stale_claim_of_dead_pid_requeued_on_open(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with SqliteBackend(path).open() as store:
            store.register(["t1"])
            assert store.claim("t1")
        # Simulate the claim-then-crash runner: resurrect the claim with
        # a PID that cannot exist.
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE tasks SET status='claimed', owner_pid=99999999, "
            "claimed_at=0"
        )
        conn.commit(); conn.close()
        with SqliteBackend(path).open() as store:  # open reclaims stale
            assert store.claim("t1")

    def test_live_claim_not_stolen_on_open(self, tmp_path):
        path = tmp_path / "s.sqlite"
        a = SqliteBackend(path).open()
        a.register(["t1"])
        assert a.claim("t1")                # held by this live process
        with SqliteBackend(path).open() as b:
            assert not b.claim("t1")
        a.close()


class TestSqliteCorruptionRecovery:
    def _tamper(self, path, task_id):
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE results SET record = substr(record, 1, 20) "
            "WHERE task_id = ?", (task_id,),
        )
        conn.commit(); conn.close()

    def test_corrupt_row_quarantined_and_requeued(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with SqliteBackend(path).open() as store:
            store.register(["a", "b"])
            store.claim("a"); store.append(_ok_record("a"))
            store.claim("b"); store.append(_ok_record("b"))
        self._tamper(path, "a")

        # A read-only open with repair=False only reports.
        with SqliteBackend(path, read_only=True).open() as probe:
            report = probe.verify(repair=False)
        assert report["ok"] is False and report["n_corrupt"] == 1

        # open() quarantines the torn row and re-queues its task.
        with SqliteBackend(path).open() as store:
            report = store.verify()
            assert report["n_quarantined"] == 1
            assert "a" not in store.latest()
            assert store.latest()["b"]["status"] == "ok"
            assert store.claim("a")            # requeued
            assert not store.claim("b")        # untouched, still done
            # Store stays not-ok until the quarantined task recomputes.
            assert report["ok"] is False
            store.append(_ok_record("a"))
            assert store.verify()["ok"] is True

    def test_campaign_recomputes_quarantined_cell(self, tmp_path):
        path = tmp_path / "s.sqlite"
        grid = expand_grid(["c17"], ["stuck_at", "polarity"])
        reference = run_campaign(grid, store=path)
        assert reference.n_failed == 0
        self._tamper(path, "c17/stuck_at/compiled")
        rerun = run_campaign(grid, store=path)
        assert rerun.n_run == 1                    # exactly the torn cell
        assert rerun.n_skipped == 1
        assert stores_equal(rerun.records, reference.records)
        with open_store(path) as store:
            assert store.verify()["ok"] is True


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------

class TestMigration:
    def test_jsonl_to_sqlite_preserves_records_and_resume(self, tmp_path):
        src, dst = tmp_path / "a.jsonl", tmp_path / "a.sqlite"
        grid = expand_grid(["c17"], ["stuck_at", "polarity"])
        jsonl_run = run_campaign(grid)
        assert jsonl_run.n_failed == 0
        src.write_text(_jsonl(jsonl_run.records))

        count = migrate_jsonl_to_sqlite(src, dst)
        assert count == 2
        assert src.exists()                        # source untouched
        with open_store(dst) as store:
            assert stores_equal(store.load(), jsonl_run.records)
            assert store.verify()["ok"] is True
            assert store.load()[0]["backend"] == "sqlite"  # re-stamped

        # Resume on the migrated store computes nothing.
        resumed = run_campaign(grid, store=dst)
        assert resumed.n_run == 0 and resumed.n_skipped == 2

    def test_migration_refuses_existing_destination(self, tmp_path):
        src = tmp_path / "a.jsonl"
        src.write_text(_jsonl([_ok_record("a")]))
        dst = tmp_path / "exists.sqlite"
        dst.write_bytes(b"precious")
        with pytest.raises(FileExistsError, match="refusing"):
            migrate_jsonl_to_sqlite(src, dst)
        assert dst.read_bytes() == b"precious"

    def test_migration_tolerates_torn_source_tail(self, tmp_path):
        src, dst = tmp_path / "a.jsonl", tmp_path / "a.sqlite"
        text = _jsonl([_ok_record("a"), _ok_record("b")])
        src.write_text(text[: len(text) - 20])     # killed mid-record
        assert migrate_jsonl_to_sqlite(src, dst) == 1   # torn row dropped
        with open_store(dst) as migrated:
            assert [r["task_id"] for r in migrated.load()] == ["a"]


class TestUtf8Tear:
    """A JSONL source torn *inside* a multi-byte UTF-8 sequence."""

    def test_tear_inside_utf8_sequence(self, tmp_path):
        """The torn tail is undecodable, not just unparseable; the
        import drops it like any other torn tail."""
        src, dst = tmp_path / "a.jsonl", tmp_path / "a.sqlite"
        record = _ok_record("b")
        record["error"] = "μ-fault: polarity gate Θ misread"  # multi-byte
        data = (_jsonl([_ok_record("a")]) + json.dumps(
            record, sort_keys=True, ensure_ascii=False
        ) + "\n").encode("utf-8")
        cut = data.rindex("Θ".encode("utf-8")) + 1
        src.write_bytes(data[:cut])
        with pytest.raises(UnicodeDecodeError):
            data[:cut].decode("utf-8")       # the tear is mid-character
        assert migrate_jsonl_to_sqlite(src, dst) == 1
        with open_store(dst) as migrated:
            assert [r["task_id"] for r in migrated.load()] == ["a"]


# ---------------------------------------------------------------------------
# Multi-runner coordination (the acceptance scenario)
# ---------------------------------------------------------------------------

def _runner_process(store_path, start, done_counts, index):
    """One independent runner process sharing the sqlite store."""
    start.wait()
    grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
    result = run_campaign(grid, store=Path(store_path), policy=FAST)
    done_counts[index] = result.n_run


@needs_posix
@needs_fork
class TestMultiRunner:
    def test_two_processes_share_one_store_no_dup_no_loss(self, tmp_path):
        """ISSUE acceptance: two concurrent runner processes complete a
        full smoke grid on one sqlite store — zero duplicated rows,
        zero lost rows, and the result equals an undisturbed 1-worker
        run."""
        context = multiprocessing.get_context("fork")
        store_path = tmp_path / "shared.sqlite"
        start = context.Event()
        counts = context.Array("i", [0, 0])
        procs = [
            context.Process(
                target=_runner_process,
                args=(str(store_path), start, counts, k),
            )
            for k in range(2)
        ]
        for proc in procs:
            proc.start()
        start.set()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0

        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        with open_store(store_path) as store:
            records = store.load()
            report = store.verify()
        # Zero lost, zero duplicated: exactly one row per grid cell.
        assert sorted(r["task_id"] for r in records) == sorted(
            t.task_id for t in grid
        )
        assert all(r["status"] == "ok" for r in records)
        assert report["ok"] is True
        assert report["tasks"] == {"done": len(grid)}
        # The split really happened across both processes (the grid ran
        # exactly once in total, however it was divided).
        assert counts[0] + counts[1] == len(grid)

        # And the shared-store result equals an undisturbed 1-worker
        # campaign.
        oracle = run_campaign(grid, store=tmp_path / "oracle.sqlite")
        assert stores_equal(records, oracle.records)


# ---------------------------------------------------------------------------
# Sequential cells: kill/resume + 1-vs-N
# ---------------------------------------------------------------------------

SEQ_GRID = (("s27", "sqx344"), ("fault_sim",))
SEQ_KILL_TASK = "sqx344/fault_sim/compiled"


def _seq_killed_runner(store_path):
    """Child: run the sequential grid but die mid-append-transaction on
    the second cell."""
    chaos = ChaosPolicy(
        {}, storage=StorageChaos({"append": {SEQ_KILL_TASK: ("kill",)}})
    )
    run_campaign(
        expand_grid(*SEQ_GRID),
        store=Path(store_path), policy=FAST, chaos=chaos,
    )


@needs_posix
@needs_fork
class TestSequentialBackendDeterminism:
    """1-vs-N determinism for the sequential (s27/sqx344) cells,
    including kill/resume mid-grid."""

    @pytest.fixture(scope="class")
    def seq_oracle(self):
        result = run_campaign(expand_grid(*SEQ_GRID))
        assert all(r["status"] == "ok" for r in result.records)
        return result.records

    def test_kill_mid_grid_then_parallel_resume_converges(
        self, tmp_path, seq_oracle
    ):
        store_path = tmp_path / "seq.sqlite"
        context = multiprocessing.get_context("fork")
        proc = context.Process(
            target=_seq_killed_runner, args=(str(store_path),)
        )
        proc.start()
        proc.join(300)
        # The runner died by SIGKILL mid-append, as scripted.
        assert proc.exitcode is not None and proc.exitcode < 0

        # The interrupted store holds only complete rows (WAL recovery
        # erased the uncommitted one).
        with open_store(store_path) as store:
            survivors = store.latest()
        assert SEQ_KILL_TASK not in survivors
        assert all(r["status"] == "ok" for r in survivors.values())

        # Resume with 2 workers: recomputes exactly the killed cell and
        # converges to the 1-worker in-memory oracle.
        result = run_campaign(
            expand_grid(*SEQ_GRID),
            store=store_path, workers=2, policy=FAST,
        )
        assert result.n_run == 1
        assert result.n_skipped == len(survivors)
        assert stores_equal(result.records, seq_oracle)
        with open_store(store_path) as store:
            assert stores_equal(list(store.latest().values()), seq_oracle)
            assert store.verify(repair=True)["ok"] is True


# ---------------------------------------------------------------------------
# StorageChaos mechanics
# ---------------------------------------------------------------------------

class TestStorageChaos:
    def test_scripts_consumed_per_event_and_task(self):
        chaos = StorageChaos({"append": {"a": ("enospc", "kill")}})
        assert chaos.append_fault("a") == "enospc"
        assert chaos.append_fault("b") == "ok"     # other tasks clean
        assert chaos.append_fault("a") == "kill"
        assert chaos.append_fault("a") == "ok"     # past the script
        chaos.claim_fault("a")                     # no claim script: ok

    def test_unknown_event_and_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown storage chaos event"):
            StorageChaos({"fsync": {"a": ("ok",)}})
        with pytest.raises(ValueError, match="unknown append fault"):
            StorageChaos({"append": {"a": ("hang",)}})
        with pytest.raises(ValueError, match="unknown claim fault"):
            StorageChaos({"claim": {"a": ("enospc",)}})

    def test_sqlite_enospc_append_retried(self, tmp_path):
        chaos = StorageChaos({"append": {"a": ("enospc", "enospc")}})
        with SqliteBackend(tmp_path / "s.sqlite", chaos=chaos).open() as s:
            s.append(_ok_record("a"))             # retried past 2 failures
            assert len(s.load()) == 1
            assert s.verify()["ok"] is True
