"""Task-scoped store reads: a job's status, results and resume read
only the job's own rows.

``StoreReader.records(task_ids)`` and ``SqliteBackend.latest(task_ids)``
select a job's rows through the ``idx_results_task`` index.  They must
answer exactly what a whole-store scan filtered afterwards answered
(:func:`scan_then_filter`, the logic they replaced, kept here as the
reference), and their cost must follow the job's rows, not the store:
the guard below counts JSON row decodes, with no wall clock.
"""

import json
import sqlite3
import sys
import threading
import types

import pytest

from repro.campaign.backends import (
    SqliteBackend,
    StoreReader,
    open_store,
    scan_records,
)
from repro.campaign.backends import sqlite as sqlite_module
from repro.campaign.runner import expand_grid, run_campaign
from repro.service.jobs import JobManager

SPEC = {
    "circuits": ["c17", "tmr_voter"],
    "fault_classes": ["stuck_at", "polarity"],
}
TASKS = expand_grid(SPEC["circuits"], SPEC["fault_classes"])
TASK_IDS = [t.task_id for t in TASKS]
C17_SA, C17_POL, TMR_SA, TMR_POL = TASK_IDS
#: Tasks outside the job, one of them on a circuit the job shares.
OTHER_IDS = [
    t.task_id for t in expand_grid(["c17", "rca4"], ["iddq", "stuck_open"])
]
N_PADDING = 2000


def _record(task_id, status="ok", n=1):
    record = {
        "schema": 2, "task_id": task_id, "circuit": task_id.split("/")[0],
        "fault_class": task_id.split("/")[1], "status": status,
        "metrics": {"n": n}, "runtime_s": 0.01,
    }
    if status != "ok":
        record["error"] = "RuntimeError: injected"
    return record


def scan_then_filter(store_path, task_ids):
    """The job's records in commit order the way the service read them
    before the scoped read: decode the whole store, keep the job's rows."""
    wanted = set(task_ids)
    return [r for r in scan_records(store_path) if r.get("task_id") in wanted]


def _counts(records, task_ids):
    latest = {r["task_id"]: r for r in records}
    n_ok = sum(1 for r in latest.values() if r.get("status") == "ok")
    return {
        "tasks": len(task_ids),
        "ok": n_ok,
        "failed": len(latest) - n_ok,
        "pending": len(task_ids) - len(latest),
    }


def _build_store(path):
    """Rows of other tasks interleaved with the job's: a superseded
    failed attempt of C17_SA, a failed latest row of TMR_SA, an ok
    C17_POL and no row at all for TMR_POL."""
    with open_store(path) as store:
        for record in (
            _record(OTHER_IDS[0]),
            _record(C17_SA, "error"),
            _record(OTHER_IDS[1], "timeout"),
            _record(C17_POL, n=2),
            _record(OTHER_IDS[2]),
            _record(C17_SA, n=3),                # supersedes the error
            _record(TMR_SA, "error"),
            _record(OTHER_IDS[3]),
            _record(OTHER_IDS[0], n=4),
        ):
            store.append(record)


def _pad(path, n_rows):
    """Commit ``n_rows`` rows of unrelated tasks in one transaction."""
    conn = sqlite3.connect(str(path))
    rows = []
    for index in range(n_rows):
        record = _record(f"pad{index}/stuck_at/compiled")
        text = json.dumps(record, sort_keys=True)
        checksum = sqlite_module._checksum(text)
        rows.append((record["task_id"], "ok", text, checksum))
    with conn:
        conn.executemany(
            "INSERT INTO results (task_id, status, record, checksum) "
            "VALUES (?, ?, ?, ?)", rows,
        )
    conn.close()


@pytest.fixture
def manager(tmp_path):
    """A never-started manager over the mixed store."""
    manager = JobManager(tmp_path / "state")
    _build_store(manager.store_path)
    return manager


@pytest.fixture
def decodes(monkeypatch):
    """Count every JSON row decode the store module makes."""
    counter = {"n": 0}

    def loads(text, *args, **kwargs):
        counter["n"] += 1
        return json.loads(text, *args, **kwargs)

    monkeypatch.setattr(
        sqlite_module, "json",
        types.SimpleNamespace(
            loads=loads,
            dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError,
        ),
    )
    return counter


class TestScopedReadsMatchTheWholeStoreScan:
    def test_records_of_a_task_set(self, manager):
        path = manager.store_path
        reader = StoreReader(path)
        try:
            for ids in (
                [], [C17_SA], TASK_IDS, TASK_IDS + OTHER_IDS, ["absent"]
            ):
                assert reader.records(ids) == scan_then_filter(path, ids)
            assert reader.records(TASK_IDS + OTHER_IDS) == scan_records(path)
            assert reader.records() == scan_records(path)
        finally:
            reader.close()

    def test_status_counts(self, manager):
        job_id = manager.submit(SPEC)["id"]
        mine = scan_then_filter(manager.store_path, TASK_IDS)
        expected = _counts(mine, TASK_IDS)
        assert expected == {"tasks": 4, "ok": 2, "failed": 1, "pending": 1}
        assert manager.status(job_id)["counts"] == expected

    def test_results_pages_at_every_offset(self, manager):
        job_id = manager.submit(SPEC)["id"]
        mine = scan_then_filter(manager.store_path, TASK_IDS)
        assert len(mine) == 4
        for offset in range(len(mine) + 2):
            page = manager.results(job_id, offset=offset)
            assert page["records"] == mine[offset:]
            assert page["next_offset"] == len(mine)

    def test_resume_done_set_and_external_read(self, manager):
        old_latest = {
            r["task_id"]: r
            for r in scan_then_filter(manager.store_path, TASK_IDS)
        }
        old_done = [
            t for t in TASK_IDS
            if old_latest.get(t, {}).get("status") == "ok"
        ]
        assert old_done == [C17_SA, C17_POL]

        # Another instance holds TMR_SA, so the campaign reads its
        # stored (failed) record back as an external cell; the stop
        # hook fires before TMR_POL starts, so nothing is computed.
        with open_store(manager.store_path) as store, \
                open_store(manager.store_path) as other:
            assert store.latest(TASK_IDS) == old_latest
            other.register([TMR_SA])
            assert other.claim(TMR_SA)
            stops = iter([False, True])
            result = run_campaign(
                TASKS, store=store, should_stop=lambda: next(stops)
            )
        assert result.n_skipped == len(old_done)
        assert result.n_external == 1 and result.n_run == 0
        assert result.records == [old_latest[t] for t in old_done + [TMR_SA]]


class TestStoreReader:
    def test_reads_as_empty_until_the_store_exists(self, tmp_path):
        path = tmp_path / "s.sqlite"
        reader = StoreReader(path)
        try:
            assert reader.records([C17_SA]) == []
            assert not path.exists()             # reading creates nothing
            with open_store(path) as store:
                store.append(_record(C17_SA))
            assert [r["task_id"] for r in reader.records([C17_SA])] == [
                C17_SA
            ]
        finally:
            reader.close()

    def test_sees_every_commit_and_never_writes(self, manager):
        path = manager.store_path
        reader = StoreReader(path)
        try:
            before = reader.records(TASK_IDS)
            with open_store(path) as store:
                store.append(_record(TMR_POL))
            after = reader.records(TASK_IDS)
            assert after[:-1] == before
            assert after[-1]["task_id"] == TMR_POL
            with pytest.raises(sqlite3.OperationalError):
                reader._conn.execute("DELETE FROM results")
        finally:
            reader.close()
        assert reader._conn is None

    def test_shared_by_many_threads(self, manager):
        reader = StoreReader(manager.store_path)
        expected = scan_then_filter(manager.store_path, TASK_IDS)
        results, errors = [], []

        def poll():
            try:
                for _ in range(50):
                    results.append(reader.records(TASK_IDS) == expected)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=poll) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            reader.close()
        assert not errors
        assert results == [True] * 400


class TestJobReadsAreOJob:
    """On a store padded with unrelated rows, a job's requests decode
    only the job's rows."""

    def test_status_results_and_resume_decode_only_the_jobs_rows(
        self, manager, decodes
    ):
        path = manager.store_path
        with open_store(path) as store:
            store.append(_record(TMR_SA, n=5))      # every job task ok
            store.append(_record(TMR_POL, n=6))
        _pad(path, N_PADDING)
        n_mine = len(scan_then_filter(path, TASK_IDS))
        assert n_mine == 6

        decodes["n"] = 0
        scan_then_filter(path, TASK_IDS)
        assert decodes["n"] > N_PADDING          # the counter sees the scan

        job_id = manager.submit(SPEC)["id"]
        decodes["n"] = 0
        assert manager.status(job_id)["counts"]["ok"] == len(TASK_IDS)
        assert decodes["n"] == n_mine

        decodes["n"] = 0
        assert len(manager.results(job_id)["records"]) == n_mine
        assert decodes["n"] == n_mine

        store = SqliteBackend(path).open()
        try:
            decodes["n"] = 0
            result = run_campaign(TASKS, store=store)
            assert decodes["n"] == n_mine
        finally:
            store.close()
        assert result.n_skipped == len(TASK_IDS) and result.n_run == 0


class TestOpenReadsNoResultRow:
    """Opening a store, and so starting the job service, decodes no
    result row: a damaged row is left to the reads of its task."""

    @pytest.fixture
    def whole_store_reads(self, monkeypatch):
        """Count whole-store result reads (``_rows(conn, None)``) and
        every checked decode (``_checked``) the store module makes."""
        counts = {"whole": 0, "checked": 0}
        rows, checked = sqlite_module._rows, sqlite_module._checked

        def counting_rows(conn, task_ids):
            counts["whole"] += task_ids is None
            return rows(conn, task_ids)

        def counting_checked(found):
            counts["checked"] += 1
            return checked(found)

        monkeypatch.setattr(sqlite_module, "_rows", counting_rows)
        monkeypatch.setattr(sqlite_module, "_checked", counting_checked)
        return counts

    def test_writable_open_decodes_no_result_row(
        self, tmp_path, whole_store_reads
    ):
        path = tmp_path / "s.sqlite"
        _build_store(path)
        _pad(path, N_PADDING)
        whole_store_reads.update(whole=0, checked=0)
        SqliteBackend(path).open().close()
        assert whole_store_reads == {"whole": 0, "checked": 0}

    def test_server_start_and_two_jobs_read_no_whole_store(
        self, tmp_path, whole_store_reads
    ):
        manager = JobManager(tmp_path / "state", job_workers=2)
        _build_store(manager.store_path)
        _pad(manager.store_path, N_PADDING)
        whole_store_reads.update(whole=0, checked=0)
        manager.start()
        try:
            ids = [
                manager.submit(spec)["id"]
                for spec in (
                    SPEC, {"circuits": ["c17"], "fault_classes": ["iddq"]}
                )
            ]
            for job_id in ids:
                assert manager.wait(job_id)["state"] == "done"
        finally:
            manager.stop(drain=True)
        assert whole_store_reads["whole"] == 0
        assert whole_store_reads["checked"] > 0   # the jobs' own reads
