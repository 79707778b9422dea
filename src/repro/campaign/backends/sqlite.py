"""The campaign result store: crash-safe, multi-runner sqlite.

Built for N independent runner *processes* sharing one store and
splitting a grid between them with no duplicated and no lost rows:

* **WAL journaling.**  The database runs in write-ahead-log mode, so
  readers never block the writer, a mid-transaction SIGKILL rolls back
  on the next open (journal recovery), and ``fsync=True`` maps to
  ``synchronous=FULL`` for machine-crash durability (``NORMAL``, the
  default, already survives process kills).
* **Atomic task claiming.**  A ``tasks`` row moves ``pending →
  claimed`` via a single ``UPDATE … WHERE status='pending'`` — exactly
  one of N concurrent claimants observes ``rowcount == 1`` — and
  ``claimed → done`` happens in the *same transaction* that inserts
  the result row, so a runner killed between claim and commit leaves
  nothing but a stale claim.  Stale claims (owner PID dead, or lease
  expired where PIDs cannot be probed) are re-queued on every open.
* **Per-row checksums.**  Each result row stores the CRC-32 of its
  canonical JSON text, and every read of result rows checks it and the
  JSON: a torn or tampered row is left out everywhere.  A writable
  ``latest`` and ``verify(repair=True)`` also move it to a
  ``quarantine`` table (evidence, not silent deletion) and re-queue its
  task, so a resume — whose first step is ``latest`` over its tasks —
  recomputes exactly the damaged cells.  Opening a store reads no
  result row.
* **Schema versioning + one-way migration.**  ``meta.store_schema``
  names the layout version (:data:`SqliteBackend.STORE_SCHEMA`); a
  store written by a newer layout refuses to open.
  :func:`migrate_jsonl_to_sqlite` lifts a JSONL store (the format of
  older checkouts, and of ``repro campaign export``) into a fresh
  sqlite one (source untouched), preserving record order and history.
* **Read-only access.**  :func:`scan_records`, :class:`StoreReader`
  and ``SqliteBackend(path, read_only=True)`` read through ``mode=ro``
  connections that never repair, re-queue or create anything, so
  reports, exports, status polls and ``verify-store`` without
  ``--repair`` leave the store exactly as they found it.
* **Job records.**  The ``jobs`` table holds the job service's record
  of each job (its spec and lifecycle state), written by
  :meth:`SqliteBackend.put_job` and read by ``job`` and ``jobs``, so a
  served state directory keeps all of its state in this one file.
* **Task-scoped reads.**  ``StoreReader.records(task_ids)`` and
  ``SqliteBackend.latest(task_ids)`` read only the rows of the given
  tasks, through the ``idx_results_task`` index, so a job's status
  poll or a campaign's resume costs O(its rows), not O(the store).
* **Bounded backoff on contention.**  Writes ride sqlite's
  ``busy_timeout`` plus an explicit retry loop with exponential
  backoff, so sustained lock contention (another runner mid-commit,
  a reporting reader, injected chaos) delays a campaign instead of
  failing it.

Storage chaos (:class:`repro.campaign.chaos.StorageChaos`) hooks:
``claim`` faults fire after the claim transaction commits (``kill`` =
SIGKILL between claim and commit — the acceptance scenario), and
``append`` faults fire inside the append (``enospc`` fails the attempt
before the transaction; ``kill`` SIGKILLs after the result ``INSERT``
but before ``COMMIT`` — the mid-transaction kill WAL recovery must
erase).
"""

from __future__ import annotations

import errno
import json
import os
import sqlite3
import threading
import time
import zlib
from pathlib import Path
from typing import Iterable

from repro.campaign.store import SCHEMA_VERSION

#: Bounded backoff schedule for contended/failed write transactions.
_IO_ATTEMPTS = 6
_IO_BACKOFF_BASE = 0.02
_IO_BACKOFF_MAX = 1.0
#: How long a statement waits on another connection's lock.
_BUSY_TIMEOUT_S = 5.0
#: Age after which a claim is stale where PID liveness cannot be probed.
_CLAIM_LEASE_S = 3600.0

#: A job row's lifecycle state (NULL for a payload that is not JSON):
#: the expression ``idx_jobs_state`` indexes, so the job service finds
#: its queued and running jobs without reading every job it ever ran.
_JOB_STATE = (
    "CASE WHEN json_valid(payload) THEN json_extract(payload, '$.state') END"
)

_SCHEMA_SQL = f"""
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    seq      INTEGER PRIMARY KEY AUTOINCREMENT,
    task_id  TEXT NOT NULL,
    status   TEXT NOT NULL,
    record   TEXT NOT NULL,
    checksum INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_task ON results(task_id);
CREATE TABLE IF NOT EXISTS tasks (
    task_id    TEXT PRIMARY KEY,
    status     TEXT NOT NULL DEFAULT 'pending'
               CHECK (status IN ('pending', 'claimed', 'done')),
    owner_pid  INTEGER,
    claimed_at REAL
);
CREATE TABLE IF NOT EXISTS quarantine (
    seq            INTEGER,
    task_id        TEXT,
    record         TEXT NOT NULL,
    checksum       INTEGER,
    reason         TEXT NOT NULL,
    quarantined_at REAL
);
CREATE TABLE IF NOT EXISTS jobs (
    id      TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs({_JOB_STATE});
"""


#: First 16 bytes of every sqlite3 database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def require_sqlite(path: str | Path) -> None:
    """Refuse a store path that holds something other than a sqlite
    database — typically a JSONL store from an older checkout — before
    any connection could touch it.  A missing or empty file is fine
    (it becomes a fresh store)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(_SQLITE_MAGIC))
    except FileNotFoundError:
        return
    if head and head != _SQLITE_MAGIC:
        raise ValueError(
            f"{path}: not a sqlite campaign store (a JSONL store from an "
            "older checkout?); import it with 'repro campaign "
            f"migrate-store --store {path} --to NEW.sqlite'"
        )


#: The rows of a set of tasks in commit order.  The ids travel as one
#: JSON array, so there is no host-parameter limit, and the ``IN`` list
#: searches ``idx_results_task`` instead of scanning the table.
_TASK_ROWS_SQL = (
    "SELECT seq, task_id, record, checksum FROM results "
    "WHERE task_id IN (SELECT value FROM json_each(?)) ORDER BY seq"
)


def _rows(
    conn: sqlite3.Connection, task_ids: Iterable[str] | None
) -> list[tuple[int, str, str, int]]:
    """``(seq, task_id, record text, checksum)`` in commit order: every
    row, or only the rows of ``task_ids``."""
    if task_ids is None:
        return conn.execute(
            "SELECT seq, task_id, record, checksum FROM results "
            "ORDER BY seq"
        ).fetchall()
    return conn.execute(
        _TASK_ROWS_SQL, (json.dumps(list(task_ids)),)
    ).fetchall()


class StoreReader:
    """Read-only access to a store for many short reads from many
    threads — the job service's status and results requests.

    One ``mode=ro`` connection, opened once the store file exists and
    shared under a lock, so a request pays neither a connect nor a
    schema parse.  Each read is its own autocommit statement, so the
    reader never holds a snapshot between reads and always sees the
    latest commit.  Like every read-only path it never repairs,
    re-queues or creates anything.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        self._lock = threading.Lock()

    def records(self, task_ids: Iterable[str] | None = None) -> list[dict]:
        """The records of ``task_ids`` (default: every task) in commit
        order.  A missing or still-initialising store (no campaign ran
        yet) is just empty, and a row that fails its checksum or JSON
        check — quarantine's job, at the next writable ``latest`` of its
        task — is skipped."""
        with self._lock:
            if self._conn is None:
                if not self.path.exists():
                    return []
                try:
                    self._conn = sqlite3.connect(
                        f"file:{self.path}?mode=ro",
                        uri=True,
                        timeout=_BUSY_TIMEOUT_S,
                        isolation_level=None,
                        check_same_thread=False,  # guarded by _lock
                    )
                except sqlite3.OperationalError:
                    return []
            try:
                rows = _rows(self._conn, task_ids)
            except sqlite3.OperationalError:  # store still being created
                return []
        return [record for _task_id, record in _checked(rows)[0]]

    def close(self) -> None:
        """Drop the connection; the next read opens a new one."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


def scan_records(store_path: Path) -> list[dict]:
    """All records of a store in commit order, through a short-lived
    read-only connection: the one-shot read of ``repro report`` and
    ``export``.  A missing store (no campaign ran yet) is just empty."""
    reader = StoreReader(store_path)
    try:
        return reader.records()
    finally:
        reader.close()


def _checksum(text: str) -> int:
    """CRC-32 of the canonical record text (torn/tamper detection)."""
    return zlib.crc32(text.encode("utf-8"))


def _checked(rows) -> tuple[list[tuple[str, dict]], list[tuple]]:
    """The one decode of result rows: split ``_rows`` output into the
    good ``(task_id, record)`` pairs in commit order and the ``(seq,
    task_id, text, checksum, reason)`` rows that fail their checksum or
    JSON check."""
    good: list[tuple[str, dict]] = []
    corrupt: list[tuple[int, str, str, int, str]] = []
    for seq, task_id, text, checksum in rows:
        if _checksum(text) != checksum:
            reason = "checksum mismatch (torn or tampered row)"
        else:
            try:
                good.append((task_id, json.loads(text)))
                continue
            except json.JSONDecodeError:
                reason = "unparseable record JSON"
        corrupt.append((seq, task_id, text, checksum, reason))
    return good, corrupt


def _pid_alive(pid: int) -> bool | None:
    """Whether ``pid`` is a live process on this host; ``None`` when it
    cannot be probed (no ``os.kill(pid, 0)`` semantics)."""
    if not hasattr(os, "kill"):  # pragma: no cover - platform dependent
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return None
    return True


class SqliteBackend:
    """WAL-mode sqlite result store with atomic task claiming."""

    name = "sqlite"
    #: Version of the table layout above (``meta.store_schema``).
    STORE_SCHEMA = 1

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = False,
        chaos=None,
        read_only: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.chaos = chaos
        self.read_only = read_only
        self._conn: sqlite3.Connection | None = None
        #: Task ids THIS instance claimed and has not yet resolved —
        #: ``release`` hands back exactly these, not everything the PID
        #: owns, so several backend instances in one process (the job
        #: service runs one campaign per worker thread) cannot release
        #: each other's in-flight claims.
        self._claimed: set[str] = set()

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "SqliteBackend":
        """Connect (running WAL journal recovery), create/validate the
        schema and re-queue stale claims.  No result row is read: a
        damaged one is quarantined by the first writable :meth:`latest`
        that reads its task.

        A ``read_only`` backend only connects (``mode=ro``): nothing is
        created, repaired or re-queued, and every write raises."""
        if self._conn is not None:
            return self
        require_sqlite(self.path)
        if self.read_only:
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro",
                uri=True,
                timeout=_BUSY_TIMEOUT_S,
                isolation_level=None,
            )
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path),
            timeout=_BUSY_TIMEOUT_S,
            isolation_level=None,  # autocommit; transactions are explicit
            # A backend shared by threads is used under its owner's lock
            # (the job manager's job-record writes).
            check_same_thread=False,
        )
        self._conn = conn
        try:
            # Switching a fresh file to WAL fails at once with "database
            # is locked" (no busy wait) while another process holds its
            # write lock, e.g. a concurrent runner creating the schema.
            self._with_retry(self._configure)
            self._with_retry(self._init_schema)
        except BaseException:
            conn.close()
            self._conn = None
            raise
        self._requeue_stale()
        return self

    def close(self) -> None:
        """Give back unfinished claims and drop the connection."""
        if self._conn is None:
            return
        try:
            self.release()
        except sqlite3.Error:  # pragma: no cover - teardown is best-effort
            pass
        self._conn.close()
        self._conn = None

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self.open()
        assert self._conn is not None
        return self._conn

    def _configure(self) -> None:
        assert self._conn is not None
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(
            f"PRAGMA synchronous={'FULL' if self.fsync else 'NORMAL'}"
        )
        self._conn.execute(
            f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}"
        )

    def _init_schema(self) -> None:
        assert self._conn is not None
        self._conn.executescript(_SCHEMA_SQL)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("store_schema", str(self.STORE_SCHEMA)),
        )
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("record_schema", str(SCHEMA_VERSION)),
        )
        stored = int(self._meta("store_schema"))
        if stored > self.STORE_SCHEMA:
            raise RuntimeError(
                f"{self.path}: store layout v{stored} is newer than this "
                f"code understands (v{self.STORE_SCHEMA}); upgrade the "
                "checkout instead of the store"
            )
        # stored < STORE_SCHEMA is where one-way layout upgrades will
        # run when a v2 layout exists; v1 is the first.

    def _meta(self, key: str) -> str:
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise KeyError(f"{self.path}: missing meta key {key!r}")
        return row[0]

    # -- contention-tolerant write helper ----------------------------------

    def _with_retry(self, operation):
        """Run a write ``operation`` with bounded exponential backoff on
        lock contention (``database is locked``) and transient OS-level
        failures (out of space)."""
        delay = _IO_BACKOFF_BASE
        for attempt in range(1, _IO_ATTEMPTS + 1):
            try:
                return operation()
            except (sqlite3.OperationalError, OSError):
                try:
                    self._connection().execute("ROLLBACK")
                except sqlite3.Error:
                    pass  # no transaction was open
                if attempt == _IO_ATTEMPTS:
                    raise
                time.sleep(delay)
                delay = min(delay * 2.0, _IO_BACKOFF_MAX)

    # -- coordination ------------------------------------------------------

    def register(
        self, task_ids: Iterable[str], force: bool = False
    ) -> None:
        """Make task rows exist (idempotent) and re-queue the ones that
        need recomputation: ``done`` rows whose latest record is not
        ``ok`` (always), ``done`` rows unconditionally when ``force``
        (the ``--no-resume`` path), and stale claims."""
        ids = list(task_ids)
        if not ids:
            return
        conn = self._connection()

        def txn() -> None:
            conn.execute("BEGIN IMMEDIATE")
            for task_id in ids:
                conn.execute(
                    "INSERT OR IGNORE INTO tasks (task_id, status) "
                    "VALUES (?, 'pending')",
                    (task_id,),
                )
                if force:
                    conn.execute(
                        "UPDATE tasks SET status='pending', owner_pid=NULL, "
                        "claimed_at=NULL WHERE task_id=? AND status='done'",
                        (task_id,),
                    )
                else:
                    # Re-queue a finished task only if its latest record
                    # is not ok — the guard that keeps a racing runner
                    # with a stale pending list from recomputing (and
                    # duplicating) a row another runner just committed.
                    conn.execute(
                        "UPDATE tasks SET status='pending', owner_pid=NULL, "
                        "claimed_at=NULL WHERE task_id=? AND status='done' "
                        "AND COALESCE((SELECT r.status FROM results r "
                        "  WHERE r.task_id = tasks.task_id "
                        "  ORDER BY r.seq DESC LIMIT 1), '') != 'ok'",
                        (task_id,),
                    )
            conn.execute("COMMIT")

        self._with_retry(txn)
        self._requeue_stale(set(ids))

    def claim(self, task_id: str) -> bool:
        """Atomically take ownership of a pending task: exactly one of
        N concurrent claimants sees the row flip under its UPDATE."""
        conn = self._connection()

        def txn() -> bool:
            cur = conn.execute(
                "UPDATE tasks SET status='claimed', owner_pid=?, "
                "claimed_at=? WHERE task_id=? AND status='pending'",
                (os.getpid(), time.time(), task_id),
            )
            return cur.rowcount == 1
        claimed = self._with_retry(txn)
        if claimed:
            self._claimed.add(task_id)
        if claimed and self.chaos is not None:
            # May SIGKILL: the crash-between-claim-and-commit scenario.
            self.chaos.claim_fault(task_id)
        return claimed

    def release(self) -> None:
        """Give back every claim this *instance* still holds (clean
        shutdown; a SIGKILLed runner's claims go stale instead and are
        re-queued on the next open).  Scoped to the instance's own
        claims — not the whole PID — because the job service runs many
        campaigns, each with its own backend instance, in one process."""
        conn = self._connection()
        pending = sorted(self._claimed)
        self._claimed.clear()

        def txn() -> None:
            conn.execute("BEGIN IMMEDIATE")
            for task_id in pending:
                conn.execute(
                    "UPDATE tasks SET status='pending', owner_pid=NULL, "
                    "claimed_at=NULL WHERE task_id=? AND status='claimed' "
                    "AND owner_pid=?",
                    (task_id, os.getpid()),
                )
            conn.execute("COMMIT")

        if pending:
            self._with_retry(txn)

    def _claim_is_stale(self, pid, claimed_at) -> bool:
        """A claim is stale when its owner is provably dead, or — where
        PID liveness cannot be probed — when its lease expired."""
        if pid is None:
            return True
        alive = _pid_alive(int(pid))
        if alive is not None:
            return not alive
        age = time.time() - (claimed_at or 0.0)
        return age > _CLAIM_LEASE_S

    def _requeue_stale(self, task_ids: set[str] | None = None) -> int:
        """Re-queue claims whose owners died (crash between claim and
        commit leaves exactly this state behind)."""
        conn = self._connection()
        rows = conn.execute(
            "SELECT task_id, owner_pid, claimed_at FROM tasks "
            "WHERE status='claimed'"
        ).fetchall()
        requeued = 0
        for task_id, pid, claimed_at in rows:
            if task_ids is not None and task_id not in task_ids:
                continue
            if not self._claim_is_stale(pid, claimed_at):
                continue
            def txn(task_id=task_id, pid=pid):
                cur = conn.execute(
                    "UPDATE tasks SET status='pending', owner_pid=NULL, "
                    "claimed_at=NULL WHERE task_id=? AND status='claimed' "
                    "AND owner_pid IS ?",
                    (task_id, pid),
                )
                return cur.rowcount
            requeued += self._with_retry(txn)
        return requeued

    # -- writing -----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Insert the result row and mark its task done in one
        transaction — the claim → commit step is atomic, so a kill
        anywhere inside leaves either both effects or neither."""
        record["backend"] = self.name
        record["store_schema"] = self.STORE_SCHEMA
        task_id = record.get("task_id", "")
        status = record.get("status", "")
        text = json.dumps(record, sort_keys=True, ensure_ascii=False)
        checksum = _checksum(text)
        conn = self._connection()

        def txn() -> None:
            kind = (
                self.chaos.append_fault(task_id)
                if self.chaos is not None
                else "ok"
            )
            if kind == "enospc":
                raise OSError(
                    errno.ENOSPC, "injected ENOSPC before the transaction"
                )
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "INSERT INTO results (task_id, status, record, checksum)"
                    " VALUES (?, ?, ?, ?)",
                    (task_id, status, text, checksum),
                )
                if kind == "kill":
                    # Die inside the transaction: WAL journal recovery
                    # must erase the uncommitted row on the next open.
                    from repro.campaign.chaos import _kill_self

                    _kill_self()
                conn.execute(
                    "INSERT INTO tasks (task_id, status) VALUES (?, 'done') "
                    "ON CONFLICT(task_id) DO UPDATE SET status='done', "
                    "owner_pid=NULL, claimed_at=NULL",
                    (task_id,),
                )
                conn.execute("COMMIT")
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise

        self._with_retry(txn)
        self._claimed.discard(task_id)  # resolved with the result row

    # -- job records -------------------------------------------------------

    def put_job(self, job_id: str, payload: dict) -> None:
        """Write (or overwrite) the job service's record of one job.  An
        overwrite keeps the row's ``rowid``, which :meth:`jobs` orders
        ties by, so it stays in submit order."""
        conn = self._connection()
        text = json.dumps(payload, sort_keys=True)
        self._with_retry(lambda: conn.execute(
            "INSERT INTO jobs (id, payload) VALUES (?, ?) "
            "ON CONFLICT(id) DO UPDATE SET payload = excluded.payload",
            (job_id, text),
        ))

    def job(self, job_id: str) -> str | None:
        """One job's record as payload JSON text, or ``None``."""
        row = self._connection().execute(
            "SELECT payload FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return None if row is None else row[0]

    def jobs(self, states: Iterable[str]) -> list[tuple[str, str]]:
        """The job records in one of ``states``, found through
        ``idx_jobs_state``, as ``(id, payload JSON text)`` in submit
        order.  A payload that is not JSON has no state."""
        states = tuple(states)
        return self._connection().execute(
            f"SELECT id, payload FROM jobs WHERE {_JOB_STATE} IN "
            f"({', '.join('?' * len(states))}) "
            "ORDER BY json_extract(payload, '$.submitted_at'), rowid",
            states,
        ).fetchall()

    # -- reading -----------------------------------------------------------

    def latest(
        self, task_ids: Iterable[str] | None = None
    ) -> dict[str, dict]:
        """task_id -> most recent record (reruns supersede old rows),
        over the whole store or only over ``task_ids``.

        A row that fails its checksum or JSON check is left out, moved
        to quarantine and its task re-queued, so a resume recomputes the
        cell; a ``read_only`` backend only skips it."""
        good, corrupt = _checked(_rows(self._connection(), task_ids))
        if corrupt and not self.read_only:
            self._quarantine(corrupt)
        return dict(good)

    # -- integrity ---------------------------------------------------------

    def _quarantine(self, corrupt: list[tuple]) -> None:
        """Move ``corrupt`` rows (as :func:`_checked` lists them) to the
        quarantine table and re-queue their tasks, in one transaction.
        A row another reader already moved is skipped, so a racing
        reader neither duplicates the evidence nor re-queues a task
        that has been claimed since."""
        conn = self._connection()

        def txn() -> None:
            conn.execute("BEGIN IMMEDIATE")
            for seq, task_id, text, checksum, reason in corrupt:
                if not conn.execute(
                    "DELETE FROM results WHERE seq = ?", (seq,)
                ).rowcount:
                    continue
                conn.execute(
                    "INSERT INTO quarantine (seq, task_id, record, "
                    "checksum, reason, quarantined_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (seq, task_id, text, checksum, reason, time.time()),
                )
                # Re-queue the damaged cell so resume recomputes it.
                conn.execute(
                    "INSERT INTO tasks (task_id, status) "
                    "VALUES (?, 'pending') ON CONFLICT(task_id) DO "
                    "UPDATE SET status='pending', owner_pid=NULL, "
                    "claimed_at=NULL",
                    (task_id,),
                )
            conn.execute("COMMIT")

        self._with_retry(txn)

    def verify(self, repair: bool = False) -> dict:
        """Checksum/claim/quarantine census.

        Every result row's CRC-32 and JSON are recomputed; with
        ``repair=True`` failing rows move to the quarantine table and
        their tasks are re-queued (then a resume recomputes exactly
        those cells).  ``ok`` means: no corrupt rows remain, and every
        quarantined task has since been recomputed to an ``ok`` record
        (quarantine evidence alone does not fail a healthy store).
        """
        conn = self._connection()
        rows = _rows(conn, None)
        good, corrupt = _checked(rows)
        latest = dict(good)
        if repair and corrupt:
            self._quarantine(corrupt)
        task_counts = dict(
            conn.execute(
                "SELECT status, COUNT(*) FROM tasks GROUP BY status"
            ).fetchall()
        )
        stale = sum(
            1
            for _tid, pid, ts in conn.execute(
                "SELECT task_id, owner_pid, claimed_at FROM tasks "
                "WHERE status='claimed'"
            ).fetchall()
            if self._claim_is_stale(pid, ts)
        )
        quarantined_tasks = {
            task_id
            for (task_id,) in conn.execute(
                "SELECT DISTINCT task_id FROM quarantine"
            ).fetchall()
            if task_id
        }
        unresolved = sorted(
            task_id
            for task_id in quarantined_tasks
            if latest.get(task_id, {}).get("status") != "ok"
        )
        n_quarantined = conn.execute(
            "SELECT COUNT(*) FROM quarantine"
        ).fetchone()[0]
        report = {
            "backend": self.name,
            "path": str(self.path),
            "store_schema": int(self._meta("store_schema")),
            "ok": not corrupt and not unresolved,
            "n_records": len(rows) - (len(corrupt) if repair else 0),
            "n_tasks_ok": sum(
                1 for r in latest.values() if r.get("status") == "ok"
            ),
            "n_corrupt": len(corrupt),
            "n_quarantined": n_quarantined,
            "n_stale_claims": stale,
            "tasks": {k: task_counts[k] for k in sorted(task_counts)},
            "problems": [],
        }
        for _seq, task_id, _text, _sum, reason in corrupt:
            verb = "quarantined + re-queued" if repair else "found"
            report["problems"].append(f"{verb} {task_id or '?'}: {reason}")
        for task_id in unresolved:
            report["problems"].append(
                f"quarantined {task_id} not yet recomputed "
                "(resume the campaign)"
            )
        return report


def migrate_jsonl_to_sqlite(
    src: str | Path, dst: str | Path, *, fsync: bool = False
) -> int:
    """One-way import of a JSONL store into a fresh sqlite store (the
    source file is left untouched).

    Reads the one-record-per-line format of older checkouts and of
    ``repro campaign export``.  A torn final line — a writer killed
    mid-record, possibly inside a multi-byte UTF-8 sequence, hence the
    per-line decoding — is dropped; a corrupt line anywhere else
    (including a newline-terminated last line) means the file was
    edited, not killed, and raises :class:`ValueError` naming the line
    before the destination is created.

    Record order and full history are preserved — every line becomes a
    result row, re-stamped with the sqlite provenance, its task marked
    ``done`` — so resume, ``latest`` and table rendering behave
    identically on the imported store.  Returns the number of records
    imported.
    """
    src, dst = Path(src), Path(dst)
    if dst.exists():
        raise FileExistsError(
            f"{dst}: refusing to migrate onto an existing file "
            "(migration is one-way, into a fresh store)"
        )
    # The last piece is b"" when the file ends with its terminator, and
    # otherwise the unterminated tail a killed writer left behind.
    lines = src.read_bytes().split(b"\n")
    records: list[dict] = []
    for number, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            if number == len(lines):
                break
            raise ValueError(
                f"{src}: corrupt record on line {number}"
            ) from None
    backend = SqliteBackend(dst, fsync=fsync).open()
    try:
        for record in records:
            backend.append(dict(record))
        conn = backend._connection()
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("migrated_from", str(src)),
        )
    finally:
        backend.close()
    return len(records)
