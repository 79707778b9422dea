"""Tests for the campaign subsystem (registry, runner, store, tables, CLI).

The core behaviours are covered explicitly:

* bench-format round-trip through the registry,
* resume-from-checkpoint: a store left by a runner killed mid-commit
  reruns only the missing tasks and converges to the same final store
  as an uninterrupted run,
* report-table rendering from a canned store,
* the store CLI: read-only ``report``/``verify-store``/``export``, and
  refusal of files that are not sqlite stores.
"""

import json
import signal
import sqlite3
import time

import pytest

from repro.campaign.backends import (
    SqliteBackend,
    migrate_jsonl_to_sqlite,
    open_store,
)
from repro.campaign.registry import Registry, get_registry, size_class
from repro.campaign.runner import (
    TaskSpec,
    execute_task,
    expand_grid,
    run_campaign,
)
from repro.campaign.store import stores_equal, strip_volatile
from repro.campaign.tables import (
    coverage_table,
    escape_table,
    render_report,
    run_table,
)
from repro.campaign.tasks import TASK_RUNNERS, run_fault_class
from repro.circuits.generators import c17
from repro.logic.bench_format import write_bench

GRID_CIRCUITS = ("c17", "tmr_voter")
GRID_CLASSES = ("stuck_at", "polarity")

#: A PID no live process can have (above any kernel's pid_max).
DEAD_PID = 99999999


def _killed_store(path, committed, killed_task):
    """The store a runner SIGKILLed mid-commit leaves behind: the
    ``committed`` records, and ``killed_task`` still claimed by the dead
    process (WAL recovery erases its uncommitted row)."""
    with SqliteBackend(path).open() as store:
        store.register([r["task_id"] for r in committed] + [killed_task])
        for record in committed:
            assert store.claim(record["task_id"])
            store.append(dict(record))
    conn = sqlite3.connect(str(path))
    conn.execute(
        "UPDATE tasks SET status='claimed', owner_pid=?, claimed_at=0 "
        "WHERE task_id=?", (DEAD_PID, killed_task),
    )
    conn.commit(); conn.close()


def _stored(path, latest=True):
    """The latest record per task (or every row) of a store, read-only."""
    with open_store(path, read_only=True) as store:
        return list(store.latest().values()) if latest else store.load()


@pytest.fixture(scope="module")
def reference_records():
    """An uninterrupted in-memory run of the test grid."""
    result = run_campaign(expand_grid(GRID_CIRCUITS, GRID_CLASSES))
    assert all(r["status"] == "ok" for r in result.records)
    return result.records


class TestRegistry:
    def test_default_registry_covers_generated_suite(self):
        registry = get_registry()
        for name in ("c17", "rca4", "alu4", "parity8", "mul4"):
            assert name in registry

    def test_tag_selection(self):
        registry = get_registry()
        adders = registry.names(tags={"adder"})
        assert adders == ["rca16", "rca32", "rca4", "rca8"]
        assert "c17" in registry.names(tags={"tiny"})
        assert registry.names(tags={"adder", "tiny"}) == ["rca4"]

    def test_size_class_thresholds(self):
        assert size_class(1) == "tiny"
        assert size_class(10) == "small"
        assert size_class(100) == "medium"
        assert size_class(5000) == "large"

    def test_bench_round_trip_through_registry(self):
        text = write_bench(c17())
        registry = Registry()
        registry.register_bench_text("c17_ext", text, tags=("external",))
        network = registry.load("c17_ext")
        # Same structure: identical gate lines and identical stats.
        assert write_bench(network).splitlines()[1:] == text.splitlines()[1:]
        assert network.stats() == c17().stats()
        assert "external" in registry.spec("c17_ext").all_tags()
        assert registry.spec("c17_ext").bench_text == text

    def test_bench_file_registration(self, tmp_path):
        path = tmp_path / "ext17.bench"
        path.write_text(write_bench(c17()))
        registry = Registry()
        spec = registry.register_bench_file(path)
        assert spec.name == "ext17"
        assert registry.load("ext17").stats()["gates"] == 6

    def test_malformed_bench_rejected_at_registration(self):
        with pytest.raises(ValueError):
            Registry().register_bench_text("bad", "x = FROB(a, b)")

    def test_duplicate_and_unknown_names(self):
        registry = Registry()
        registry.register_bench_text("a", write_bench(c17()))
        with pytest.raises(ValueError):
            registry.register_bench_text("a", write_bench(c17()))
        with pytest.raises(KeyError):
            registry.spec("nope")

    def test_bench_circuit_runs_through_campaign(self, tmp_path):
        registry = Registry()
        registry.register_bench_text("c17_ext", write_bench(c17()))
        grid = expand_grid(["c17_ext"], ["stuck_at"], registry=registry)
        assert grid[0].bench_text is not None  # self-contained for workers
        record = execute_task(grid[0])
        assert record["status"] == "ok"
        assert record["metrics"]["coverage"] == 1.0


class TestTasks:
    def test_stuck_at_metrics_shape(self):
        metrics = run_fault_class(c17(), "stuck_at")
        assert metrics["coverage"] == 1.0
        assert metrics["n_vectors"] > 0
        assert metrics["backtracks"] >= 0

    def test_polarity_none_coverage_without_dp_gates(self):
        metrics = run_fault_class(c17(), "polarity")
        assert metrics["n_faults"] == 0
        assert metrics["coverage_by_stuck_at_set"] is None

    def test_unknown_fault_class(self):
        with pytest.raises(KeyError):
            run_fault_class(c17(), "frobnicate")


class TestRunnerResume:
    def test_interrupted_store_resumes_to_identical_final_store(
        self, tmp_path, reference_records
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        store_path = tmp_path / "campaign.sqlite"

        # Simulate a kill after two finished tasks, mid-commit of the
        # third: two committed records plus the third's orphaned claim.
        _killed_store(
            store_path, reference_records[:2], reference_records[2]["task_id"]
        )

        result = run_campaign(grid, store=store_path)
        assert result.n_skipped == 2
        assert result.n_run == 2
        assert stores_equal(_stored(store_path), reference_records)
        # The records handed back are in grid order and complete.
        assert [r["task_id"] for r in result.records] == [
            t.task_id for t in grid
        ]

    def test_resume_disabled_recomputes_everything(self, tmp_path):
        grid = expand_grid(["c17"], ["stuck_at"])
        store_path = tmp_path / "campaign.sqlite"
        run_campaign(grid, store=store_path)
        result = run_campaign(grid, store=store_path, resume=False)
        assert result.n_run == 1
        assert len(_stored(store_path, latest=False)) == 2  # appended rerun
        assert len(_stored(store_path)) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        # Importing a JSONL store that was edited mid-file fails before
        # the destination store is created.
        src, dst = tmp_path / "campaign.jsonl", tmp_path / "campaign.sqlite"
        src.write_text('{"task_id": "a"}\nnot json\n{"task_id": "b"}\n')
        with pytest.raises(ValueError, match="corrupt record"):
            migrate_jsonl_to_sqlite(src, dst)
        assert not dst.exists()

    def test_terminated_corrupt_final_line_raises(self, tmp_path):
        # A newline-terminated corrupt line is an edit, not a kill —
        # only an unterminated tail is silently dropped.
        src = tmp_path / "campaign.jsonl"
        src.write_text('{"task_id": "a"}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt record"):
            migrate_jsonl_to_sqlite(src, tmp_path / "campaign.sqlite")


class TestRunnerDeterminism:
    def test_one_worker_and_two_workers_identical_store(
        self, tmp_path, reference_records
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        parallel = run_campaign(
            grid, store=tmp_path / "w2.sqlite", workers=2
        )
        assert stores_equal(parallel.records, reference_records)
        stored = _stored(tmp_path / "w2.sqlite", latest=False)
        assert stores_equal(stored, reference_records)

    def test_strip_volatile_orders_and_drops_runtime(self):
        records = [
            {"task_id": "b", "runtime_s": 1.0, "x": 1},
            {"task_id": "a", "runtime_s": 2.0, "x": 2},
        ]
        stripped = strip_volatile(records)
        assert [r["task_id"] for r in stripped] == ["a", "b"]
        assert all("runtime_s" not in r for r in stripped)


class TestMultiwordResume:
    """Kill/restart determinism for multi-word campaign cells.

    The ``fault_sim`` task routes through the 2-D numpy engine on the
    ISCAS-class corpus; resume after a mid-commit kill and any worker
    count must still reproduce a bit-identical store, exactly as the
    single-word cells promise.
    """

    GRID = (("c17", "cpx432"), ("fault_sim",))

    @pytest.fixture(scope="class")
    def mw_reference(self):
        grid = expand_grid(*self.GRID)
        result = run_campaign(grid)
        assert all(r["status"] == "ok" for r in result.records)
        # cpx432 is big enough that the auto selector picks the
        # multi-word engine for the whole fault population.
        by_circuit = {r["circuit"]: r["metrics"] for r in result.records}
        assert by_circuit["cpx432"]["n_stuck_at_faults"] > 2000
        return result.records

    def test_kill_and_resume_bit_identical(self, tmp_path, mw_reference):
        grid = expand_grid(*self.GRID)
        store_path = tmp_path / "mw.sqlite"
        # Kill signature: first record committed, second claimed only.
        _killed_store(store_path, mw_reference[:1], mw_reference[1]["task_id"])
        result = run_campaign(grid, store=store_path)
        assert result.n_skipped == 1
        assert result.n_run == 1
        assert stores_equal(_stored(store_path), mw_reference)

    def test_worker_count_invariant(self, tmp_path, mw_reference):
        grid = expand_grid(*self.GRID)
        parallel = run_campaign(
            grid, store=tmp_path / "mw2.sqlite", workers=2
        )
        assert stores_equal(parallel.records, mw_reference)
        stored = _stored(tmp_path / "mw2.sqlite", latest=False)
        assert stores_equal(stored, mw_reference)

    def test_fault_sim_metrics_shape(self):
        metrics = run_fault_class(
            get_registry().load("cpx432"), "fault_sim"
        )
        assert metrics["n_vectors"] == 256
        assert 0.0 < metrics["stuck_at_coverage"] <= 1.0
        assert 0.0 < metrics["polarity_iddq_coverage"] <= 1.0

    def test_fault_sim_not_in_default_grid(self):
        from repro.campaign.tasks import DEFAULT_FAULT_CLASSES

        assert "fault_sim" in TASK_RUNNERS
        assert "fault_sim" not in DEFAULT_FAULT_CLASSES
        assert DEFAULT_FAULT_CLASSES == (
            "stuck_at", "polarity", "iddq", "stuck_open",
        )

    def test_corpus_cells_are_self_contained(self):
        # Corpus entries carry their bench text, so spawn-started
        # workers rebuild them without filesystem access.
        grid = expand_grid(["cpx432"], ["fault_sim"])
        assert grid[0].bench_text is not None


class TestSequentialResume:
    """Kill/restart determinism for sequential (DFF) campaign cells.

    ``fault_sim`` on a sequential corpus circuit time-frame expands the
    netlist and simulates per-cycle input sequences; the resulting
    store must carry the same bit-identical guarantees as the
    combinational cells — resume after a mid-commit kill and any worker
    count reproduce the reference records exactly.
    """

    GRID = (("s27", "sqx344"), ("fault_sim",))

    @pytest.fixture(scope="class")
    def seq_reference(self):
        grid = expand_grid(*self.GRID)
        result = run_campaign(grid)
        assert all(r["status"] == "ok" for r in result.records)
        by_circuit = {r["circuit"]: r["metrics"] for r in result.records}
        # Sequential cells report their unrolling alongside the shared
        # metrics; sqx344 is big enough for the multi-word engine.
        assert by_circuit["s27"]["n_frames"] == 3
        assert by_circuit["s27"]["n_flops"] == 3
        assert by_circuit["sqx344"]["n_stuck_at_faults"] > 1000
        return result.records

    def test_kill_and_resume_bit_identical(self, tmp_path, seq_reference):
        grid = expand_grid(*self.GRID)
        store_path = tmp_path / "seq.sqlite"
        # Kill signature: first record committed, second claimed only.
        _killed_store(
            store_path, seq_reference[:1], seq_reference[1]["task_id"]
        )
        result = run_campaign(grid, store=store_path)
        assert result.n_skipped == 1
        assert result.n_run == 1
        assert stores_equal(_stored(store_path), seq_reference)

    def test_worker_count_invariant(self, tmp_path, seq_reference):
        grid = expand_grid(*self.GRID)
        parallel = run_campaign(
            grid, store=tmp_path / "seq2.sqlite", workers=2
        )
        assert stores_equal(parallel.records, seq_reference)
        stored = _stored(tmp_path / "seq2.sqlite", latest=False)
        assert stores_equal(stored, seq_reference)

    def test_s27_fault_sim_full_stuck_at_coverage(self):
        # 256 random 3-cycle sequences from reset detect every
        # collapsed stuck-at fault of the real s27.
        metrics = run_fault_class(
            get_registry().load("s27"), "fault_sim"
        )
        assert metrics["stuck_at_coverage"] == 1.0
        assert metrics["n_frames"] == 3

    def test_sequential_tag_selects_corpus(self):
        names = get_registry().names(tags={"sequential"})
        assert {"s27", "sqx344", "sqx1488"} <= set(names)


class TestRunnerFailureModes:
    def test_task_error_becomes_record_not_crash(self):
        def boom(_network):
            raise RuntimeError("deliberate")

        TASK_RUNNERS["boom"] = boom
        try:
            grid = [
                TaskSpec("c17", "boom"),
                TaskSpec("c17", "stuck_at"),
            ]
            result = run_campaign(grid)
            assert result.n_failed == 1
            assert result.records[0]["status"] == "error"
            assert "deliberate" in result.records[0]["error"]
            assert result.records[1]["status"] == "ok"
        finally:
            del TASK_RUNNERS["boom"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permanent_error_is_one_plain_error_record(
        self, tmp_path, workers
    ):
        """A runner bug is reported, not retried on another engine: one
        call, one ``error`` record, no fallback provenance."""
        calls = tmp_path / "calls"

        def broken(_network):
            with calls.open("a") as handle:  # counts across workers
                handle.write("x")
            raise ValueError("kernel bug")

        TASK_RUNNERS["broken"] = broken
        try:
            result = run_campaign(
                [TaskSpec("c17", "broken")], workers=workers
            )
        finally:
            del TASK_RUNNERS["broken"]
        assert calls.read_text() == "x"
        [record] = result.records
        assert record["status"] == "error"
        assert record["transient"] is False
        assert record["error"] == "ValueError: kernel bug"
        assert record["task_id"] == "c17/broken/compiled"
        assert record["engine"] == "compiled"
        assert "failures" not in record
        assert "engine_used" not in record

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_per_task_timeout(self):
        def sleepy(_network):
            time.sleep(5.0)
            return {}

        TASK_RUNNERS["sleepy"] = sleepy
        try:
            start = time.perf_counter()
            record = execute_task(TaskSpec("c17", "sleepy"), timeout=0.2)
            assert record["status"] == "timeout"
            assert time.perf_counter() - start < 4.0
        finally:
            del TASK_RUNNERS["sleepy"]

    def test_failed_tasks_are_retried_on_resume(self, tmp_path):
        store_path = tmp_path / "campaign.sqlite"
        with SqliteBackend(store_path).open() as store:
            store.append(
                {
                    "task_id": "c17/stuck_at/compiled",
                    "circuit": "c17",
                    "fault_class": "stuck_at",
                    "engine": "compiled",
                    "status": "timeout",
                    "runtime_s": 0.0,
                }
            )
        result = run_campaign(
            expand_grid(["c17"], ["stuck_at"]), store=store_path
        )
        assert result.n_skipped == 0
        assert result.records[0]["status"] == "ok"


CANNED_RECORDS = [
    {
        "schema": 1, "task_id": "rca4/stuck_at/compiled",
        "circuit": "rca4", "fault_class": "stuck_at",
        "engine": "compiled", "status": "ok", "runtime_s": 0.5,
        "circuit_stats": {"gates": 8},
        "metrics": {"n_faults": 56, "n_vectors": 10, "coverage": 1.0,
                    "backtracks": 3},
    },
    {
        "schema": 1, "task_id": "rca4/polarity/compiled",
        "circuit": "rca4", "fault_class": "polarity",
        "engine": "compiled", "status": "ok", "runtime_s": 0.5,
        "circuit_stats": {"gates": 8},
        "metrics": {"n_faults": 128, "coverage_by_stuck_at_set": 0.0,
                    "n_escapes": 128, "atpg_coverage": 1.0,
                    "n_voltage_tests": 64, "n_iddq_tests": 64,
                    "n_untestable": 0},
    },
    {
        "schema": 1, "task_id": "rca4/stuck_open/compiled",
        "circuit": "rca4", "fault_class": "stuck_open",
        "engine": "compiled", "status": "ok", "runtime_s": 0.5,
        "circuit_stats": {"gates": 8},
        "metrics": {"n_faults": 64, "n_masked": 64, "n_tests": 0,
                    "n_dropped": 0, "n_untestable": 0, "coverage": 0.0},
    },
]


class TestTables:
    def test_coverage_table_from_canned_store(self, tmp_path):
        with SqliteBackend(tmp_path / "canned.sqlite").open() as store:
            for record in CANNED_RECORDS:
                store.append(dict(record))
            table = coverage_table(store.load())
        row = next(
            line for line in table.splitlines() if line.startswith("rca4")
        )
        assert "100%" in row     # stuck-at coverage
        assert "0%" in row       # polarity coverage by the classic set
        assert "128" in row      # polarity fault count

    def test_escape_table_rates(self):
        table = escape_table(CANNED_RECORDS)
        row = next(
            line for line in table.splitlines() if line.startswith("rca4")
        )
        assert "100%" in row     # escape rate and masked rate

    def test_run_table_lists_every_task(self):
        table = run_table(CANNED_RECORDS)
        for record in CANNED_RECORDS:
            assert record["task_id"] in table

    def test_render_report_sections(self):
        report = render_report(CANNED_RECORDS)
        assert "Task summary" in report
        assert "Coverage: classic stuck-at tests" in report
        assert "Escapes of the classic flow" in report
        assert render_report([]) == "no campaign records"

    def test_failed_records_excluded_from_coverage_rows(self):
        failed = dict(CANNED_RECORDS[0], status="error")
        table = coverage_table([failed])
        assert "rca4" not in table


class TestCoverageBridge:
    def test_experiment_atpg_coverage_through_campaign(self):
        from repro.analysis.atpg_experiments import experiment_atpg_coverage

        results, report = experiment_atpg_coverage(("c17", "tmr_voter"))
        assert [r.name for r in results] == ["c17", "tmr_voter"]
        c17_row = results[0]
        assert c17_row.stuck_at_coverage == 1.0
        assert c17_row.n_polarity == 0
        assert "c17" in report and "tmr_voter" in report


class TestCli:
    def test_list(self, capsys):
        from repro.campaign.cli import main

        assert main(["list", "--tag", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "fault classes:" in out

    def test_run_report_round_trip(self, tmp_path, capsys):
        from repro.campaign.cli import main

        store = str(tmp_path / "cli.sqlite")
        assert main(
            ["run", "--circuits", "c17", "--fault-classes", "stuck_at",
             "--store", store, "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--store", store, "--table", "coverage"]) == 0
        assert "c17" in capsys.readouterr().out

    def test_run_requires_circuit_selection(self, tmp_path):
        from repro.campaign.cli import main

        assert main(["run", "--store", str(tmp_path / "x.sqlite")]) == 2

    def test_report_on_missing_store(self, tmp_path):
        from repro.campaign.cli import main

        assert main(["report", "--store", str(tmp_path / "none.sqlite")]) == 1


def _table_rows(path):
    """Every row of the store's tables, read through plain sqlite."""
    conn = sqlite3.connect(str(path))
    try:
        return {
            table: conn.execute(f"SELECT * FROM {table}").fetchall()
            for table in ("results", "tasks", "quarantine")
        }
    finally:
        conn.close()


class TestStoreCli:
    """``report``/``export``/``verify-store`` never write to a store;
    only ``verify-store --repair`` does."""

    @pytest.fixture
    def tampered_store(self, tmp_path):
        """A c17 stuck_at+iddq store with one result row edited."""
        path = tmp_path / "c17.sqlite"
        run_campaign(expand_grid(["c17"], ["stuck_at", "iddq"]), store=path)
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE results SET record = replace(record, '\"ok\"', "
            "'\"OK\"') WHERE task_id = 'c17/iddq/compiled'"
        )
        conn.commit(); conn.close()
        return path

    def _verify(self, capsys, path, *extra):
        from repro.campaign.cli import main

        code = main(["campaign", "verify-store", "--store", str(path), *extra])
        fields = {}
        for line in capsys.readouterr().out.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        return code, fields

    def test_verify_store_without_repair_is_read_only(
        self, tampered_store, capsys
    ):
        before = _table_rows(tampered_store)
        assert len(before["results"]) == 2
        code, fields = self._verify(capsys, tampered_store)
        assert code == 1
        assert fields["n_corrupt"] == "1"
        assert fields["n_quarantined"] == "0"
        after = _table_rows(tampered_store)
        assert after["quarantine"] == []
        assert after == before

    def test_verify_store_repair_quarantines(self, tampered_store, capsys):
        code, fields = self._verify(capsys, tampered_store, "--repair")
        assert code == 1                 # quarantined cell not recomputed
        assert fields["n_quarantined"] == "1"
        rows = _table_rows(tampered_store)
        assert len(rows["results"]) == 1 and len(rows["quarantine"]) == 1

    def test_report_and_export_leave_the_store_untouched(
        self, tampered_store, capsys
    ):
        from repro.campaign.cli import main

        before = _table_rows(tampered_store)
        assert main(["report", "--store", str(tampered_store)]) == 0
        assert main(
            ["campaign", "export", "--store", str(tampered_store)]
        ) == 0
        capsys.readouterr()
        assert _table_rows(tampered_store) == before

    @pytest.mark.parametrize("command", [
        ["run", "--circuits", "c17", "--fault-classes", "stuck_at"],
        ["paper-tables", "--circuits", "c17", "--fault-classes", "stuck_at"],
        ["report"],
        ["campaign", "verify-store"],
        ["campaign", "export"],
    ])
    def test_non_sqlite_store_rejected(self, tmp_path, capsys, command):
        from repro.campaign.cli import main

        old = tmp_path / "old.jsonl"
        old.write_text(
            json.dumps({"task_id": "c17/stuck_at/compiled", "status": "ok"})
            + "\n"
        )
        data = old.read_bytes()
        assert main([*command, "--store", str(old)]) == 2
        assert "repro campaign migrate-store" in capsys.readouterr().err
        assert old.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]

    def test_store_written_before_engine_removal_still_reads(
        self, tmp_path, capsys
    ):
        """Records of the old shape — ``engine_used``, a ``failures``
        entry of kind ``engine``, a ``/legacy`` task id — still report,
        export and verify, and a new run recomputes only the
        ``/compiled`` cell the store lacks."""
        from repro.campaign.cli import main

        network = c17()
        path = tmp_path / "old.sqlite"
        old_records = [
            {
                "schema": 2, "task_id": "c17/stuck_at/compiled",
                "circuit": "c17", "fault_class": "stuck_at",
                "engine": "compiled", "engine_used": "legacy",
                "attempt": 1, "status": "ok", "runtime_s": 0.1,
                "circuit_stats": network.stats(),
                "metrics": run_fault_class(network, "stuck_at"),
                "failures": [{
                    "attempt": 1, "kind": "engine", "engine": "compiled",
                    "error": "RuntimeError: injected",
                }],
            },
            {
                "schema": 2, "task_id": "c17/polarity/legacy",
                "circuit": "c17", "fault_class": "polarity",
                "engine": "legacy", "engine_used": "legacy",
                "attempt": 1, "status": "ok", "runtime_s": 0.1,
                "circuit_stats": network.stats(),
                "metrics": run_fault_class(network, "polarity"),
            },
        ]
        with SqliteBackend(path).open() as store:
            store.register([r["task_id"] for r in old_records])
            for record in old_records:
                assert store.claim(record["task_id"])
                store.append(dict(record))

        assert main(["report", "--store", str(path)]) == 0
        assert main(["campaign", "export", "--store", str(path)]) == 0
        exported = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert [r["task_id"] for r in exported] == [
            "c17/polarity/legacy", "c17/stuck_at/compiled",
        ]
        assert exported[1]["engine_used"] == "legacy"
        code = main(["campaign", "verify-store", "--store", str(path)])
        assert code == 0, capsys.readouterr().out
        capsys.readouterr()

        assert main([
            "run", "--circuits", "c17",
            "--fault-classes", "stuck_at", "polarity", "--store", str(path),
        ]) == 0
        assert "(1 run, 1 resumed, 0 failed)" in capsys.readouterr().out
        latest = {r["task_id"]: r for r in _stored(path)}
        assert sorted(latest) == [
            "c17/polarity/compiled", "c17/polarity/legacy",
            "c17/stuck_at/compiled",
        ]
        assert "engine_used" not in latest["c17/polarity/compiled"]
        assert latest["c17/stuck_at/compiled"]["engine_used"] == "legacy"

    def test_export_of_missing_store_fails(self, tmp_path, capsys):
        from repro.campaign.cli import main

        path = tmp_path / "none.sqlite"
        assert main(["campaign", "export", "--store", str(path)]) == 1
        assert "no store" in capsys.readouterr().err
        assert not path.exists()

    def test_migrate_store_of_missing_source_fails(self, tmp_path):
        from repro.campaign.cli import main

        assert main(
            ["campaign", "migrate-store", "--store",
             str(tmp_path / "none.jsonl"), "--to", str(tmp_path / "x.sqlite")]
        ) == 1
        assert list(tmp_path.iterdir()) == []

    def _export(self, capsys, path) -> str:
        from repro.campaign.cli import main

        capsys.readouterr()
        assert main(["campaign", "export", "--store", str(path)]) == 0
        return capsys.readouterr().out

    def test_export_is_worker_count_invariant(self, tmp_path, capsys):
        from repro.campaign.cli import main

        exports = []
        for workers in ("1", "2"):
            path = tmp_path / f"smoke{workers}.sqlite"
            assert main(
                ["run", "--smoke", "--workers", workers, "--store", str(path)]
            ) == 0
            exports.append(self._export(capsys, path))
        assert exports[0] == exports[1]
        lines = exports[0].splitlines()
        assert len(lines) == 4                      # one line per cell
        records = [json.loads(line) for line in lines]
        assert records == strip_volatile(records)   # sorted, stripped

    def test_export_migrate_export_round_trip(self, tmp_path, capsys):
        from repro.campaign.cli import main

        store = tmp_path / "a.sqlite"
        run_campaign(expand_grid(["c17"], ["stuck_at", "polarity"]), store=store)
        first = self._export(capsys, store)
        exported = tmp_path / "a.jsonl"
        exported.write_text(first)
        imported = tmp_path / "b.sqlite"
        assert main(
            ["campaign", "migrate-store", "--store", str(exported),
             "--to", str(imported)]
        ) == 0
        assert self._export(capsys, imported) == first


class TestDocstringExamples:
    """The module-level examples in the campaign/analysis docstrings
    must actually run (the ISSUE's docstring-pass requirement)."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.campaign.registry",
            "repro.campaign.tasks",
            "repro.campaign.runner",
            "repro.analysis.atpg_experiments",
            "repro.analysis.experiments",
        ],
    )
    def test_module_doctests(self, module_name):
        import doctest
        import importlib

        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.attempted > 0, f"{module_name} lost its examples"
        assert result.failed == 0


class TestReviewRegressions:
    def test_custom_registry_generated_circuit_is_self_contained(self):
        """Grid cells from a custom registry must execute even though
        workers only share the default registry (serialised to bench)."""
        from repro.circuits.generators import ripple_carry_adder

        registry = Registry()
        registry.register_generated("my_rca", lambda: ripple_carry_adder(2))
        grid = expand_grid(["my_rca"], ["stuck_at"], registry=registry)
        assert grid[0].bench_text is not None
        record = execute_task(grid[0])
        assert record["status"] == "ok"
        assert record["metrics"]["coverage"] == 1.0

    def test_coverage_from_records_tolerates_partial_grid(self):
        from repro.analysis.atpg_experiments import coverage_from_records

        rows = coverage_from_records([CANNED_RECORDS[0]])  # stuck_at only
        assert rows[0].stuck_at_coverage == 1.0
        assert rows[0].n_polarity == 0
        assert rows[0].iddq_vectors == 0

    def test_smoke_respects_explicit_workers_one(self, tmp_path, monkeypatch):
        from repro.campaign import cli, runner

        seen = {}
        real = runner.run_campaign

        def spy(tasks, **kwargs):
            seen["workers"] = kwargs.get("workers")
            return real(tasks, **kwargs)

        monkeypatch.setattr(cli, "run_campaign", spy)
        cli.main(
            ["run", "--smoke", "--workers", "1",
             "--fault-classes", "stuck_at",
             "--store", str(tmp_path / "s.sqlite")]
        )
        assert seen["workers"] == 1


class TestStoreHardening:
    def test_append_reuses_one_persistent_handle(self, tmp_path):
        """The store holds one connection for its lifetime, and every
        append is committed as it returns (readable by other readers)."""
        with SqliteBackend(tmp_path / "s.sqlite").open() as store:
            store.append({"task_id": "a", "status": "ok"})
            handle = store._conn
            store.append({"task_id": "b", "status": "ok"})
            assert store._conn is handle
            assert len(_stored(tmp_path / "s.sqlite", latest=False)) == 2

    def test_handle_reopens_after_close(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        store.append({"task_id": "a", "status": "ok"})
        store.close()
        store.append({"task_id": "b", "status": "ok"})
        store.close()
        assert len(_stored(tmp_path / "s.sqlite", latest=False)) == 2

    def test_fsync_append_round_trip(self, tmp_path):
        with SqliteBackend(tmp_path / "s.sqlite", fsync=True).open() as store:
            # fsync=True means synchronous=FULL (machine-crash durable).
            assert store._conn.execute("PRAGMA synchronous").fetchone() == (2,)
            store.append({"task_id": "a", "status": "ok"})
            store.append({"task_id": "b", "status": "ok"})
        assert len(_stored(tmp_path / "s.sqlite", latest=False)) == 2

    def test_corrupt_line_error_names_the_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"task_id": "a"}\nnot json\n{"task_id": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            migrate_jsonl_to_sqlite(path, tmp_path / "s.sqlite")

    def test_strip_volatile_drops_retry_provenance(self):
        records = [
            {
                "task_id": "a", "runtime_s": 1.0, "attempt": 3,
                "failures": [{"kind": "transient"}], "status": "ok",
            },
            {"task_id": "a", "status": "ok"},
        ]
        stripped = strip_volatile(records)
        assert stripped[0] == stripped[1] == {"task_id": "a", "status": "ok"}


class TestCliExitCodes:
    """``python -m repro run`` must exit nonzero when any cell's final
    record is not ``ok`` (a green exit on a red campaign is how broken
    CI pipelines are born)."""

    def test_run_exits_nonzero_when_a_cell_errors(self, tmp_path, capsys):
        from repro.campaign.cli import main

        def boom(_network):
            raise RuntimeError("deliberate")

        TASK_RUNNERS["boom"] = boom
        try:
            code = main(
                ["run", "--circuits", "c17", "--fault-classes", "boom",
                 "--store", str(tmp_path / "f.sqlite")]
            )
        finally:
            del TASK_RUNNERS["boom"]
        assert code == 1
        assert "1 failed" in capsys.readouterr().out

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_run_exits_nonzero_when_a_cell_times_out(self, tmp_path, capsys):
        from repro.campaign.cli import main

        def sleepy(_network):
            time.sleep(5.0)
            return {}

        TASK_RUNNERS["sleepy"] = sleepy
        try:
            code = main(
                ["run", "--circuits", "c17", "--fault-classes", "sleepy",
                 "--timeout", "0.2",
                 "--store", str(tmp_path / "t.sqlite")]
            )
        finally:
            del TASK_RUNNERS["sleepy"]
        assert code == 1
        out = capsys.readouterr().out
        assert "1 failed" in out

    def test_failed_store_still_resumable_by_next_run(self, tmp_path):
        from repro.campaign.cli import main

        calls = {"n": 0}

        def flaky(_network):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first run fails")
            return {"ok": True}

        TASK_RUNNERS["flaky"] = flaky
        try:
            store = str(tmp_path / "r.sqlite")
            args = ["run", "--circuits", "c17", "--fault-classes", "flaky",
                    "--store", store]
            assert main(args) == 1
            assert main(args) == 0    # failed record rerun, now green
        finally:
            del TASK_RUNNERS["flaky"]
