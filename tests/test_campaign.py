"""Tests for the campaign subsystem (registry, runner, store, tables, CLI).

The three ISSUE-mandated behaviours are covered explicitly:

* bench-format round-trip through the registry,
* resume-from-checkpoint: a store truncated mid-record (the kill
  signature) reruns only the missing tasks and converges to the same
  final store as an uninterrupted run,
* report-table rendering from a canned store.
"""

import json
import os
import signal
import time

import pytest

from repro.campaign.registry import Registry, get_registry, size_class
from repro.campaign.runner import (
    FALLBACK_CHAINS,
    TaskSpec,
    execute_task,
    expand_grid,
    run_campaign,
)
from repro.campaign.store import (
    ResultStore,
    StoreLockedError,
    stores_equal,
    strip_volatile,
)
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
        store_path = tmp_path / "campaign.jsonl"

        # Simulate a kill after two finished tasks, mid-write of the
        # third: two intact records plus a torn trailing line.
        lines = [
            json.dumps(record, sort_keys=True)
            for record in reference_records
        ]
        store_path.write_text(
            lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2]
        )

        result = run_campaign(grid, store=store_path)
        assert result.n_skipped == 2
        assert result.n_run == 2
        final = list(ResultStore(store_path).latest().values())
        assert stores_equal(final, reference_records)
        # The records handed back are in grid order and complete.
        assert [r["task_id"] for r in result.records] == [
            t.task_id for t in grid
        ]

    def test_resume_disabled_recomputes_everything(self, tmp_path):
        grid = expand_grid(["c17"], ["stuck_at"])
        store_path = tmp_path / "campaign.jsonl"
        run_campaign(grid, store=store_path)
        result = run_campaign(grid, store=store_path, resume=False)
        assert result.n_run == 1
        assert len(ResultStore(store_path).load()) == 2  # appended rerun
        assert len(ResultStore(store_path).latest()) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        store_path.write_text('{"task_id": "a"}\nnot json\n{"task_id": "b"}\n')
        with pytest.raises(ValueError, match="corrupt record"):
            ResultStore(store_path).load()

    def test_terminated_corrupt_final_line_raises(self, tmp_path):
        # A newline-terminated corrupt line is an edit, not a kill —
        # only an unterminated tail is silently dropped.
        store_path = tmp_path / "campaign.jsonl"
        store_path.write_text('{"task_id": "a"}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt record"):
            ResultStore(store_path).load()


class TestRunnerDeterminism:
    def test_one_worker_and_two_workers_identical_store(
        self, tmp_path, reference_records
    ):
        grid = expand_grid(GRID_CIRCUITS, GRID_CLASSES)
        parallel = run_campaign(
            grid, store=tmp_path / "w2.jsonl", workers=2
        )
        assert stores_equal(parallel.records, reference_records)
        stored = ResultStore(tmp_path / "w2.jsonl").load()
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
    ISCAS-class corpus; resume after a torn-tail kill and any worker
    count must still reproduce a bit-identical JSONL store, exactly as
    the single-word cells promise.
    """

    GRID = (("c17", "cpx432"), ("fault_sim",))

    @pytest.fixture(scope="class")
    def mw_reference(self):
        grid = expand_grid(*self.GRID, engine="auto")
        result = run_campaign(grid)
        assert all(r["status"] == "ok" for r in result.records)
        # cpx432 is big enough that the auto selector picks the
        # multi-word engine for the whole fault population.
        by_circuit = {r["circuit"]: r["metrics"] for r in result.records}
        assert by_circuit["cpx432"]["n_stuck_at_faults"] > 2000
        return result.records

    def test_kill_and_resume_bit_identical(self, tmp_path, mw_reference):
        grid = expand_grid(*self.GRID, engine="auto")
        store_path = tmp_path / "mw.jsonl"
        lines = [json.dumps(r, sort_keys=True) for r in mw_reference]
        # Kill signature: first record intact, second torn mid-write.
        store_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        result = run_campaign(grid, store=store_path)
        assert result.n_skipped == 1
        assert result.n_run == 1
        final = list(ResultStore(store_path).latest().values())
        assert stores_equal(final, mw_reference)

    def test_worker_count_invariant(self, tmp_path, mw_reference):
        grid = expand_grid(*self.GRID, engine="auto")
        parallel = run_campaign(
            grid, store=tmp_path / "mw2.jsonl", workers=2
        )
        assert stores_equal(parallel.records, mw_reference)
        stored = ResultStore(tmp_path / "mw2.jsonl").load()
        assert stores_equal(stored, mw_reference)

    def test_fault_sim_metrics_shape(self):
        metrics = run_fault_class(
            get_registry().load("cpx432"), "fault_sim", engine="auto"
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

    def test_fault_sim_cell_ignores_the_podem_engine(self):
        # The grid's engine column selects the PODEM engine; fault_sim
        # cells run no PODEM and must succeed, with identical metrics,
        # under every engine a grid may name.
        metrics = {}
        for engine in FALLBACK_CHAINS:
            record = execute_task(
                expand_grid(["c17"], ["fault_sim"], engine=engine)[0]
            )
            assert record["status"] == "ok", record.get("error")
            assert record["engine_used"] == engine
            metrics[engine] = record["metrics"]
        distinct = {json.dumps(m, sort_keys=True) for m in metrics.values()}
        assert len(distinct) == 1

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
    combinational cells — resume after a torn-tail kill and any worker
    count reproduce the reference records exactly.
    """

    GRID = (("s27", "sqx344"), ("fault_sim",))

    @pytest.fixture(scope="class")
    def seq_reference(self):
        grid = expand_grid(*self.GRID, engine="auto")
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
        grid = expand_grid(*self.GRID, engine="auto")
        store_path = tmp_path / "seq.jsonl"
        lines = [json.dumps(r, sort_keys=True) for r in seq_reference]
        # Kill signature: first record intact, second torn mid-write.
        store_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        result = run_campaign(grid, store=store_path)
        assert result.n_skipped == 1
        assert result.n_run == 1
        final = list(ResultStore(store_path).latest().values())
        assert stores_equal(final, seq_reference)

    def test_worker_count_invariant(self, tmp_path, seq_reference):
        grid = expand_grid(*self.GRID, engine="auto")
        parallel = run_campaign(
            grid, store=tmp_path / "seq2.jsonl", workers=2
        )
        assert stores_equal(parallel.records, seq_reference)
        stored = ResultStore(tmp_path / "seq2.jsonl").load()
        assert stores_equal(stored, seq_reference)

    def test_s27_fault_sim_full_stuck_at_coverage(self):
        # 256 random 3-cycle sequences from reset detect every
        # collapsed stuck-at fault of the real s27.
        metrics = run_fault_class(
            get_registry().load("s27"), "fault_sim", engine="auto"
        )
        assert metrics["stuck_at_coverage"] == 1.0
        assert metrics["n_frames"] == 3

    def test_sequential_tag_selects_corpus(self):
        names = get_registry().names(tags={"sequential"})
        assert {"s27", "sqx344", "sqx1488"} <= set(names)


class TestRunnerFailureModes:
    def test_task_error_becomes_record_not_crash(self):
        def boom(_network, _engine):
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

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_per_task_timeout(self):
        def sleepy(_network, _engine):
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
        store_path = tmp_path / "campaign.jsonl"
        ResultStore(store_path).append(
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
        store = ResultStore(tmp_path / "canned.jsonl")
        for record in CANNED_RECORDS:
            store.append(record)
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

        store = str(tmp_path / "cli.jsonl")
        assert main(
            ["run", "--circuits", "c17", "--fault-classes", "stuck_at",
             "--store", store, "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--store", store, "--table", "coverage"]) == 0
        assert "c17" in capsys.readouterr().out

    def test_run_requires_circuit_selection(self, tmp_path):
        from repro.campaign.cli import main

        assert main(["run", "--store", str(tmp_path / "x.jsonl")]) == 2

    def test_report_on_missing_store(self, tmp_path):
        from repro.campaign.cli import main

        assert main(["report", "--store", str(tmp_path / "none.jsonl")]) == 1


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
             "--store", str(tmp_path / "s.jsonl")]
        )
        assert seen["workers"] == 1


class TestStoreHardening:
    def test_append_reuses_one_persistent_handle(self, tmp_path):
        """Regression: ``append`` used to reopen (and re-heal) the file
        per record; the store must hold one handle for its lifetime."""
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"task_id": "a", "status": "ok"})
        handle = store._handle
        store.append({"task_id": "b", "status": "ok"})
        assert store._handle is handle
        assert len(store.load()) == 2   # flushed per record, readable live
        store.close()

    def test_heal_then_append_stays_one_record_per_line(self, tmp_path):
        """Appending after torn-tail healing must not glue the new
        record onto the truncated remnant."""
        path = tmp_path / "s.jsonl"
        path.write_text('{"task_id": "a", "status": "ok"}\n{"task_id": "b')
        with ResultStore(path) as store:
            store.append({"task_id": "c", "status": "ok"})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["task_id"] for line in lines] == ["a", "c"]
        assert path.read_text().endswith("\n")

    def test_handle_reopens_after_close(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"task_id": "a", "status": "ok"})
        store.close()
        store.append({"task_id": "b", "status": "ok"})
        store.close()
        assert len(store.load()) == 2

    def test_fsync_append_round_trip(self, tmp_path):
        with ResultStore(tmp_path / "s.jsonl", fsync=True) as store:
            store.append({"task_id": "a", "status": "ok"})
            store.append({"task_id": "b", "status": "ok"})
        assert len(ResultStore(tmp_path / "s.jsonl").load()) == 2

    def test_second_writer_fails_fast(self, tmp_path):
        pytest.importorskip("fcntl")
        first = ResultStore(tmp_path / "s.jsonl")
        first.append({"task_id": "a", "status": "ok"})
        second = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(StoreLockedError, match="locked by PID") as info:
            second.append({"task_id": "b", "status": "ok"})
        # Satellite: the error names the holding PID and a retry hint.
        assert info.value.pid == os.getpid()
        assert "retry" in str(info.value)
        # Readers are never blocked by the writer's lock.
        assert len(second.load()) == 1
        # Closing the first writer releases the lock.
        first.close()
        second.append({"task_id": "b", "status": "ok"})
        second.close()
        assert len(second.load()) == 2

    def test_lock_opt_out(self, tmp_path):
        first = ResultStore(tmp_path / "s.jsonl")
        first.append({"task_id": "a", "status": "ok"})
        unlocked = ResultStore(tmp_path / "s.jsonl", lock=False)
        unlocked.append({"task_id": "b", "status": "ok"})
        first.close()
        unlocked.close()

    def test_corrupt_line_error_names_the_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"task_id": "a"}\nnot json\n{"task_id": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            ResultStore(path).load()

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

        def boom(_network, _engine):
            raise RuntimeError("deliberate")

        TASK_RUNNERS["boom"] = boom
        try:
            code = main(
                ["run", "--circuits", "c17", "--fault-classes", "boom",
                 "--store", str(tmp_path / "f.jsonl")]
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

        def sleepy(_network, _engine):
            time.sleep(5.0)
            return {}

        TASK_RUNNERS["sleepy"] = sleepy
        try:
            code = main(
                ["run", "--circuits", "c17", "--fault-classes", "sleepy",
                 "--timeout", "0.2",
                 "--store", str(tmp_path / "t.jsonl")]
            )
        finally:
            del TASK_RUNNERS["sleepy"]
        assert code == 1
        out = capsys.readouterr().out
        assert "1 failed" in out

    def test_failed_store_still_resumable_by_next_run(self, tmp_path):
        from repro.campaign.cli import main

        calls = {"n": 0}

        def flaky(_network, _engine):
            calls["n"] += 1
            if calls["n"] <= 2:   # fail on both engines of the chain
                raise RuntimeError("first run fails")
            return {"ok": True}

        TASK_RUNNERS["flaky"] = flaky
        try:
            store = str(tmp_path / "r.jsonl")
            args = ["run", "--circuits", "c17", "--fault-classes", "flaky",
                    "--store", store]
            assert main(args) == 1
            assert main(args) == 0    # failed record rerun, now green
        finally:
            del TASK_RUNNERS["flaky"]
