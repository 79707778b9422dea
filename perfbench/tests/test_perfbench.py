"""Self-tests for the benchmark (not part of the program's test suite).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def pinned():
    return workloads.load_pinned()


def _fresh_store(tmp_path):
    from repro.campaign import open_store

    return {"store": open_store(tmp_path / "store.sqlite", "sqlite")}


def test_wrappers_bind_every_import_site_and_restore():
    import repro.atpg.podem as podem
    import repro.campaign.tasks as tasks
    from repro.campaign.backends.sqlite import SqliteBackend
    from repro.faults.logic import StuckAtUniverse

    originals = (
        podem.run_stuck_at_atpg, tasks.run_stuck_at_atpg,
        SqliteBackend.__dict__["append"], StuckAtUniverse.__dict__["collapse"],
    )
    assert originals[0] is originals[1]
    with Tracer():
        assert podem.run_stuck_at_atpg is not originals[0]
        assert tasks.run_stuck_at_atpg is podem.run_stuck_at_atpg
        assert SqliteBackend.__dict__["append"] is not originals[2]
        assert StuckAtUniverse.__dict__["collapse"] is not originals[3]
    assert (
        podem.run_stuck_at_atpg, tasks.run_stuck_at_atpg,
        SqliteBackend.__dict__["append"], StuckAtUniverse.__dict__["collapse"],
    ) == originals


def test_self_time_excludes_children():
    from repro.campaign import expand_grid, run_campaign

    with Tracer() as tracer:
        run_campaign(expand_grid(["c17"], ["stuck_at"]))
    stats = tracer.layer_stats()
    runner = stats["runner.fault_class"]
    assert runner["calls"] == 1
    assert 0.0 <= runner["self_s"] < runner["busy_s"]
    assert stats["podem"]["calls"] >= 1
    assert tracer.counts["faults.collapse.faults_out"] > 0


def test_traced_and_untraced_outputs_identical(tmp_path, pinned):
    inputs = {"podem_faults": workloads.podem_sample(
        7, pinned["podem_strata"], size=16
    )}

    def corpus(ctx):
        return workloads.corpus_pass(ctx, inputs, circuits=("c17", "rca4"))

    def grid(ctx):
        return workloads.paper_grid_pass(ctx, {}, circuits=("c17",))

    for index, one_pass in enumerate((corpus, grid)):
        plain = one_pass(_fresh_store(tmp_path / f"plain{index}"))
        with Tracer():
            traced = one_pass(_fresh_store(tmp_path / f"traced{index}"))
        assert traced["outputs"] == plain["outputs"]


def test_corrupted_pinned_value_counts_as_failed(tmp_path, pinned):
    result = workloads.paper_grid_pass(
        _fresh_store(tmp_path), {}, circuits=("c17",)
    )
    assert workloads.check_outputs("paper_grid", result["outputs"], pinned) == {}
    corrupted = copy.deepcopy(pinned)
    corrupted["paper_grid"]["c17/stuck_at/compiled"]["coverage"] = 0.5
    measured = {"plain": [result], "traced": [], "pre": []}
    ops = run.check_passes("paper_grid", measured, corrupted)
    failed = [op for op in ops if not op["ok"]]
    assert [op["id"] for op in failed] == ["c17/stuck_at/compiled"]
    assert failed[0]["mismatch"]
    assert report.ratio(len(failed), len(ops)) == pytest.approx(1 / 4)


@pytest.mark.parametrize("workload, op_id, mismatch", [
    ("paper_grid", "c17/iddq/compiled", True),
    ("service_jobs", "job:0/3", True),
    ("service_jobs", "http:status", True),
    ("cell_screen", "NAND2/0", True),
    ("cell_screen", "NAND2/10", False),  # pinned as non-converging
])
def test_failed_ops_fail_the_output_check_unless_pinned(
    pinned, workload, op_id, mismatch
):
    failed = {"id": op_id, "seconds": 0.0, "ok": False, "reason": "failed"}
    measured = {"plain": [{"ops": [failed], "outputs": {}}], "traced": [],
                "pre": []}
    [op] = run.check_passes(workload, measured, pinned)
    assert op["mismatch"] is mismatch


def test_service_traced_and_untraced_outputs_identical(tmp_path, pinned):
    sequences = [
        [{"circuits": ["c17"], "fault_classes": ["stuck_at", "iddq"]}],
        [{"circuits": ["eq4"], "fault_classes": ["fault_sim"]}],
    ]
    for name in ("plain", "traced"):
        (tmp_path / name).mkdir()
    plain = service.server_pass(ROOT, tmp_path / "plain", sequences)
    traced = service.server_pass(
        ROOT, tmp_path / "traced", sequences, trace=True
    )
    for result in (plain, traced):
        assert [op for op in result["ops"] if not op["ok"]] == []
    assert sorted(plain["outputs"]) == ["job:0/0", "job:1/0", "prime"]
    assert traced["outputs"] == plain["outputs"]
    assert traced["layers"]["jobs.submit"]["calls"] == 3  # prime + 2
    assert traced["import_s"] > 0
    assert workloads.check_outputs(
        "service_jobs", plain["outputs"], pinned
    ) == {}
    corrupted = copy.deepcopy(pinned)
    corrupted["service_fault_sim"]["eq4/fault_sim/compiled"]["n_vectors"] += 1
    assert list(workloads.check_outputs(
        "service_jobs", plain["outputs"], corrupted
    )) == ["job:1/0"]


def test_seeded_inputs_repeat_and_differ(pinned):
    strata = pinned["podem_strata"]
    first = workloads.podem_sample(1, strata)
    assert first == workloads.podem_sample(1, strata)
    assert first != workloads.podem_sample(2, strata)
    assert len(first) == workloads.PODEM_SAMPLE
    hard = set(strata["aborted"])
    assert (sum(n in hard for n in first)
            == sum(n in hard for n in workloads.podem_sample(2, strata)))
    jobs = workloads.job_sequences(1)
    assert jobs == workloads.job_sequences(1) != workloads.job_sequences(2)
    assert [len(seq) for seq in jobs] == [workloads.JOBS_PER_CLIENT] * 2


def test_metric_names_and_benchmark_json_agree():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in declared["end_to_end"]]
    assert e2e == [tuple(row) for row in report.END_TO_END]
    layers = [(m["name"], m["unit"], m["better"])
              for m in declared["per_layer"]]
    assert layers == [row[:3] for row in report.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS
    )
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_traced_metrics_cover_the_catalogue(tmp_path):
    from repro.device.cache import model_cache_stats
    from repro.logic.compiled import compile_memo_stats

    memo0, device0 = compile_memo_stats(), model_cache_stats()
    with Tracer() as tracer:
        workloads.paper_grid_pass(_fresh_store(tmp_path), {}, circuits=("c17",))
    metrics = report.traced_layer_metrics({
        "layers": tracer.layer_stats(),
        "counts": tracer.counts,
        "memo": report.hit_counts(memo0, compile_memo_stats()),
        "device_cache": report.hit_counts(device0, model_cache_stats()),
    })
    catalogue = {name for name, *_ in report.PER_LAYER}
    assert set(metrics) <= catalogue
    assert {layer for _m, _a, layer, _o in TARGETS} == set(
        report.LAYER_MOVES
    )
