"""The benchmark's workloads: seeded inputs, one pass of work, output checks.

Input generation (:func:`podem_sample`, :func:`job_sequences`) is pure
Python over the pinned data and never imports the program, so the
program receives only generated inputs.  The pass functions import
``repro`` lazily; they run in a fresh worker process per pass (see
``worker.py``), which is what a user of ``python -m repro`` pays.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

WORKLOADS = ("corpus_scale", "paper_grid", "cell_screen", "service_jobs")

#: corpus_scale: the large-circuit engines.  Two combinational sizes,
#: the largest combinational circuit and the largest sequential one.
CORPUS_CIRCUITS = ("cpx432", "cpx880", "cpx1908", "sqx1488")
PODEM_CIRCUIT = "cpx432"
PODEM_SAMPLE = 256

#: cell_screen: every circuit fault of three cells, statically, plus
#: delay characterisation on fixed INV faults (a channel break whose
#: gate never switches, and a gate-oxide short that slows it).
SCREEN_CELLS = ("NAND2", "NOR2", "XOR2")
DELAY_CELL = "INV"
DELAY_FAULTS = (0, 2)
#: Relative tolerance on a pinned delay ratio (transient integration
#: may be rebatched; the detectability verdict must not move).
DELAY_RTOL = 0.01

#: paper_grid record keys that are pinned.  Test and vector counts are
#: left free: a better ATPG may change them, coverage must not.
PINNED_GRID_KEYS = (
    "n_faults", "coverage", "atpg_coverage", "n_untestable", "n_masked",
)


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def podem_sample(seed: int, strata: dict, size: int = PODEM_SAMPLE) -> list[str]:
    """Fault names for the PODEM phase, in collapse order.

    The sample is stratified by each fault's pinned PODEM outcome
    (aborted / untestable / the rest) in proportion to the class sizes.
    An aborted fault costs a full backtrack budget, so an unstratified
    sample's run time swings with how many it happens to draw; with
    strata every seed draws the same number of each.
    """
    order = strata["faults"]
    hard = {"aborted": set(strata["aborted"]),
            "untestable": set(strata["untestable"])}
    classes = {
        "aborted": [n for n in order if n in hard["aborted"]],
        "untestable": [n for n in order if n in hard["untestable"]],
    }
    classes["other"] = [
        n for n in order if n not in hard["aborted"]
        and n not in hard["untestable"]
    ]
    rng = random.Random(seed)
    chosen: set[str] = set()
    quotas = {
        name: round(size * len(members) / len(order))
        for name, members in classes.items()
    }
    quotas["other"] = size - quotas["aborted"] - quotas["untestable"]
    for name in ("aborted", "untestable", "other"):
        chosen.update(rng.sample(classes[name], quotas[name]))
    return [n for n in order if n in chosen]


#: service_jobs: each client owns three paper-grid circuits, so the two
#: clients never share a cell and every run does the same work.
CLIENT_CIRCUITS = (
    ("c17", "rca4", "parity8"),
    ("tmr_voter", "eq4", "alu_slice"),
)
JOBS_PER_CLIENT = 48
#: Read jobs: 2 circuits x 2 fault classes of already-stored cells.
READ_JOB_SHAPE = (2, 2)


def job_sequences(seed: int) -> list[list[dict]]:
    """Per-client job payloads for one pass.

    Each client submits one ``fault_sim`` job per circuit it owns (cells
    the warm-up did not compute, so they claim and commit: the write
    path) and fills the rest of its sequence with read jobs over stored
    paper-grid cells, in a seeded order.
    """
    from_classes = ("stuck_at", "polarity", "iddq", "stuck_open")
    sequences = []
    for index, circuits in enumerate(CLIENT_CIRCUITS):
        rng = random.Random(f"{seed}:{index}")
        n_circ, n_fc = READ_JOB_SHAPE
        jobs = []
        for _ in range(JOBS_PER_CLIENT - len(circuits)):
            picked = set(rng.sample(from_classes, n_fc))
            jobs.append({
                "circuits": sorted(rng.sample(circuits, n_circ)),
                "fault_classes": [fc for fc in from_classes if fc in picked],
            })
        for circuit in circuits:
            jobs.insert(
                rng.randrange(len(jobs) + 1),
                {"circuits": [circuit], "fault_classes": ["fault_sim"]},
            )
        sequences.append(jobs)
    return sequences


def make_inputs(workload: str, seed: int, pinned: dict) -> dict:
    if workload == "corpus_scale":
        return {"podem_faults": podem_sample(seed, pinned["podem_strata"])}
    if workload == "service_jobs":
        return {"jobs": job_sequences(seed)}
    return {}


# ---------------------------------------------------------------------------
# Worker side: set-up and one pass
# ---------------------------------------------------------------------------

def setup(workload: str, workdir: Path) -> dict:
    """Everything a workload needs before its first operation: the CLI
    import, the registry and a fresh store.  Returns the pass context."""
    import repro.campaign.cli  # noqa: F401  (the import every CLI call pays)

    ctx: dict = {}
    if workload in ("corpus_scale", "paper_grid"):
        from repro.campaign import get_registry, open_store

        get_registry()
        ctx["store"] = open_store(workdir / "store.sqlite", "sqlite")
    elif workload == "cell_screen":
        import repro.core.detection  # noqa: F401
    return ctx


def _op(op_id: str, seconds: float, ok: bool, reason: str = "") -> dict:
    return {"id": op_id, "seconds": seconds, "ok": ok, "reason": reason}


#: Operations are timed on this process's CPU clock: the workers run
#: single-threaded, and on a machine whose virtual CPUs are shared the
#: wall clock also counts the time the hypervisor gives to others.
clock = time.process_time


def timed_campaign(tasks, store) -> tuple[list[dict], dict]:
    """Run a grid inline; one op per cell, timed between the runner's
    per-cell progress lines (cells finish in grid order)."""
    from repro.campaign import run_campaign

    marks = [clock()]
    result = run_campaign(
        tasks, store=store, progress=lambda _line: marks.append(clock())
    )
    seconds = [b - a for a, b in zip(marks, marks[1:])]
    ops, outputs = [], {}
    for record, cpu in zip(result.records, seconds):
        ok = record.get("status") == "ok"
        ops.append(_op(
            record["task_id"], cpu, ok,
            "" if ok else record.get("error", record.get("status", "")),
        ))
        outputs[record["task_id"]] = record.get("metrics")
    if len(seconds) != len(tasks):
        ops.append(_op("campaign", 0.0, False,
                       f"{len(seconds)} of {len(tasks)} cells finished"))
    return ops, outputs


def fault_vector_pairs(metrics: dict) -> int:
    """(fault, vector) pairs one ``fault_sim`` cell simulates: the
    stuck-at sweep plus the polarity voltage and IDDQ sweeps."""
    return metrics["n_vectors"] * (
        metrics["n_stuck_at_faults"] + 2 * metrics["n_polarity_faults"]
    )


def corpus_pass(ctx: dict, inputs: dict, circuits=CORPUS_CIRCUITS) -> dict:
    from repro.atpg.podem import run_stuck_at_atpg
    from repro.campaign import expand_grid, get_registry
    from repro.faults import get_universe

    # expand_grid's default engine is the CLI's default ``--engine``.
    ops, outputs = timed_campaign(
        expand_grid(list(circuits), ["fault_sim"]), ctx["store"]
    )
    cells = [op for op in ops if op["ok"]]
    extra = {
        "fault_sim_s": sum(op["seconds"] for op in cells),
        "fault_vectors": sum(
            fault_vector_pairs(outputs[op["id"]]) for op in cells
        ),
    }

    start = clock()
    network = get_registry().load(PODEM_CIRCUIT)
    by_name = {f.name: f for f in get_universe("stuck_at").collapse(network)}
    missing = [n for n in inputs["podem_faults"] if n not in by_name]
    sample = [by_name[n] for n in inputs["podem_faults"] if n in by_name]
    podem_start = clock()
    atpg = run_stuck_at_atpg(network, sample)
    podem_s = clock() - podem_start
    outputs["podem"] = {
        "coverage": atpg.coverage,
        "targeted": len(sample),
        "tests": len(atpg.tests),
        "aborted": len(atpg.aborted),
        "untestable": len(atpg.untestable),
        "backtracks": atpg.total_backtracks,
    }
    ops.append(_op(
        "podem", clock() - start, not missing,
        f"sample faults not in the collapsed list: {missing[:3]}"
        if missing else "",
    ))
    extra.update({"podem_s": podem_s, "podem_resolved": len(sample)})
    return {"ops": ops, "outputs": outputs, "extra": extra}


def paper_grid_pass(ctx: dict, inputs: dict, circuits=None) -> dict:
    from repro.campaign import DEFAULT_FAULT_CLASSES, expand_grid
    from repro.campaign.tables import SECTION5_SUITE

    ops, outputs = timed_campaign(
        expand_grid(list(circuits or SECTION5_SUITE), DEFAULT_FAULT_CLASSES),
        ctx["store"],
    )
    return {"ops": ops, "outputs": outputs, "extra": {}}


def _screen_output(report) -> dict:
    ratio = report.delay_ratio
    return {
        "fault": report.fault_description,
        "output": [list(v) for v in report.output_vectors],
        "iddq": [list(v) for v in report.iddq_vectors],
        "delay_ratio": None if math.isnan(ratio) else (
            "inf" if math.isinf(ratio) else ratio
        ),
    }


def cell_screen_pass(ctx: dict, inputs: dict) -> dict:
    from repro.core.detection import screen_cell_faults
    from repro.faults import circuit_faults_for_cell
    from repro.gates.library import get_cell
    from repro.spice.mna import ConvergenceError

    ops, outputs, nonconverged = [], {}, []
    universes = {
        name: circuit_faults_for_cell(get_cell(name))
        for name in (*SCREEN_CELLS, DELAY_CELL)
    }
    jobs = [(name, i, False) for name in SCREEN_CELLS
            for i in range(len(universes[name]))]
    jobs += [(DELAY_CELL, i, True) for i in DELAY_FAULTS]
    for cell_name, index, delay in jobs:
        cell = get_cell(cell_name)
        faults = universes[cell_name]
        op_id = f"{cell_name}/{index}" + ("/delay" if delay else "")
        start = clock()
        try:
            report = screen_cell_faults(
                cell, [faults[index]], measure_delay=delay
            )[0]
        except ConvergenceError as exc:
            ops.append(_op(op_id, clock() - start, False,
                           f"ConvergenceError: {exc}"))
            outputs[op_id] = None
            nonconverged.append(op_id)
            continue
        ops.append(_op(op_id, clock() - start, True))
        outputs[op_id] = _screen_output(report)
    # SPICE (fault, input vector) pairs of the static screen.
    static = [op for op in ops if op["ok"] and not op["id"].endswith("/delay")]
    screened = sum(
        2 ** get_cell(op["id"].split("/")[0]).n_inputs for op in static
    )
    screen_s = sum(op["seconds"] for op in static)
    return {
        "ops": ops,
        "outputs": outputs,
        "extra": {"fault_vectors": screened, "fault_sim_s": screen_s},
        "nonconverged": nonconverged,
    }


PASSES = {
    "corpus_scale": corpus_pass,
    "paper_grid": paper_grid_pass,
    "cell_screen": cell_screen_pass,
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _delay_matches(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return abs(got - want) <= DELAY_RTOL * abs(want)
    return got == want


def expected_failure(workload: str, op_id: str, pinned: dict) -> bool:
    """Whether a failed op is one the pinned outputs expect to fail: a
    cell-screen fault pinned as non-converging, and nothing else."""
    return (workload == "cell_screen" and op_id in pinned["cell_screen"]
            and pinned["cell_screen"][op_id] is None)


def check_outputs(workload: str, outputs: dict, pinned: dict) -> dict[str, str]:
    """``{op id: reason}`` for every output that disagrees with the
    pinned values.  An op with no pinned value is a mismatch too, except
    a cell-screen fault pinned as non-converging that now converges
    (that is the robustness fix showing up, not a wrong answer)."""
    bad: dict[str, str] = {}
    if workload == "service_jobs":
        # outputs: {job op id: {task id: metrics}} of every finished job.
        for op_id, cells in outputs.items():
            fault_sim = {t: m for t, m in cells.items() if "/fault_sim/" in t}
            reasons = [
                f"{t}: fault_sim metrics differ from pinned"
                for t, got in sorted(fault_sim.items())
                if got != pinned["service_fault_sim"].get(t)
            ]
            grid = {t: m for t, m in cells.items() if t not in fault_sim}
            reasons += [
                f"{t}: {why}" for t, why in sorted(
                    check_grid_records(grid, pinned["paper_grid"]).items()
                )
            ]
            if reasons:
                bad[op_id] = "; ".join(reasons)
    if workload == "corpus_scale":
        want = pinned["corpus_fault_sim"]
        for op_id, got in outputs.items():
            if op_id == "podem":
                floor = pinned["podem_min_coverage"]
                if got["coverage"] < floor:
                    bad[op_id] = f"coverage {got['coverage']:.4f} < {floor}"
            elif got != want.get(op_id):
                bad[op_id] = "fault_sim metrics differ from pinned"
    elif workload == "paper_grid":
        bad.update(check_grid_records(outputs, pinned["paper_grid"]))
    elif workload == "cell_screen":
        want = pinned["cell_screen"]
        for op_id, got in outputs.items():
            if op_id not in want:
                bad[op_id] = "no pinned output"
                continue
            expected = want[op_id]
            if got is None or expected is None:
                continue  # failed op, or newly converging: not a mismatch
            for key in ("fault", "output", "iddq"):
                if got[key] != expected[key]:
                    bad[op_id] = f"{key} differs from pinned"
            if not _delay_matches(got["delay_ratio"], expected["delay_ratio"]):
                bad[op_id] = (f"delay ratio {got['delay_ratio']} vs "
                              f"pinned {expected['delay_ratio']}")
    return bad


def check_grid_records(metrics_by_task: dict, want: dict) -> dict[str, str]:
    """Pinned coverage / untestable keys of paper-grid style cells."""
    bad = {}
    for task_id, got in metrics_by_task.items():
        expected = want.get(task_id)
        if expected is None or got is None:
            bad[task_id] = "no pinned output" if got else "no metrics"
            continue
        for key, value in expected.items():
            if got.get(key) != value:
                bad[task_id] = f"{key}={got.get(key)!r}, pinned {value!r}"
    return bad
