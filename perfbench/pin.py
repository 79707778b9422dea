"""Regenerate ``pinned.json``: the outputs the benchmark checks against.

    python3 perfbench/pin.py

Run it only when a change is meant to alter a pinned output, and say
so in the change.  It takes a few minutes: the PODEM strata need one
search per collapsed fault of the PODEM circuit.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def podem_strata(circuit: str) -> dict:
    """Each collapsed fault's outcome as a lone PODEM target."""
    from repro.atpg.podem import generate_test
    from repro.campaign import get_registry
    from repro.faults import get_universe

    network = get_registry().load(circuit)
    faults = get_universe("stuck_at").collapse(network)
    aborted, untestable = [], []
    for fault in faults:
        result = generate_test(network, fault)
        if not result.success:
            (aborted if result.aborted else untestable).append(fault.name)
    return {
        "circuit": circuit,
        "faults": [f.name for f in faults],
        "aborted": aborted,
        "untestable": untestable,
    }


def main() -> int:
    from repro.campaign import open_store

    work = HERE / "out" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pinned: dict = {"podem_strata": podem_strata(workloads.PODEM_CIRCUIT)}
    strata = pinned["podem_strata"]
    # A fault that PODEM resolves alone is resolved in the sample too
    # (or dropped as detected), so coverage can only miss the hard ones.
    sample = workloads.podem_sample(0, strata)
    hard = set(strata["aborted"]) | set(strata["untestable"])
    n_hard = sum(1 for name in sample if name in hard)
    pinned["podem_min_coverage"] = 1.0 - n_hard / len(sample)

    def fresh_store(name):
        return {"store": open_store(work / f"{name}.sqlite", "sqlite")}

    corpus = workloads.corpus_pass(
        fresh_store("corpus"), {"podem_faults": sample}
    )
    pinned["corpus_fault_sim"] = {
        k: v for k, v in corpus["outputs"].items() if k != "podem"
    }
    grid = workloads.paper_grid_pass(fresh_store("grid"), {})
    pinned["paper_grid"] = {
        task_id: {k: m[k] for k in workloads.PINNED_GRID_KEYS if k in m}
        for task_id, m in grid["outputs"].items()
    }
    from repro.campaign import expand_grid

    small = [c for cs in workloads.CLIENT_CIRCUITS for c in cs]
    pinned["service_fault_sim"] = workloads.timed_campaign(
        expand_grid(small, ["fault_sim"]), None
    )[1]
    pinned["cell_screen"] = workloads.cell_screen_pass({}, {})["outputs"]
    workloads.PINNED_PATH.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
