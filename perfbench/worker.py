"""One fresh process per pass: set up, optionally trace, run one pass.

Spawned by ``run.py``::

    python3 perfbench/worker.py REQUEST.json RESULT.json

The request names the workload, the mode (``setup`` only, or a full
``pass``), whether to trace, the generated inputs and the monotonic
clock reading at spawn; the result carries set-up and pass timings, the
per-operation outcomes, the outputs to check and, when traced, the
layer statistics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(request["root"]) / "src"))
    import workloads

    workload = request["workload"]
    start = time.process_time()
    import repro.campaign.cli  # noqa: F401
    result = {"import_s": time.process_time() - start}
    ctx = workloads.setup(workload, Path(request["workdir"]))
    # CPU seconds since this interpreter started; the wall time (which
    # also counts time the machine gave to other tenants) is kept too.
    result["setup_s"] = time.process_time()
    result["setup_wall_s"] = time.monotonic() - request["spawned_at"]

    if request["mode"] == "pass":
        tracer = None
        if request["trace"]:
            from repro.device.cache import model_cache_stats
            from repro.logic.compiled import compile_memo_stats
            from report import hit_counts
            from tracing import Tracer

            memo0, device0 = compile_memo_stats(), model_cache_stats()
            tracer = Tracer().install()
        start, wall = time.process_time(), time.perf_counter()
        try:
            out = workloads.PASSES[workload](ctx, request["inputs"])
        finally:
            result["run_s"] = time.process_time() - start
            result["wall_s"] = time.perf_counter() - wall
            if tracer is not None:
                tracer.restore()
        result.update(out)
        if tracer is not None:
            result["layers"] = tracer.layer_stats()
            result["counts"] = dict(tracer.counts)
            result["memo"] = hit_counts(memo0, compile_memo_stats())
            result["device_cache"] = hit_counts(device0, model_cache_stats())
    store = ctx.get("store")
    if store is not None:
        store.close()
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
