"""``repro serve`` under the tracer, for traced ``service_jobs`` passes.

    python3 perfbench/traced_server.py STATE_DIR STATS.json

Installs the tracer, then runs the same ``serve_forever`` as
``python -m repro serve --port 0``; on SIGTERM it writes the layer
statistics, and the CPU time the CLI import took, to ``STATS.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.process_time()
    import repro.campaign.cli  # noqa: F401  (what ``repro serve`` imports)
    import_s = time.process_time() - start
    from report import hit_counts
    from repro.device.cache import model_cache_stats
    from repro.logic.compiled import compile_memo_stats
    from repro.service.api import serve_forever
    from tracing import Tracer

    memo0, device0 = compile_memo_stats(), model_cache_stats()
    with Tracer() as tracer:
        code = serve_forever(argv[1], port=0)
    Path(argv[2]).write_text(json.dumps({
        "import_s": import_s,
        "layers": tracer.layer_stats(),
        "counts": dict(tracer.counts),
        "memo": hit_counts(memo0, compile_memo_stats()),
        "device_cache": hit_counts(device0, model_cache_stats()),
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
