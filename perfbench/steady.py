"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload paper_grid --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, untraced and for the ``run_seconds`` of
``BENCHMARK.json``, and prints per end-to-end metric the median of the
runs and the distance between their first and third quartiles as a
share of that median (``statistics.quantiles(values, n=4)``), next to
the metric's bound.  The last line is the same as JSON; ``--out``
appends it to a file (``perfbench/spread/runs.jsonl`` holds the runs
behind the bounds in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path,
                        help="append the JSON summary line to this file")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(declared["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: outputs incorrect")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{n}={m['value']:.6g}"
                  for n, m in result["metrics"].items()
              ), flush=True)

    summary = {}
    for metric in declared["end_to_end"]:
        runs = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(runs, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[metric["name"]] = {
            "median": median, "spread": spread, "bound": metric["bound"],
            "values": runs,
        }
        print(f"{metric['name']:12s} median {median:12.6g}  spread "
              f"{spread:7.2%}  bound {metric['bound']:.0%}")
    line = json.dumps({"workload": args.workload, "seeds": args.seeds,
                       "metrics": summary})
    print(line)
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as out:
            out.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
