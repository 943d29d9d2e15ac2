"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed, one after another, and prints per metric
the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall={time.perf_counter() - t0:.1f}s correct={result['correct']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:16s} median={statistics.median(vals):.5g} "
              f"iqr/median={(q3 - q1) / med:.4f} bound={metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
