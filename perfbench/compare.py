"""Compare two result records written by ``perfbench/run.py``.

Usage::

    python3 perfbench/compare.py .perfbench_cache/results/A.json .perfbench_cache/results/B.json

Refuses (exit code 2) when the records were measured on different kernel
paths or BLAS thread counts, or on different workloads or trace modes;
otherwise prints each metric of A and B and the change as a share of A.
"""

import json
import sys

MUST_MATCH = ("kernels.active", "blas_threads")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    for key in MUST_MATCH:
        if a["env"][key] != b["env"][key]:
            print(f"refusing: env {key} differs ({a['env'][key]!r} vs {b['env'][key]!r})",
                  file=sys.stderr)
            return 2
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refusing: {key} differs ({a[key]!r} vs {b[key]!r})", file=sys.stderr)
            return 2
    ma, mb = a["summary"]["metrics"], b["summary"]["metrics"]
    for name in ma:
        va, vb = ma[name]["value"], mb.get(name, {}).get("value")
        change = f"{(vb - va) / va:+.3f}" if vb is not None and va else "n/a"
        print(f"{name:48s} {va:14.6g} {vb if vb is not None else float('nan'):14.6g} {change:>8s} "
              f"{ma[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
