"""Layer benchmark of mcluster: one workload per run, one JSON line out.

    python3 benchmarks/run.py --workload mesh-basis --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/`.  Report lines come first; the last line of standard output is a JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 1` the metrics are the per-layer ones and the spans are written to
`.bench_traces/` under the checkout.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import GRIDS, run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GRIDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mcluster", "__init__.py")):
        print(f"error: no mcluster package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace_path = os.path.join(
        ROOT, ".bench_traces", f"{args.workload}-seed{args.seed}.jsonl.gz"
    )
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        trace_path=trace_path)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
