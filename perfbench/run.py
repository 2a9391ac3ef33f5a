"""Run one workload of the nsvertex benchmark and print its result.

    python3 perfbench/run.py --workload susy --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The last stdout line is the result
object; the line before it carries context that is recorded, not gated.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (bench.SRC / "nsvertex" / "__init__.py").is_file():
        print(f"error: no nsvertex sources under {bench.SRC}", file=sys.stderr)
        return 2
    result, context = bench.run(args.workload, args.seed, args.seconds,
                                args.trace)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
