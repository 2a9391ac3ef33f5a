"""Record the reference outputs that the benchmark checks jobs against.

    python3 perfbench/record.py

Runs every job whose output a workload checks, each in a fresh process,
and writes its exit code and stdout digest to perfbench/reference.json.
Record only on a commit whose outputs are known good: a later run fails
every verdict whose output differs.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import jobs  # noqa: E402


def main() -> int:
    reference = {}
    for size in ("full", "smoke"):
        for key, argv in bench.reference_jobs(size).items():
            if key in reference:
                continue
            res = bench.spawn(argv)
            reference[key] = {"exit": res["exit"],
                              "sha256": jobs.digest(res["stdout"])}
            print(f"{res['exit']} {res['wall']:7.2f}s {key}", file=sys.stderr)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
