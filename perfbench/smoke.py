"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and traced, checks
that each result has the schema BENCHMARK.json declares and that every
verdict passes, then corrupts one reference digest per workload and
checks that the run counts the verdict as failed.  Exits 1 on the first
violation.
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def check_schema(result, declared) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not an integer")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if set(m) != {"value", "unit"} or m.get("unit") != unit or \
                isinstance(m.get("value"), bool) or \
                not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name}: {m}")
    return problems


def corrupt(reference, workload) -> dict:
    """A copy of the reference with the digest of one checked output flipped."""
    bad = copy.deepcopy(reference)
    w = bench.WORKLOADS[workload](1, "smoke")
    key = w["key"] or " ".join(bench.jobs.session_calls(1, 1)[0])
    bad[key]["sha256"] = "0" * 64
    return bad


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    reference = bench.load_reference()
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, _ = bench.run(workload, 1, 0, trace, size="smoke",
                                  reference=reference)
            problems = check_schema(result, declared[trace])
            if not result["correct"] or result["failed"]:
                problems.append(f"verdicts failed: {result['failed']}")
            report(f"{workload} trace={trace}", problems, failures)
        result, context = bench.run(workload, 1, 0, 0, size="smoke",
                                    reference=corrupt(reference, workload))
        problems = [] if result["failed"] >= 1 and not result["correct"] \
            and context["fail_ratio"] > 0 else \
            ["a corrupted reference digest was not counted as failed"]
        report(f"{workload} corrupted reference", problems, failures)
    return 1 if failures else 0


def report(label, problems, failures):
    print(f"{'ok  ' if not problems else 'FAIL'} {label}"
          + "".join(f"\n     {p}" for p in problems), flush=True)
    failures += problems


if __name__ == "__main__":
    sys.exit(main())
