"""Workloads, job runner and output checks of the nsvertex benchmark.

Every job runs in a fresh single-threaded Python process started from
the checkout root with ``src`` on the path, as a CLI call or a pytest
process would.  Time, peak memory and exit status are taken from
outside the process; its stdout is checked against a recorded digest
and against answers known independently of the code under test.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import jobs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RUN_BUDGET_S = 170     # a run must end within 180 s, a hung job too
SETUP_PROBES_PER_JOB = 3

NSVERTEX = ["-m", "nsvertex"]
JOBS_PY = ["perfbench/jobs.py"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("NSVERTEX_DEPTH", None)   # the CLI default depth must not leak in
    # imports read cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, on_line=None, timeout=RUN_BUDGET_S) -> dict:
    """Run ``python3 argv`` to completion; wall time, peak RSS, stdout.

    on_line, when given, is called with the time at which each stdout
    line arrives, counted from the start of the process.  The process
    is killed after timeout seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        lines = []
        for line in proc.stdout:
            if on_line is not None:
                on_line(line, time.perf_counter() - t0)
            lines.append(line)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    # wait4 reaped the child; record its status so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "stdout": "".join(lines)}


def load_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# -- workloads ---------------------------------------------------------------
#
# Each workload returns its job argv, the reference key of the job's
# output, the setup probe, and a check(stdout, exit, reference) giving
# (verdicts checked, problems).  A verdict fails when it has a problem;
# every session call is one verdict, every other job is one.  "smoke"
# is the smallest size, used by smoke.py.

def reference_problems(key, out, code, reference) -> list:
    ref = reference.get(key)
    if ref is None:
        return [f"{key}: no reference"]
    problems = []
    if code != ref["exit"]:
        problems.append(f"{key}: exit {code}, reference {ref['exit']}")
    if jobs.digest(out) != ref["sha256"]:
        problems.append(f"{key}: stdout differs from the reference")
    return problems


def susy(seed, size):
    # criterion 05 at depth 1: depth 2 takes 27 s, too long to repeat
    args = ["susy-check", "--algebra", "sl2", "--level", "1"]
    args += ["--depth", "1"] if size == "full" else \
        ["--depth", "1/2", "--window", "1"]
    key = " ".join(args)
    dim, g, level = 3, 2, 1     # sl2: dimension and dual Coxeter number
    c = Fraction(dim * (3 * level + g), 2 * (level + g))
    c_total = [{"num": c.numerator, "den": c.denominator, "rad": 1}]

    def check(out, code, reference):
        problems = reference_problems(key, out, code, reference)
        rep = load_json(out)
        if code != 0 or rep is None:
            return 1, problems + [f"susy: exit {code}"]
        if rep.get("c_total") != c_total or rep.get("measured") != c_total:
            problems.append("susy: c_total is not dim(3l+g)/(2(l+g)) = 5/2")
        failed = [c["relation"] for c in rep.get("checks", [])
                  if c.get("status") != "pass"]
        if failed or not rep.get("checks"):
            problems.append(f"susy: relations failed: {failed}")
        return 1, problems

    return {"argv": NSVERTEX + args, "key": key, "check": check,
            "setup": ["susy", "2" if size == "full" else "1"]}


def ns_verma_dims(depth2: int) -> list:
    """Coefficients of prod_n (1 + q^(n-1/2)) / (1 - q^n), by doubled grade."""
    dims = [1] + [0] * depth2
    for k in range(1, depth2 + 1):
        if k % 2:      # an odd G mode: used at most once
            for g2 in range(depth2, k - 1, -1):
                dims[g2] += dims[g2 - k]
        else:          # an even L mode: any number of times
            for g2 in range(k, depth2 + 1):
                dims[g2] += dims[g2 - k]
    return dims


def ghosts(seed, size):
    # the unitary tricritical-Ising NS point: zero directions, no ghosts
    depth = "8" if size == "full" else "4"
    args = ["ghosts", "--sector", "ns", "--c", "7/10", "--h", "1/10",
            "--depth", depth]
    key = " ".join(args)
    want_dims = ns_verma_dims(2 * int(depth))

    def check(out, code, reference):
        problems = reference_problems(key, out, code, reference)
        rep = load_json(out)
        if code != 0 or rep is None:
            return 1, problems + [f"ghosts: exit {code}"]
        levels = rep.get("levels", [])
        if [lv["dim"] for lv in levels] != want_dims:
            problems.append("ghosts: level dimensions differ from the "
                            "NS character")
        if rep.get("has_ghost") or any(lv["negative"] for lv in levels):
            problems.append("ghosts: negative column is not zero at the "
                            "unitary point")
        if any(lv["positive"] + lv["zero"] + lv["negative"] != lv["dim"]
               for lv in levels):
            problems.append("ghosts: signature does not add up to dim")
        return 1, problems

    return {"argv": NSVERTEX + args, "key": key, "check": check,
            "setup": ["ghosts", str(2 * int(depth))]}


# pole orders of the NS operator products
BRACKET_ORDERS = {"G,G": 3, "G,L": 2, "L,L": 4}


def brackets(seed, size):
    # criterion 11 cut down to the super-construction pairs on grade <= 1/2
    grade2, window = (1, 2) if size == "full" else (0, 1)
    key = f"brackets {grade2} {window}"     # the output does not depend on seed

    def check(out, code, reference):
        problems = reference_problems(key, out, code, reference)
        rep = load_json(out)
        if code != 0 or rep is None:
            return 1, problems + [f"brackets: exit {code}"]
        got = rep.get("pairs", {})
        orders = {p: v["order"] for p, v in got.items()}
        if orders != BRACKET_ORDERS:
            problems.append(f"brackets: locality orders {orders}")
        if any(v["mismatches"] or not v["checked"] for v in got.values()):
            problems.append("brackets: a direct bracket differs from its "
                            "expansion")
        return 1, problems

    return {"argv": JOBS_PY + ["brackets", str(grade2), str(window),
                               str(seed)],
            "key": key, "check": check, "setup": ["brackets", str(grade2)]}


def session(seed, size):
    passes = 4 if size == "full" else 1
    expected = [" ".join(a) for a in jobs.session_calls(seed, passes)]

    def check(out, code, reference):
        rep = load_json(out)
        if code != 0 or rep is None:
            return len(expected), [f"session: exit {code}"]
        calls = rep.get("calls", [])
        if [" ".join(c["argv"]) for c in calls] != expected:
            return len(expected), ["session: calls differ from the seeded "
                                   "order"]
        problems = []
        for c in calls:
            key = " ".join(c["argv"])
            ref = reference.get(key)
            # a ghost is present at c = 1/2, h = 0: exit 1 is the verdict
            want = 1 if c["argv"][0] == "ghosts" else 0
            if ref is None or (c["exit"], c["sha256"]) != \
                    (ref["exit"], ref["sha256"]) or c["exit"] != want:
                problems.append(f"session: {key}: exit {c['exit']}, "
                                "output or exit differs from the reference")
        return len(calls), problems

    return {"argv": JOBS_PY + ["session", str(seed), str(passes)],
            "key": None, "check": check, "setup": ["session", "0"]}


WORKLOADS = {"susy": susy, "brackets": brackets, "ghosts": ghosts,
             "session": session}


def reference_jobs(size) -> dict:
    """Reference key -> python argv, for every job output the checks use."""
    out = {}
    for name, make in WORKLOADS.items():
        if name == "session":
            for argv in jobs.all_session_calls():
                out[" ".join(argv)] = NSVERTEX + argv
            continue
        w = make(0, size)
        out[w["key"]] = w["argv"]
    return out


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# -- measurement -------------------------------------------------------------

def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def setup_probe(tally) -> tuple:
    """Time from process start to 'ready', and the basis sizes."""
    ready = []
    res = tally.spawn(JOBS_PY + ["setup"] + tally.w["setup"],
                      lambda line, t: ready.append(t)
                      if line == "ready\n" else None)
    if res["exit"] != 0 or not ready:
        raise RuntimeError(f"setup probe failed: exit {res['exit']}")
    return ready[0], load_json(res["stdout"].splitlines()[-1])["basis_dims"]


class Tally:
    """Verdicts attempted and failed over one run."""

    def __init__(self, workload, reference):
        self.w = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, argv, on_line=None) -> dict:
        return spawn(argv, on_line, self.deadline - time.monotonic())

    def job(self) -> dict:
        res = self.spawn(self.w["argv"])
        res["verdicts"] = self.verify(res["stdout"], res["exit"])
        return res

    def verify(self, out, code) -> int:
        verdicts, problems = self.w["check"](out, code, self.reference)
        self.attempted += verdicts
        self.failed += min(len(problems), verdicts)
        self.problems += problems
        return verdicts


def run(name, seed, seconds, trace, size="full", reference=None) -> tuple:
    """One benchmark run; returns the result object and its context."""
    workload = WORKLOADS[name](seed, size)
    tally = Tally(workload, load_reference() if reference is None
                  else reference)
    context = {"workload": name, "seed": seed, "size": size,
               "job": workload["argv"],
               "nproc": len(os.sched_getaffinity(0)),
               "python": platform.python_version(),
               "src_lines": src_lines()}
    if trace:
        metrics = traced_metrics(tally, context)
    else:
        metrics = untraced_metrics(tally, seconds, context)
    context["fail_ratio"] = tally.failed / tally.attempted
    context["problems"] = tally.problems[:20]
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}, context


def untraced_metrics(tally, seconds, context) -> dict:
    # the first probe also writes bytecode caches: it is not counted
    _, context["basis_dims"] = setup_probe(tally)
    # probes are spread between the jobs, so that both sample the same
    # stretch of machine time
    setups = []
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setups += [setup_probe(tally)[0] for _ in range(SETUP_PROBES_PER_JOB)]
        runs.append(tally.job())
    context["job_walls_s"] = [r["wall"] for r in runs]
    context["setup_probes_s"] = setups
    rep = load_json(runs[-1]["stdout"])
    if isinstance(rep, dict) and "rss_mb_per_pass" in rep:
        context["rss_mb_per_pass"] = rep["rss_mb_per_pass"]
    return {
        "wall_s": metric(statistics.median(r["wall"] for r in runs), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in runs),
                              "MB"),
        "jobs_per_s": metric(statistics.median(r["verdicts"] / r["wall"]
                                               for r in runs), "1/s"),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(tally, context) -> dict:
    untraced = tally.job()
    passes = []
    for _ in range(2):
        res = tally.spawn(["perfbench/tracer.py"] + tally.w["argv"])
        out, _, mark = res["stdout"].rpartition(tracer.TRACE_MARK)
        tally.verify(out, res["exit"])
        passes.append((res["wall"], load_json(mark) or {}))
    micro = tally.spawn(JOBS_PY + ["micro", str(context["seed"])])
    micro = load_json(micro["stdout"]) or {}

    counts = [counted(report) for _, report in passes]
    unrepeated = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k))
    if unrepeated:
        # the second traced pass is the verdict that failed to repeat
        tally.failed = min(tally.failed + 1, tally.attempted)
        tally.problems.append(f"trace: counts differ between passes: "
                              f"{unrepeated[:10]}")
    overhead = statistics.median(w for w, _ in passes) - untraced["wall"]
    context["trace"] = {"untraced_wall_s": untraced["wall"],
                        "traced_wall_s": [w for w, _ in passes],
                        "overhead_s": overhead, "unrepeated": unrepeated,
                        "self_s": passes[0][1].get("self_s")}
    metrics = layer_metrics([r for _, r in passes], micro)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.unrepeated_counts"] = metric(len(unrepeated), "count")
    return metrics


def counted(report) -> dict:
    """Every count in a trace report, flattened, for the repeat check."""
    out = {f"calls.{k}": v for k, v in report.get("calls", {}).items()}
    out.update({f"hits.{k}": tuple(v)
                for k, v in report.get("hits", {}).items()})
    out.update({f"retained.{k}": v
                for k, v in report.get("retained", {}).items()})
    out["rational_mul"] = report.get("rational_mul")
    return out


def layer_metrics(reports, micro) -> dict:
    """The per-layer metrics: counts from the first traced pass, times as
    the median of both passes."""
    first = reports[0]

    def calls(key):
        return first.get("calls", {}).get(key, 0)

    def seconds(key):
        return statistics.median(r.get("inclusive", {}).get(key, 0.0)
                                 for r in reports)

    def self_s(layer):
        return statistics.median(r.get("self_s", {}).get(layer, 0.0)
                                 for r in reports)

    def hit_ratio(key):
        hits, misses = first.get("hits", {}).get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def filled(key):     # each miss stores one entry
        return first.get("hits", {}).get(key, (0, 0))[1]

    mul = calls("scalars.Scalar.__mul__")
    retained = first.get("retained", {})
    inner = sum(v for k, v in first.get("calls", {}).items()
                if k.startswith("modules.") and k.endswith(".inner_basis"))
    values = {
        "scalars.mul.calls": (mul, "count"),
        "scalars.add.calls": (calls("scalars.Scalar.__add__"), "count"),
        "scalars.inverse.calls": (calls("scalars.Scalar.inverse"), "count"),
        "scalars.mul.rational_share":
            (first.get("rational_mul", 0) / mul if mul else 0.0, "ratio"),
        "scalars.self_s": (self_s("scalars"), "s"),
        "scalars.mul_ns": (micro.get("mul_ns", 0.0), "ns"),
        "scalars.add_ns": (micro.get("add_ns", 0.0), "ns"),
        "modules.apply_to_basis.calls":
            (calls("modules.Module.apply_to_basis"), "count"),
        "modules.apply_to_basis.hit_ratio":
            (hit_ratio("modules.apply_to_basis"), "ratio"),
        "modules.apply_cache.entries":
            (filled("modules.apply_to_basis"), "count"),
        "modules.apply_cache.retained":
            (retained.get("modules.apply_to_basis", 0), "count"),
        "modules.inner_basis.calls": (inner, "count"),
        "modules.gram.s": (seconds("modules.Module.gram"), "s"),
        "modules.self_s": (self_s("modules"), "s"),
        "fields.act.calls": (calls("fields.Field.act"), "count"),
        "fields.act.hit_ratio": (hit_ratio("fields.act"), "ratio"),
        "fields.cache.entries": (filled("fields.act"), "count"),
        "fields.cache.retained": (retained.get("fields.act", 0), "count"),
        "fields.locality_order.s": (seconds("fields.locality_order"), "s"),
        "fields.commutator_direct.s":
            (seconds("fields.commutator_direct"), "s"),
        "fields.bracket_from_ope.s": (seconds("fields.bracket_from_ope"), "s"),
        "fields.self_s": (self_s("fields"), "s"),
        "linalg.inertia.s": (seconds("linalg.inertia_with_witness"), "s"),
        "linalg.row_reduce.s": (seconds("linalg.row_reduce"), "s"),
        "linalg.self_s": (self_s("linalg"), "s"),
        "liealg.dual_coxeter.calls":
            (calls("liealg.LieAlgebra.dual_coxeter"), "count"),
        "liealg.self_s": (self_s("liealg"), "s"),
        "constructions.susy_report.s":
            (seconds("constructions.susy_report"), "s"),
        "constructions.super_construction.s":
            (seconds("constructions.super_construction"), "s"),
        "constructions.self_s": (self_s("constructions"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}
