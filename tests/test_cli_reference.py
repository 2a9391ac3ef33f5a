"""Byte-identity guard: every CLI call of the benchmark's session pool,
and the full- and smoke-size jobs of its ghosts and susy workloads, give
the exit code and stdout recorded in perfbench/reference.json.

The calls run through `cli.main` in one process, as the session
workload runs them.  A change that is meant to alter an output must
re-record the reference (`python3 perfbench/record.py`).
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from nsvertex import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs",
                                                  PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs = _load_jobs()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def assert_matches_reference(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    want = REFERENCE[" ".join(argv)]
    assert code == want["exit"]
    assert jobs.digest(out.getvalue()) == want["sha256"]


@pytest.mark.parametrize("argv", jobs.all_session_calls(), ids=" ".join)
def test_session_call_matches_reference(argv):
    assert_matches_reference(argv)


# the ghosts and susy workloads' jobs, full size and smoke size; each
# reference key is the job's CLI argv joined by spaces
WORKLOAD_CALLS = [
    "ghosts --sector ns --c 7/10 --h 1/10 --depth 8",
    "ghosts --sector ns --c 7/10 --h 1/10 --depth 4",
    "susy-check --algebra sl2 --level 1 --depth 1",
    "susy-check --algebra sl2 --level 1 --depth 1/2 --window 1",
]


@pytest.mark.parametrize("key", WORKLOAD_CALLS)
def test_workload_call_matches_reference(key):
    assert_matches_reference(key.split())
