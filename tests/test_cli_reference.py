"""Byte-identity guard: every CLI call of the benchmark's session pool
gives the exit code and stdout recorded in perfbench/reference.json.

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


@pytest.mark.parametrize("argv", jobs.all_session_calls(), ids=" ".join)
def test_session_call_matches_reference(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    want = REFERENCE[" ".join(argv)]
    assert code == want["exit"]
    assert jobs.digest(out.getvalue()) == want["sha256"]
