"""Memory stays bounded across repeated CLI runs in one process.

Every field memo and cache belongs to the module it refers to, so once a
command returns, its modules can be collected; the generator fields of a
construction are the module's own state fields."""

import contextlib
import gc
import io

from nsvertex.cli import main
from nsvertex.constructions import super_construction
from nsvertex.fields import creating_state, state_field
from nsvertex.liealg import sl2
from nsvertex.modules import Module

AXIOMS = ["axioms", "--construction", "super", "--depth", "1/2"]


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0


def _live_modules() -> int:
    gc.collect()
    return sum(isinstance(obj, Module) for obj in gc.get_objects())


def test_repeated_cli_runs_keep_no_modules_alive():
    _run_quietly(AXIOMS)
    first = _live_modules()
    for _ in range(4):
        _run_quietly(AXIOMS)
    assert _live_modules() <= first


def test_cli_call_frees_its_modules_before_returning():
    # collect only what earlier tests left behind; after the call the
    # test must find no module of the call without collecting itself
    gc.collect()
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, Module)}
    _run_quietly(AXIOMS)
    left = [obj for obj in gc.get_objects()
            if isinstance(obj, Module) and id(obj) not in before]
    assert left == []


def test_construction_fields_are_module_state_fields():
    cons = super_construction(sl2(), 1)
    assert cons.fields["psi1"] is state_field(cons.module,
                                              creating_state("psi", 0))
    assert cons.fields["x1"] is state_field(cons.module,
                                            creating_state("x", 0))
