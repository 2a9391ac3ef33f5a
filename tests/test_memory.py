"""Memory stays bounded across repeated CLI runs in one process.

Every memo and cache belongs to the module it refers to: a module holds
its fields and their slot memos, and no field holds a module.  So a
module is freed by reference counting alone once nothing outside holds
it, with the cyclic collector switched off, and `cli.main` neither
collects nor freezes: what the caller holds, garbage included, is left
to the caller's collector.  The generator fields of a construction are
the module's own state fields."""

import contextlib
import gc
import io
import weakref
from fractions import Fraction

from nsvertex.cli import main
from nsvertex.constructions import (super_construction, susy_report,
                                    vertex_module, weight_report)
from nsvertex.fields import creating_state, field_from_tree, state_field
from nsvertex.liealg import sl2
from nsvertex.modules import Module, StateVector, VermaModule

AXIOMS = ["axioms", "--construction", "super", "--depth", "1/2"]
CALLS = [
    ["axioms", "--construction", "fermion", "--depth", "1"],
    ["axioms", "--construction", "g-fermion", "--depth", "1"],
    ["axioms", "--construction", "sugawara", "--depth", "1/2"],
    AXIOMS,
    ["module", "--algebra", "sl2", "--level", "1", "--spin", "1/2",
     "--depth", "1"],
    ["brackets", "--module", '{"type":"ns_verma","c":"7/10","h":"1/10"}',
     "--field-a", '{"nprod":[{"gen":"G"},{"gen":"G"},0]}',
     "--field-b", '{"gen":"G"}', "--depth", "1"],
]


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0


@contextlib.contextmanager
def _no_collector():
    """Only reference counting frees what the block drops."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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
    with _no_collector():
        before = {id(obj) for obj in gc.get_objects()
                  if isinstance(obj, Module)}
        for argv in CALLS:
            _run_quietly(argv)
            left = [type(obj).__name__ for obj in gc.get_objects()
                    if isinstance(obj, Module) and id(obj) not in before]
            assert left == [], argv


def test_a_held_field_keeps_no_module_alive():
    P = field_from_tree({"nprod": [{"gen": "G"}, {"gen": "G"}, 0]})
    with _no_collector():
        modules = [VermaModule("ns", Fraction(7, 10), h)
                   for h in (Fraction(0), Fraction(1, 10), Fraction(1, 2))]
        for module in modules:
            for state in module.basis_upto(2):
                P.apply(0, module, StateVector.basis(state))
            assert module._slot_cache
        refs = [weakref.ref(m) for m in modules]
        del modules, module
        # P is still held here
        assert [ref() for ref in refs] == [None] * 3


def test_a_dropped_construction_frees_its_module():
    with _no_collector():
        cons = super_construction(sl2(), 1)
        assert susy_report(cons, depth2=1, window=2)["valid"]
        ref = weakref.ref(cons.module)
        del cons
        assert ref() is None


def test_a_dropped_spin_floor_frees_its_module():
    with _no_collector():
        vm = vertex_module(sl2(), 1, 1)
        assert weight_report(vm, depth2=2)["valid"]
        cons = vm["construction"]
        assert susy_report(cons, depth2=1, window=1)["valid"]
        refs = [weakref.ref(vm["module"]), weakref.ref(cons.module)]
        del vm, cons
        assert [ref() for ref in refs] == [None, None]


class _Node:
    pass


def test_cli_call_leaves_the_callers_garbage_alone():
    gc.collect()
    # no automatic collection may free the cycle before main is called
    gc.disable()
    try:
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        _run_quietly(["catalog"])
        assert ref() is not None
    finally:
        gc.enable()
    gc.collect()
    assert ref() is None


def test_cli_call_keeps_what_the_caller_froze_frozen():
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        _run_quietly(AXIOMS)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_construction_fields_are_module_state_fields():
    cons = super_construction(sl2(), 1)
    assert cons.fields["psi1"] is state_field(cons.module,
                                              creating_state("psi", 0))
    assert cons.fields["x1"] is state_field(cons.module,
                                            creating_state("x", 0))
