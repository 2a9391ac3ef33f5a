"""No source file imports a name that it never reads, or the collector,
keeps a process-global memo, or calls id().

A name moved from one module to another leaves its old import behind
unless something notices; this test reads every file of the package,
of the tests and of the demos with the stdlib ast module and lists each
imported name that the file never loads.  Names in the package's
__all__ are its public surface and are exempt, as are __future__
imports.  No file of the package imports gc either: the library frees
its memory by reference counting and never drives the cyclic
collector, whose state belongs to the caller.  And no function
writes into a module-level dict, list or set, or is memoized by
functools: every memo lives with the module or the call that it serves,
so it is freed with them; a weak container counts as a container.
Three exceptions: the functools caches scalars._mul_rad, which holds
integer pairs of radicands, and cli._parser, which holds the one
argument parser, and modules._STATES, the intern map of basis states,
which holds them weakly and so keeps none alive.  No file of the
package calls the builtin id() either: a memo keyed by the id() of an
object can answer for another object that reuses a freed one's id, so
every memo key is a value.
"""

import ast
from pathlib import Path

import nsvertex

SRC = Path(nsvertex.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


def unread_imports(source: str) -> list:
    """Imported names of the source that no expression loads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported
            if name not in read and name not in nsvertex.__all__]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from .scalars import ONE, Scalar as S\n"
              "def f(x: S):\n    return os.sep\n")
    assert unread_imports(source) == ["json", "ONE"]


def test_every_source_file_reads_what_it_imports():
    files = [path for folder in (SRC, TESTS, DEMOS)
             for path in sorted(folder.glob("*.py"))]
    assert len(files) > 40
    unread = {f"{path.parent.name}/{path.name}": names for path in files
              if (names := unread_imports(path.read_text()))}
    assert unread == {}


def imports_gc(source: str) -> bool:
    """Whether the source imports the gc module, in either form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "gc" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            return True
    return False


def test_gc_imports_are_found():
    assert imports_gc("import os, gc\n")
    assert imports_gc("def f():\n    from gc import collect\n")
    assert not imports_gc("from math import gcd\nimport gcx\n")


def test_no_source_file_imports_gc():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    assert [path.name for path in files if imports_gc(path.read_text())] == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
FACTORIES = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict",
                       "Counter", "deque", "WeakValueDictionary",
                       "WeakKeyDictionary", "WeakSet"})
MUTATORS = frozenset({"append", "extend", "insert", "add", "update",
                      "setdefault", "pop", "popitem", "remove", "discard",
                      "clear"})
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _called_name(node):
    """The last name of a call's function, or of a bare decorator."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _own_nodes(fn):
    """The nodes of a function's body, those of nested functions left out."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo += ast.iter_child_nodes(node)


def global_memos(source: str) -> list:
    """Each function of the source that keeps process-global state, as
    "name: writes X" for a write into the module-level dict, list or set
    X (an item store or delete, a mutating method call, or a global
    rebinding), and as "name: functools cache" for a function that
    functools.cache or lru_cache memoizes; in source order.  A local
    name that shadows X counts as X: the package gives its module-level
    containers names that no function reuses."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) \
            else None
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call)
                and _called_name(value) in FACTORIES):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    functions = sorted((node for node in ast.walk(tree)
                        if isinstance(node, FUNCTIONS)),
                       key=lambda fn: (fn.lineno, fn.col_offset))
    found = []
    for fn in functions:
        name = getattr(fn, "name", "<lambda>")
        if any(_called_name(d) in ("cache", "lru_cache")
               for d in getattr(fn, "decorator_list", ())):
            found.append(f"{name}: functools cache")
        written = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Global):
                written.update(set(node.names) & containers)
                continue
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in containers:
                written.add(target.id)
        found += [f"{name}: writes {x}" for x in sorted(written)]
    return found


def test_global_memos_are_found():
    source = ("import functools\n"
              "TABLE = {}\nSEEN = set()\nNAMES: list = []\nLIMIT = 3\n"
              "def put(k, v):\n    TABLE[k] = v\n    del TABLE[v]\n"
              "def mark(x):\n    SEEN.add(x)\n"
              "def read(k):\n    return TABLE.get(k), LIMIT\n"
              "def reset():\n    global SEEN\n    SEEN = set()\n"
              "class C:\n    def m(self):\n"
              "        f = lambda: NAMES.extend([1])\n        return f\n"
              "@functools.cache\ndef f(n):\n    return {n: 1}\n"
              "@functools.lru_cache(maxsize=8)\ndef g(n):\n    return n\n")
    assert global_memos(source) == [
        "put: writes TABLE", "mark: writes SEEN", "reset: writes SEEN",
        "<lambda>: writes NAMES", "f: functools cache",
        "g: functools cache"]


def test_no_function_keeps_a_process_global_memo():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    found = {path.name: memos for path in files
             if (memos := global_memos(path.read_text()))}
    assert found == {"scalars.py": ["_mul_rad: functools cache"],
                     "cli.py": ["_parser: functools cache"],
                     "modules.py": ["_state: writes _STATES"]}


def calls_id(source: str) -> list:
    """The line of each call of a function named id in the source, in
    order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "id")


def test_id_calls_are_found():
    source = ("def f(x, memo):\n    return memo.get(id(x))\n"
              "def g(obj):\n    return obj.id(3), identity(obj)\n"
              "seen = {id(object())}\n")
    assert calls_id(source) == [2, 5]


def test_no_source_file_calls_id():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    assert {path.name: lines for path in files
            if (lines := calls_id(path.read_text()))} == {}
