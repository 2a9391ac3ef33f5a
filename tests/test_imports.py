"""No source file imports a name that it never reads.

A name moved from one module to another leaves its old import behind
unless something notices; this test reads every file of the package
with the stdlib ast module and lists each imported name that the file
never loads.  Names in the package's __all__ are its public surface and
are exempt, as are __future__ imports.
"""

import ast
from pathlib import Path

import nsvertex

SRC = Path(nsvertex.__file__).resolve().parent


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
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    unread = {path.name: names for path in files
              if (names := unread_imports(path.read_text()))}
    assert unread == {}
