"""Every name a module of spdelab imports is read somewhere in that module.

Each source file is parsed with the standard library's `ast`; a name bound
by an import statement must also appear as a loaded name.  `from __future__`
imports bind nothing, so they are exempt.  The package's `__init__.py` is
checked like any module: a re-export there is an import it never reads,
so each name keeps one way in, from its own module.
"""
import ast
import pathlib

import pytest

import spdelab

PACKAGE = pathlib.Path(spdelab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(path: pathlib.Path) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "solver.py", "fields.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    # a package's __init__.py, so a re-export from its own module counts too
    source = tmp_path / "__init__.py"
    source.write_text("from __future__ import annotations\n"
                      "import math\nimport os.path\nfrom typing import Callable, Sequence\n"
                      "from .solver import integrate_batch\n"
                      "def f(x: Sequence):\n    return os.path.join(x)\n")
    assert unused_imports(source) == [(2, "math"), (4, "Callable"), (5, "integrate_batch")]
