"""Every public top-level function or class of spdelab has a reader.

A name defined at the top level of `src/spdelab/<module>.py` without a
leading underscore must be read by one of: another module of the package
(`__init__.py` imports nothing, and `test_imports.py` keeps it so), its
own module outside its own definition, a script under `bench/`, the acceptance suite
`tests/test_acceptance.py`, or a mention in `README.md`.  A name that only
unit tests read tests itself: it is deleted, or, when it is an oracle,
it lives in `tests/oracles.py`.  Reads are found with the standard
library's `ast`: loaded names, attribute names and imported names.
"""
import ast
import pathlib
import re

import spdelab

PACKAGE = pathlib.Path(spdelab.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(PACKAGE.glob("*.py"))


def read_names(tree: ast.AST) -> set:
    """Every name the tree loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def public_definitions(tree: ast.Module) -> dict:
    """{name: definition node} of the public top-level functions and classes."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def unread_names(modules, readers, readme_text: str) -> list:
    """module.name of every public definition of `modules` that no reader reads.

    readers is a list of parsed files outside the package; each module is
    also read by the other modules and by itself outside the definition.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    outside = set().union(*(read_names(tree) for tree in readers))
    mentioned = set(re.findall(r"\w+", readme_text))
    unread = []
    for stem, tree in trees.items():
        others = set().union(*(read_names(t) for s, t in trees.items() if s != stem))
        body = [(node, read_names(node)) for node in tree.body]
        for name, node in public_definitions(tree).items():
            own = set().union(*(names for other, names in body if other is not node))
            if name not in others | own | outside | mentioned:
                unread.append(f"{stem}.{name}")
    return sorted(unread)


def test_every_public_definition_has_a_reader():
    readers = [ast.parse(p.read_text(), filename=str(p))
               for p in [*sorted((ROOT / "bench").glob("*.py")),
                         ROOT / "tests" / "test_acceptance.py"]]
    assert unread_names(MODULES, readers, (ROOT / "README.md").read_text()) == []


def test_an_unread_definition_is_reported(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def used_by_b():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Helper:\n    pass\n\n"
        "def uses_helper() -> Helper:\n    return Helper()\n\n"
        "def _private():\n    pass\n\n"
        "def read_by_bench():\n    pass\n\n"
        "def in_readme():\n    pass\n")
    (pkg / "b.py").write_text("from .a import used_by_b\n\ndef orphan():\n    used_by_b()\n")
    bench = ast.parse("import m\nm.a.read_by_bench()\n")
    got = unread_names(sorted(pkg.glob("*.py")), [bench], "call `in_readme` first")
    assert got == ["a.recursive", "a.uses_helper", "b.orphan"]
