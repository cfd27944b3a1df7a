"""The traffic map's report on a package small enough to list by hand."""
import sys

import traffic

MODULE = '''\
"""Module docstring."""


def positive(x):
    """Function docstring."""
    if x > 0:
        return 1
    y = -x
    return y


def checked(x):
    if x is None:
        raise ValueError("no x")
    return x


class Box:
    """Class docstring."""

    def size(self):
        return 2
'''


def test_unreached_statements_are_listed(tmp_path, monkeypatch):
    pkg = tmp_path / "traffic_demo"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Package docstring."""\n')
    (pkg / "mod.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))

    def run():
        from traffic_demo import mod
        mod.positive(1)
        mod.checked(2)

    try:
        got = traffic.unreached(pkg, run)
    finally:
        for name in ("traffic_demo", "traffic_demo.mod"):
            sys.modules.pop(name, None)
    # docstrings are not statements; the else side of the branch, a method
    # never called and the raise are listed, the raise apart
    assert got["__init__.py"] == ([], [], 0)
    missed, raises, total = got["mod.py"]
    assert missed == [(8, "y = -x"), (9, "return y"), (22, "return 2")]
    assert raises == [(14, 'raise ValueError("no x")')]
    assert total == 12
    report = traffic.report(got)
    assert "mod.py: 3 statements and 1 raise statements unreached, of 12" in report
    assert "Docstring" not in report
