#!/usr/bin/env python3
"""The traffic map: which statements of spdelab no config or workload runs.

    python3 tests/traffic.py

It runs every golden run of tests/test_golden.py, then one iteration of
each bench workload and its checks (bench/run.py's load_spdelab,
write_configs and iterate, in a temporary directory), under the standard
library's line tracer, and prints per module of src/spdelab the
statements that none of them reached, with the `raise` statements listed
apart.  A bare
string, such as a docstring, is compiled away and is not counted.  A
statement is reached when a line event fires on one of its own lines:
the lines it spans, less the lines of the statements nested in it.

It is a report, not a gate: error branches stay, and unit tests cover
them.  Code that only unit tests reach shows up here, as code that no
config runs.
"""
import ast
import contextlib
import importlib.util
import io
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdelab"


def _span(node: ast.stmt) -> set:
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(start, node.end_lineno + 1))


def _nested(node: ast.AST):
    """The statements nearest below node, through handlers and cases."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _nested(child)


def statements(source: str) -> list:
    """(own lines, is a raise, first line number) of every statement of
    the source but bare strings."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        own = _span(node).difference(*(_span(child) for child in _nested(node)))
        out.append((own or {node.lineno}, isinstance(node, ast.Raise), node.lineno))
    return out


def trace_lines(files, run) -> dict:
    """{file: line numbers run} for the given source files while run() runs,
    in every thread it starts."""
    hits = {str(f): set() for f in files}

    def on_call(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def unreached(package: Path, run) -> dict:
    """{module file name: (unreached statements, unreached raises, statement
    count)} of the modules of package, each statement as (line, text).
    The package must not be imported before run() imports it, so that its
    module-level statements are traced too."""
    files = sorted(package.glob("*.py"))
    hits = trace_lines(files, run)
    out = {}
    for path in files:
        source = path.read_text()
        lines = source.splitlines()
        seen = hits[str(path)]
        missed = ([], [])
        stmts = statements(source)
        for own, is_raise, first in sorted(stmts, key=lambda s: s[2]):
            if not own & seen:
                missed[is_raise].append((first, lines[first - 1].strip()))
        out[path.name] = (*missed, len(stmts))
    return out


def report(result: dict) -> str:
    """The per-module listing, then the totals."""
    out = []
    for name, (missed, raises, total) in result.items():
        out.append(f"{name}: {len(missed)} statements and {len(raises)} raise "
                   f"statements unreached, of {total}")
        out += [f"  {line:5d}  {text}" for line, text in missed]
        out += [f"  {line:5d}  {text}" for line, text in raises]
    out.append(f"total: {sum(len(r[0]) for r in result.values())} statements and "
               f"{sum(len(r[1]) for r in result.values())} raise statements unreached, "
               f"of {sum(r[2] for r in result.values())}")
    return "\n".join(out)


def _load_bench():
    """bench/run.py as a module, with bench/ on the path for its imports."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_configs():
    """The golden runs, then one iteration of each bench workload with
    its checks."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_golden

    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        test_golden.run_all(Path(tmp))
        bench = _load_bench()
        m, _ = bench.load_spdelab()
        for name, workload in bench.WORKLOADS.items():
            paths = bench.write_configs(workload, Path(tmp, "configs", name))
            ctx, raw = bench.iterate(workload, m, 1, str(Path(tmp, "work", name)), paths)
            workload.check(ctx, ctx.results, raw)


if __name__ == "__main__":
    print(report(unreached(PACKAGE, run_configs)))
