#!/usr/bin/env python3
"""Statement coverage of ``qhydro`` under the tier-1 suite.

Runs tier-1 in this interpreter under a ``sys.settrace`` line tracer that
records the lines executed in the package's modules, then lists each
statement inside a function body that no test ran, and fails if there is
one or if tier-1 fails.  Statements at module or class level run at import,
so they are not checked.  A statement counts as run when one of its lines
ran; for a compound statement (if, for, while, with, def) those are the
lines of its header, and a ``try`` is judged by the statements it holds.
The tracer runs only where the package's own frames are, so tier-1 takes a
few times its usual wall time; subprocesses that tests start are not
traced.  It uses the standard library and pytest only.  From the
repository root:

    PYTHONPATH=src python scripts/adequacy.py [pytest arguments]
"""

import ast
import os
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent


def _header_end(node: ast.stmt) -> int:
    """The last line of a compound statement's header."""
    return max(node.lineno, node.body[0].lineno - 1)


def _checked(body: list, spans: list) -> None:
    """Append the (first, last) line span of each statement in ``body``
    and, recursively, in the bodies it holds."""
    for node in body:
        if isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(handler.body for handler in node.handlers)):
                _checked(block, spans)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.append((first, _header_end(node)))
            _function_body(node, spans)
        elif isinstance(node, (ast.If, ast.For, ast.While, ast.With,
                               ast.AsyncFor, ast.AsyncWith)):
            spans.append((node.lineno, _header_end(node)))
            _checked(node.body, spans)
            _checked(node.orelse if hasattr(node, "orelse") else [], spans)
        elif isinstance(node, ast.ClassDef):
            spans.append((node.lineno, _header_end(node)))
            _checked(node.body, spans)
        else:
            spans.append((node.lineno, node.end_lineno))


def _function_body(node, spans: list) -> None:
    body = node.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]                          # the docstring
    _checked(body, spans)


def function_statements(source: str) -> list[tuple[int, int]]:
    """The line spans of every statement inside a function body."""
    spans = []

    def scan(body: list) -> None:
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _function_body(item, spans)
            elif isinstance(item, ast.ClassDef):
                scan(item.body)

    scan(ast.parse(source).body)
    return spans


def traced_tier1(package_dir: Path, pytest_args: list[str]):
    """Run tier-1 under the tracer: (pytest's exit code, path -> lines run)."""
    import pytest

    executed = {str(path): set() for path in package_dir.glob("*.py")}
    by_name = {}                                 # co_filename -> its line set

    def lines_of(filename: str):
        if filename not in by_name:
            by_name[filename] = executed.get(os.path.realpath(filename))
        return by_name[filename]

    def trace(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), executed


def main() -> int:
    os.chdir(ROOT)
    import qhydro

    package_dir = Path(os.path.realpath(qhydro.__file__)).parent
    code, executed = traced_tier1(package_dir, sys.argv[1:])
    uncovered = total = 0
    for path in sorted(executed):
        source = Path(path).read_text()
        lines = source.splitlines()
        for first, last in function_statements(source):
            total += 1
            if executed[path].isdisjoint(range(first, last + 1)):
                uncovered += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: not run: "
                      f"{lines[first - 1].strip()}")
    print(f"{total} statements in function bodies, {uncovered} not run by "
          f"tier-1 (exit code {code})")
    return code or (1 if uncovered else 0)


if __name__ == "__main__":
    sys.exit(main())
