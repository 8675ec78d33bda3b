"""A pytest plugin that lists the statements of src/certnn that a test run never executes.

Usage, from the repository root:

    PYTHONPATH=src:scripts python -m pytest -p untested_lines --untested-lines untested.txt

Writes one line per statement that never ran, as ``file:line code`` with the
statement's first source line, in file and line order.  The statements are
those ``ast`` finds, less docstrings and ``global``/``nonlocal``
declarations, which run no code.  A statement ran when any line of its
header ran (its decorators, a compound statement's lines before its body,
all lines of a simple statement) in the pytest process or one of its
threads; subprocesses are not traced.  Tracing starts before the initial
conftest files, which import certnn, load, so module-level statements count.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "certnn"
_ran: set[tuple[str, int]] = set()
_watched: dict[str, bool] = {}  # co_filename -> whether it lies under SRC


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _watched:
        _watched[name] = Path(name).resolve().is_relative_to(SRC)
    return _line if _watched[name] else None


def pytest_addoption(parser):
    parser.addoption("--untested-lines", default="untested_lines.txt", help="where to write the list")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_call)
    threading.settrace(_call)


def _headers(tree):
    """(first line, last header line) of each statement that runs code."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(n.body[0]) for n in ast.walk(tree) if isinstance(n, owners) and ast.get_docstring(n)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        yield first, max(first, last)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)
    ran = {(str(Path(f).resolve()), line) for f, line in _ran}
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for first, last in sorted(_headers(ast.parse(text))):
            if not any((str(path), i) in ran for i in range(first, last + 1)):
                out.append(f"{path.relative_to(SRC.parent.parent)}:{first} {lines[first - 1].strip()}\n")
    Path(config.getoption("--untested-lines")).write_text("".join(out))
