"""Line census: every statement inside a function of ``ratex`` runs under
the test suite, or ALLOWED names it with the reason no test can reach it.

An opt-in pytest plugin, outside Tier-1 because its tracer nearly doubles
the suite's run time (22-24 s against 13.5 s for Tier-1 on a 2-CPU Intel
Xeon).  Run it over the whole suite (a selection of tests leaves
statements unreached):

    PYTHONPATH=src:tests python -m pytest -q -p line_census

The session fails on a statement that did not run and is not in ALLOWED,
and on an entry of ALLOWED whose statement did run.  The tracer starts in
the first hook a ``-p`` plugin gets, before conftest.py imports ratex, so
code that runs at import counts; importing this module (as the census's
own test does) starts nothing.  A statement ran when a line event fell on
one of its own lines: its lines less those of the statements it holds.
Docstrings, ``global`` and ``nonlocal`` have no bytecode and are skipped.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

# (function, first line of the statement) -> why no test reaches it
ALLOWED = {
    ("wienerhopf._split_zeros", "a, e, agree[i] = np.zeros((0, 0)), None, False"):
        "handles the SingularMatrixError that _deflate_infinite can return for a "
        "singular trailing pencil; a search of about 26,000 split cases never met one",
    ("wienerhopf._newton_divisor", "break"):
        "handles the LinAlgError that lstsq can return when its SVD does not "
        "converge; a search of about 26,000 split cases never met one",
}


def statements(source: str) -> list:
    """(qualified function name, first line, own lines) of each statement
    inside a function of ``source``, docstrings, ``global`` and
    ``nonlocal`` left out."""
    found = []

    def visit(body, scope, inside, documented):
        for k, node in enumerate(body):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            docstring = (documented and k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if inside and not docstring and not isinstance(node, (ast.Global, ast.Nonlocal)):
                own = set(range(first, node.end_lineno + 1))
                for inner in ast.walk(node):
                    if isinstance(inner, ast.stmt) and inner is not node:
                        own -= set(range(inner.lineno, inner.end_lineno + 1))
                found.append((scope, first, own or {first}))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, f"{scope}.{node.name}".lstrip("."),
                      inside or not isinstance(node, ast.ClassDef), True)
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, ()), scope, inside, False)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body, scope, inside, False)

    visit(ast.parse(source).body, "", False, False)
    return found


def unreached(source: str, hits: set) -> list:
    """(function, line, text) of each statement of :func:`statements` none
    of whose own lines is in ``hits``."""
    lines = source.splitlines()
    return [(scope, first, lines[first - 1].strip())
            for scope, first, own in statements(source) if not own & hits]


class Recorder:
    """``sys.settrace`` function recording the line events of the frames
    whose code file ``wanted`` accepts: ``files`` maps each such file to
    its lines that ran."""

    def __init__(self, wanted):
        self.wanted, self.files = wanted, {}

    def call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.files:
            self.files[name] = set() if self.wanted(name) else None
        return None if self.files[name] is None else self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.files[frame.f_code.co_filename].add(frame.f_lineno)
        return self.line


# found without importing ratex, whose import must run under the tracer
PACKAGE = pathlib.Path(
    importlib.util.find_spec("ratex").submodule_search_locations[0]).resolve()
_recorder = Recorder(lambda name: pathlib.Path(name).resolve().parent == PACKAGE)
_report = []


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    sys.settrace(_recorder.call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    hits = {}
    for name, lines in _recorder.files.items():
        if lines is not None:
            hits.setdefault(pathlib.Path(name).resolve(), set()).update(lines)
    missed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, line, text in unreached(path.read_text(encoding="utf-8"),
                                           hits.get(path, set())):
            key = (f"{path.stem}.{scope}", text)
            missed.add(key)
            if key not in ALLOWED:
                _report.append(f"unreached: {path.name}:{line} in {key[0]}: {text}")
    _report.extend(f"allowed but reached: {name}: {text}"
                   for name, text in ALLOWED if (name, text) not in missed)
    if _report:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)
