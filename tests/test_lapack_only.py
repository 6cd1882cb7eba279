"""Only ratex.lapack calls LAPACK directly.

Read with the ast module, no module of ``ratex`` but ``lapack.py`` may
refer to numpy's ``_umath_linalg`` or import from ``numpy.linalg`` (its
LinAlgError excepted), and each ``np.linalg.<name>(...)`` call outside it
must be one of ALLOWED: the calls ratex.lapack does not wrap, on paths
no benchmark job takes.  An ALLOWED pair whose call no longer occurs is
stale, and fails too, so an allowance cannot outlive its call site.
"""

import ast
import pathlib

import ratex

PACKAGE = pathlib.Path(ratex.__file__).parent

ALLOWED = {
    ("resolve.py", "det"),          # spectral_density's error message, after a failed solve
    ("wienerhopf.py", "lstsq"),     # _newton_divisor, where the split misses its residual
}


def direct_lapack(source: str, module: str, allowed=ALLOWED) -> list:
    """(line, what) of each way ``source`` reaches LAPACK around ratex.lapack,
    the ``np.linalg`` calls of ``allowed`` pairs aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name != "LinAlgError"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.Name) and node.id == "_umath_linalg" or (
                isinstance(node, ast.Attribute) and node.attr == "_umath_linalg"):
            found.append((node.lineno, "_umath_linalg"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
              and isinstance(node.func.value.value, ast.Name)
              and node.func.value.value.id in ("np", "numpy")
              and node.func.attr != "LinAlgError" and (module, node.func.attr) not in allowed):
            found.append((node.lineno, f"np.linalg.{node.func.attr}"))
    return sorted(found)


def test_only_the_lapack_module_calls_lapack():
    found = {path.name: direct_lapack(path.read_text(encoding="utf-8"), path.name)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "lapack.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_every_allowance_has_its_call():
    calls = {(path.name, what.removeprefix("np.linalg."))
             for path in PACKAGE.glob("*.py") if path.name != "lapack.py"
             for _, what in direct_lapack(path.read_text(encoding="utf-8"), path.name, ())}
    assert ALLOWED - calls == set()


def test_the_check_sees_each_way_around():
    source = ("import numpy as np\n"
              "from numpy.linalg import LinAlgError, _umath_linalg\n"
              "def f(a):\n"
              "    np.linalg.norm(a, axis=1)\n"
              "    _umath_linalg.svd(a)\n"
              "    np.linalg.det(a)\n"
              "    raise np.linalg.LinAlgError('x')\n")
    assert direct_lapack(source, "polylab.py") == [
        (2, "import _umath_linalg"), (4, "np.linalg.norm"), (5, "_umath_linalg"),
        (6, "np.linalg.det")]
    assert direct_lapack(source, "resolve.py")[-1] == (5, "_umath_linalg")
