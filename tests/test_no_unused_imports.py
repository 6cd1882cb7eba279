"""Every module-level import in the package is used.

The repository has no linter, so this reads each module of ``ratex`` with
the ast module: a name that a module-level import binds must be referenced
somewhere in that module (as a name, the base of an attribute, or an entry
of ``__all__``).  An import line marked ``# noqa: F401`` is a deliberate
re-export and passes.
"""

import ast
import pathlib

import ratex

PACKAGE = pathlib.Path(ratex.__file__).parent


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import binding that nothing in
    ``source`` references, re-exports marked ``# noqa: F401`` excepted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        marked = any("noqa: F401" in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not marked:
                bound.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in used]


def test_every_module_level_import_is_used():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .polylab import lp_mul, trim_dust\n"
              "from .wienerhopf import wh_factorize  # noqa: F401 (re-export)\n"
              "__all__ = ['trim_dust']\n"
              "def f(x):\n"
              "    return np.abs(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "lp_mul")]
