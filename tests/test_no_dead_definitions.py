"""Every definition in the package is used by the package.

The commands are what ``ratex`` exists to run, so a function, class or
method that nothing in ``ratex`` references is code for the tests alone
and belongs in ``tests/oracles.py``.  This reads each module with the ast
module: a definition (dunder methods aside) must be referenced somewhere
in the package's modules, as a name, an attribute or an imported name,
outside its own definition; ``__init__.py``, whose imports only re-export,
does not count.
"""

import ast
import pathlib

import ratex

PACKAGE = pathlib.Path(ratex.__file__).parent

# bench/spans.py LAYERS wraps it by name when a --trace 1 run installs its
# tracer, so moving it out would fail every traced benchmark run
ALLOWED = {"polylab.lp_det_and_zeros"}


def dead_definitions(sources: dict) -> list:
    """``module.name`` of each function, class or non-dunder method defined
    in ``sources`` (module name -> source text) that no module references
    outside the definition itself."""
    defined, references = [], []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((module, node))
            elif isinstance(node, ast.Name):
                references.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                references.append((module, node.asname or node.name, node.lineno))
    return sorted(f"{module}.{node.name}" for module, node in defined
                  if not any(name == node.name and not (
                      where == module and node.lineno <= line <= node.end_lineno)
                      for where, name, line in references))


def test_every_definition_is_used_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert set(dead_definitions(sources)) == ALLOWED


def test_the_check_sees_an_unused_function():
    sources = {
        "a": ("def used(x):\n"
              "    return helper(x) + Box.size(x)\n"
              "def helper(x):\n"
              "    return helper(x - 1) if x else 0\n"
              "class Box:\n"
              "    def size(self):\n"
              "        return 1\n"
              "    def __len__(self):\n"
              "        return 1\n"
              "    def spare(self):\n"
              "        return self.spare()\n"),
        "b": ("from a import used\n"
              "def planted():\n"
              "    return used(1)\n"),
    }
    assert dead_definitions(sources) == ["a.spare", "b.planted"]
