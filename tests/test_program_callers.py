"""No routine of the library that only tests call.

Every top-level function and class of ``src/ppchow``, every method of its
classes whose name is not a dunder, and every alias, a binding
``name = <name or attribute>`` at module or class level whose name is not a
dunder (``flat_vertex = VertexTuple.coords``), must be referenced by program
code:
by another definition of ``src/ppchow`` (``__init__.py``, which only
re-exports, does not count), by a demo or by the benchmark in ``perfbench``
(bar its pytest file ``perfbench/selftest.py``).  A routine that only tests
call belongs with the tests, in ``tests/route_oracle.py``.

A reference is a name or an attribute with the definition's name, outside
the lines of the definition itself, or a part of a dotted string such as the
``"polyhedra.Cone.intersect"`` that the benchmark's tracer binds.  The guard
still matches names, not bindings, so a method or an alias counts as called
when any attribute of its name is read.  An alias's own line refers to what
it names, so a routine that only an alias refers to passes while the alias
does.  Uses only ``ast``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ppchow"
PROGRAM = (SRC, ROOT / "demos", ROOT / "perfbench")

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _bound(node):
    """The name a def, a class or an alias ``name = <name or attribute>``
    binds; None for any other statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Name, ast.Attribute))):
        return node.targets[0].id
    return None


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(path):
    """(qualified name, name, first line, last line) of each checked
    definition: top-level defs, classes and aliases, and the methods and
    aliases of classes, bar dunders."""
    out = []
    for node in ast.parse(path.read_text()).body:
        name = _bound(node)
        if name and not _dunder(name):
            out.append((name, name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                attr = None if isinstance(m, ast.ClassDef) else _bound(m)
                if attr and not _dunder(attr):
                    out.append((f"{node.name}.{attr}", attr, m.lineno, m.end_lineno))
    return out


def _references(path):
    """(name, line) of each name, attribute and dotted-string part in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.extend((part, node.lineno) for part in node.value.split("."))
    return out


def _program_files():
    return sorted(p for d in PROGRAM for p in d.rglob("*.py")
                  if p not in (SRC / "__init__.py", ROOT / "perfbench" / "selftest.py"))


def uncalled():
    """(module, qualified name) of each definition with no program reference."""
    refs = {}
    for path in _program_files():
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    return [(path.stem, qual) for path in sorted(SRC.glob("*.py"))
            for qual, name, first, last in _definitions(path)
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ()))]


def test_every_library_routine_has_a_program_caller():
    assert uncalled() == []


def test_aliases_are_checked_definitions(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text("import math\n"
                    "floor = math.floor\n"
                    "ZERO = int(0)\n"
                    "a, b = math.ceil, math.floor\n"
                    "def f():\n"
                    "    return floor\n"
                    "g = f\n"
                    "class C:\n"
                    "    def m(self):\n"
                    "        return 0\n"
                    "    n = m\n"
                    "    __rmul__ = m\n")
    assert [d[0] for d in _definitions(path)] == ["floor", "f", "g", "C", "C.m", "C.n"]
