"""No routine of the library that only tests call.

Every top-level function and class of ``src/ppchow``, and every method of
its classes whose name is not a dunder, must be referenced by program code:
by another definition of ``src/ppchow`` (``__init__.py``, which only
re-exports, does not count), by a demo or by the benchmark in ``perfbench``
(bar its pytest file ``perfbench/selftest.py``).  A routine that only tests
call belongs with the tests, in ``tests/route_oracle.py``.

A reference is a name or an attribute with the definition's name, outside
the lines of the definition itself, or a part of a dotted string such as the
``"polyhedra.Cone.intersect"`` that the benchmark's tracer binds.  Names are
matched, not bindings, so a method counts as called when any attribute of
its name is read.  Uses only ``ast``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ppchow"
PROGRAM = (SRC, ROOT / "demos", ROOT / "perfbench")

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(path):
    """(qualified name, name, first line, last line) of each checked definition."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{m.name}", m.name, m.lineno, m.end_lineno)
                       for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (m.name.startswith("__") and m.name.endswith("__")))
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
