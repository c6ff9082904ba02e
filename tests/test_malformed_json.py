"""Malformed input files are refused, never crashed on.

Each file of ``demos/data`` is mutated, by dropping a key, by putting a value
of another JSON type in place of one, or by cutting its text short, and
``ppchow validate`` reads the result through ``cli.main``.  It must answer
with its JSON report: exit 0 when the mutated file still reads (a dropped
"rays" is an empty list, an integer is a rational) and exit 2 when it is
refused, never exit 1 or 3 or an exception.  Cut text is never JSON, so it
is always refused.  The mutated file sits beside copies of the others, so
the paths it names still resolve.
"""

import contextlib
import io
import json
import pathlib
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from ppchow.cli import main

DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"
FILES = sorted(p.name for p in DATA.glob("*.json"))
# one value of each JSON type, and strings that are no rational
VALUES = [None, True, 0, -3, 0.5, "x", "1/0", [], [1], {}, {"a": 1}]


def _paths(data, path=()):
    """The path of every value below the top of parsed JSON."""
    items = data.items() if isinstance(data, dict) else enumerate(data) \
        if isinstance(data, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _json_type(x):
    return {bool: "bool", int: "number", float: "number"}.get(type(x), type(x).__name__)


@st.composite
def mutations(draw):
    """(file name, mutated text, is the text cut short?)."""
    name = draw(st.sampled_from(FILES))
    text = (DATA / name).read_text()
    how = draw(st.sampled_from(["drop", "retype", "cut"]))
    if how == "cut":
        return name, text[:draw(st.integers(0, len(text.rstrip()) - 1))], True
    data = json.loads(text)
    paths = [p for p in _paths(data) if how == "retype" or isinstance(p[-1], str)]
    path = draw(st.sampled_from(paths))
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    if how == "drop":
        del parent[path[-1]]
    else:
        old = _json_type(parent[path[-1]])
        parent[path[-1]] = draw(st.sampled_from([v for v in VALUES if _json_type(v) != old]))
    return name, json.dumps(data), False


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    for name in FILES:
        shutil.copy(DATA / name, d / name)
    return d


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mutations())
def test_a_mutated_demo_file_is_read_or_refused_with_exit_2(data_dir, case):
    name, text, cut = case
    path = data_dir / f"mutated_{name}"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["validate", str(path)])
    assert status == 2 if cut else status in (0, 2)
    [entry] = json.loads(out.getvalue())["files"]
    assert entry["valid"] is (status == 0)
    assert status == 0 or entry["error"]
    assert not err.getvalue()
