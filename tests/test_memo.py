"""The one memo behind every derived-data cache.

``polyring._memo`` keeps ``build(obj, *args)`` in ``obj._cache`` under the
key ``(build, *args)``: once per object and arguments, a None result
included, and nothing for a build that raises.  Callers normalize the
arguments before the key is made.  No other code of the package reads or
writes a ``_cache``, so how entries are kept is decided in one place.
"""

import ast
import pathlib
from fractions import Fraction as Q

import pytest

from ppchow import cycles, limits, polyring, ppfan, specialfiber
from ppchow.errors import IncompleteInput, NotARefinement
from ppchow.fixtures import f2_complex, f3_complex, f5_complex, f6_complex
from ppchow.polyhedra import (Cone, Fan, FanMap, ModelMap, build_complex, cone_over,
                              rec_fan_as_complex, recession_fan, refines, vertex_chart)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ppchow"


def _routines():
    """(name, call) for each memoized routine, on fresh fixtures."""
    f2, f5, f3 = f2_complex(), f5_complex(), f3_complex()
    m = refines(f5, f2)
    fan = cone_over(f5).fan
    zero = (Q(0),)
    split = next(t for t in range(len(m.fan_map.target.maximal))
                 if m.fan_map.max_map.count(t) > 1)
    return [
        ("cone_over", lambda: cone_over(f5)),
        ("recession_fan", lambda: recession_fan(f5)),
        ("vertex_chart", lambda: vertex_chart(f5, zero)),
        ("refines", lambda: refines(f5, f2)),
        ("chart_map", lambda: m.chart_map(zero)),
        ("adjacency", lambda: f5.adjacency()),
        ("vanishing_rows",
         lambda: polyring._vanishing_rows(fan.adjacency()[0][2], fan.rank, 2)),
        ("is_complete", lambda: f3.is_complete()),
        ("is_regular", lambda: cone_over(f3).fan.is_regular()),
        ("vertices", lambda: f5.vertices),
        ("bounded_edges", lambda: f5.bounded_edges),
        ("dual_forms", lambda: ppfan.dual_forms(fan.cones[fan.maximal[0]], 2)),
        ("covering", lambda: ppfan._covering(m.fan_map, 0)),
        ("localization", lambda: ppfan._localization(m.fan_map, split)),
        ("phi_ray_pieces", lambda: ppfan._phi_ray_pieces(fan, ppfan._ray_vector(fan, (0, 1)))),
        ("table", lambda: specialfiber._table(f5)),
        ("zeros", lambda: specialfiber._table(f5).zeros(1)),
        ("sides", lambda: specialfiber._table(f5).sides()),
        ("incident", lambda: specialfiber._table(f5).incident()),
        ("vertex_layer_basis", lambda: specialfiber.vertex_layer_basis(f5, 1)),
        ("gamma_image_matrix", lambda: specialfiber.gamma_image_matrix(f5, 1)),
        ("gamma_span", lambda: specialfiber._gamma_span(f5, 1)),
        ("slice_system", lambda: specialfiber._slice_system(f5, 1)),
        ("expand_system", lambda: specialfiber._expand_system(f5, 2)),
        ("generator", lambda: cycles._generator(fan, fan.cones[fan.maximal[0]].rays)),
        ("cone_system", lambda: cycles._cone_system(fan, 1)),
        ("vertex_system", lambda: limits._vertex_system(f5, 1)),
        ("pp_system", lambda: limits._pp_system(f5, 1)),
        ("column closed", lambda: limits._column(m, "closed", 1, 0)),
        ("column tilde", lambda: limits._column(m, "tilde", 1, 0)),
        ("column pp", lambda: limits._column(m, "pp", 2, 1)),
    ]


def test_a_second_call_returns_the_same_object():
    for name, call in _routines():
        first = call()
        assert call() is first, name


def test_each_argument_has_its_own_entry():
    pc = f5_complex()
    zero, one = specialfiber.vertex_layer_basis(pc, 0), specialfiber.vertex_layer_basis(pc, 1)
    assert zero is not one and len(zero) != len(one)
    assert specialfiber.vertex_layer_basis(pc, 0) is zero
    assert specialfiber.vertex_layer_basis(pc, 1) is one
    # an equal model is another object, with entries of its own
    assert specialfiber.vertex_layer_basis(f5_complex(), 0) is not zero


def test_arguments_are_normalized_ahead_of_the_key():
    pc = f2_complex()
    chart = vertex_chart(pc, (0,))
    assert vertex_chart(pc, (Q(0),)) is chart
    assert all(type(x) is Q for x in chart.vertex)


def _entries(obj, routine):
    return [key for key in obj._cache if key[0] is routine.__wrapped__]


def test_a_build_that_raises_keeps_nothing():
    segment = build_complex([([(0,), (1,)], [])], rank=1)
    for _ in range(2):
        with pytest.raises(IncompleteInput):
            recession_fan(segment)
    assert not _entries(segment, recession_fan)
    # the charts at the origin of F3C and of the square's complex are not nested
    square = rec_fan_as_complex(Fan(2, [Cone(2, rays) for rays in (
        [(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)])]))
    m = ModelMap(square, f3_complex(), None, None)
    for _ in range(2):
        with pytest.raises(NotARefinement, match="not nested"):
            m.chart_map((Q(0), Q(0)))
    assert not _entries(m, ModelMap.chart_map)


def test_a_none_result_is_kept():
    coarse, fine = f2_complex(), f6_complex()
    build = FanMap.from_subdivision
    with pytest.MonkeyPatch.context() as mp:
        runs = []
        mp.setattr(FanMap, "from_subdivision", lambda *args: runs.append(args) or build(*args))
        assert refines(coarse, fine) is None
        assert refines(coarse, fine) is None
    assert len(runs) == 1
    assert len(_entries(coarse, refines)) == 1


def _cache_uses(source):
    """Line numbers of the reads and writes of ``_cache`` outside ``_memo``,
    leaving out ``__slots__`` entries and ``_cache = {}`` initializers."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_memo":
            allowed.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.Assign) and (
                any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
                or isinstance(node.value, ast.Dict) and not node.value.keys
                and all(isinstance(t, ast.Attribute) for t in node.targets)):
            allowed.update(map(id, ast.walk(node)))
    return [node.lineno for node in ast.walk(tree) if id(node) not in allowed and (
        isinstance(node, ast.Attribute) and node.attr == "_cache"
        or isinstance(node, ast.Constant) and node.value == "_cache")]


def test_only_the_memo_reads_or_writes_a_cache():
    assert _cache_uses("x._cache['k'] = 1\ny = getattr(x, '_cache')\n") == [1, 2]
    for path in sorted(SRC.glob("*.py")):
        assert _cache_uses(path.read_text()) == [], path.name
