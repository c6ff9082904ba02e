"""JSON round trips of every file kind through ``io.read``.

Each kind's writer dumps an object to a file, ``io.read`` reads it back as
that kind, and the object read back equals the original (a complex is the
same model) and dumps to the same bytes again.  The kinds are the complex,
the polynomial, the PP function on the cone over a model, the affine PP
function and the vertex tuple, each file naming its complex, the cycle and
the chain of models.  The objects are drawn with rational coefficients on
the fixture models and on refinements of F3C.
"""

import os
import tempfile
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

import route_oracle
from ppchow import io as pio
from ppchow.cycles import InvariantCycle
from ppchow.fixtures import all_fixture_models, p1_chain, p2_chain
from ppchow.limits import ModelChain
from ppchow.polyhedra import cone_over, recession_fan
from ppchow.ppfan import graded_basis, zero_pp
from ppchow.specialfiber import (AffinePP, dim_affine_pp, vertex_layer_basis,
                                 zero_vertex_tuple)

FIXTURES = all_fixture_models()


def _rational(draw):
    return Q(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


def _combination(draw, zero, basis):
    return zero.combine(basis, [_rational(draw) for _ in basis])


def _write(directory, name, data):
    path = os.path.join(directory, name)
    pio.dump_json(data, path)
    return path


def _round_trip(directory, name, data, kind, domain=None, complexes=None):
    """The object read back from ``data`` written as ``name``, and the
    bytes of the file."""
    path = _write(directory, name, data)
    with open(path) as fh:
        text = fh.read()
    return pio.read(path, kind, domain, complexes=complexes), text


def _same_bytes(data, text):
    assert pio.dump_json(data) + "\n" == text


def _check_model(draw, directory, pc, k):
    # one command's reads: the complex is read once, as the files name it
    complexes = {}
    back, text = _round_trip(directory, "complex.json", pio.complex_to_json(pc), "complex",
                             complexes=complexes)
    assert back.same_as(pc)
    _same_bytes(pio.complex_to_json(back), text)
    # each piecewise file names the complex just written
    fan = cone_over(pc).fan
    f = _combination(draw, zero_pp(fan, k), graded_basis(fan, k))
    a = _combination(draw, AffinePP(pc, k, {}), dim_affine_pp(pc, k)[1])
    t = _combination(draw, zero_vertex_tuple(pc, k), vertex_layer_basis(pc, k))
    for obj, kind, dump in ((f, "pp", pio.pp_to_json), (a, "affine", pio.affine_to_json),
                            (t, "vertex_tuple", pio.vertex_tuple_to_json)):
        got, text = _round_trip(directory, kind + ".json",
                                {"complex": "complex.json", **dump(obj)}, kind,
                                complexes=complexes)
        assert got == obj
        _same_bytes({"complex": "complex.json", **dump(got)}, text)
    for p in f.pieces + a.pieces:
        got, text = _round_trip(directory, "poly.json", pio.poly_to_json(p), "polynomial")
        if not p.is_zero():
            # a polynomial file gives its variables by its exponents only
            assert got == p
        _same_bytes(pio.poly_to_json(got), text)


def _check_cycle(draw, directory, chain):
    rec = recession_fan(chain.models[0])
    codim = draw(st.integers(0, rec.rank))
    cones = [c.rays for c in rec.cones if c.dim == codim]
    keys = draw(st.lists(st.sampled_from(cones), max_size=3, unique=True))
    z = InvariantCycle(rec.rank, codim, {key: _rational(draw) for key in keys})
    data = route_oracle.cycle_to_json(z)
    # at the chain's rank, as the commands read it
    got, text = _round_trip(directory, "cycle.json", data, "cycle", chain)
    assert got == z
    _same_bytes(route_oracle.cycle_to_json(got), text)
    if any(key for key in z.terms):
        # a cycle with a ray gives its own rank
        assert pio.read(os.path.join(directory, "cycle.json"), "cycle") == z


def _check_chain(directory, chain):
    names = [f"model{i}.json" for i in range(len(chain))]
    dumps = [pio.complex_to_json(pc) for pc in chain.models]
    for name, data in zip(names, dumps):
        _write(directory, name, data)
    chain_data = {"models": [{"complex": name} for name in names]}
    got, text = _round_trip(directory, "chain.json", chain_data, "tower")
    assert len(got) == len(chain)
    assert all(a.same_as(b) for a, b in zip(got.models, chain.models))
    assert [pio.dump_json(pio.complex_to_json(pc)) for pc in got.models] == [
        pio.dump_json(data) for data in dumps]
    _same_bytes(chain_data, text)


@settings(derandomize=True, max_examples=2, deadline=None)
@given(st.data())
def test_fixture_files_read_back_as_written(data):
    with tempfile.TemporaryDirectory() as directory:
        for pc in FIXTURES.values():
            _check_model(data.draw, directory, pc, data.draw(st.integers(0, 2)))
            _check_cycle(data.draw, directory, ModelChain([pc]))


@settings(derandomize=True, max_examples=2, deadline=None)
@given(st.data())
def test_refined_f3c_files_read_back_as_written(data):
    choices = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=2))
    chain = ModelChain([route_oracle.refined_f3c(choices[:i]) for i in range(len(choices) + 1)])
    with tempfile.TemporaryDirectory() as directory:
        _check_model(data.draw, directory, chain.models[-1], data.draw(st.integers(0, 2)))
        _check_cycle(data.draw, directory, chain)
        _check_chain(directory, chain)


def test_the_fixture_chains_read_back_as_written():
    with tempfile.TemporaryDirectory() as directory:
        for models in (p1_chain(), p2_chain(), [FIXTURES["F6"]]):
            _check_chain(directory, ModelChain(models))
