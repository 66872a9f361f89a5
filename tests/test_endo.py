from itertools import permutations

import pytest

from mcluster import endo
from mcluster.arquiver import knit_module_category
from mcluster.cluster import compatibility_graph, enumerate_maximal_m_rigid
from mcluster.derived import DerivedModel, DVertex, _vkey
from mcluster.endo import endo_dims, factor_dims, verify_factor_theorem
from mcluster.errors import InternalCheckError
from mcluster.quiver import preset

import oracles


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def test_endo_a1(world):
    mod = world("A1", 1)
    ed = endo_dims(mod, [V(mod, (1,))])
    assert ed.total_dim == 1
    assert ed.arrows == ((0,),)


def test_endo_a2_projectives(world):
    mod = world("A2", 1)
    ed = endo_dims(mod, [V(mod, (1, 1)), V(mod, (0, 1))])
    assert ed.total_dim == 3
    assert sum(sum(r) for r in ed.arrows) == 1
    assert all(ed.hom_dims[i][i] == 1 for i in range(2))


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1)])
def test_endo_diagonal_is_one(world, name, m):
    mod = world(name, m)
    g = compatibility_graph(mod)
    for o in enumerate_maximal_m_rigid(g):
        ed = endo_dims(mod, o.summands)
        for i in range(len(ed.summands)):
            assert ed.hom_dims[i][i] == 1
            assert ed.arrows[i][i] == 0
        for i in range(len(ed.summands)):
            for j in range(len(ed.summands)):
                assert (
                    ed.arrows[i][j]
                    == ed.hom_dims[i][j] - (i == j) - ed.rad_sq_dims[i][j]
                )
                assert ed.arrows[i][j] >= 0


def test_factor_dims_a2(world):
    mod = world("A2", 1)
    t = frozenset([V(mod, (1, 1)), V(mod, (0, 1))])
    mat = factor_dims(mod, t, V(mod, (1, 1)))
    assert mat == ((1,),)


def test_factor_keeps_diagonal(world):
    mod = world("A3", 1)
    g = compatibility_graph(mod)
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            mat = factor_dims(mod, o.summands, M)
            for i in range(len(mat)):
                assert mat[i][i] >= 1


def test_factor_isolated_summand_equals_restriction(world):
    # A1 x A1-like situation inside A2, m=2: pick an object where M has no
    # maps to or from the other summand, then the factor is the restriction
    mod = world("A2", 2)
    g = compatibility_graph(mod)
    found = False
    for o in enumerate_maximal_m_rigid(g):
        ed = endo_dims(mod, o.summands)
        for idx, M in enumerate(ed.summands):
            if all(
                ed.hom_dims[idx][j] == (idx == j) and ed.hom_dims[j][idx] == (idx == j)
                for j in range(len(ed.summands))
            ):
                rest = [v for v in ed.summands if v != M]
                mat = factor_dims(mod, o.summands, M)
                expect = tuple(
                    tuple(
                        ed.hom_dims[ed.summands.index(a)][ed.summands.index(b)]
                        for b in rest
                    )
                    for a in rest
                )
                assert mat == expect
                found = True
    assert found


def test_factor_theorem_a1_base_case(world):
    mod = world("A1", 1)
    s = V(mod, (1,))
    rep = verify_factor_theorem(mod, frozenset([s]), s)
    assert rep.ok
    assert rep.factor_matrix == ()
    assert rep.localised_matrix == ()


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2)])
def test_factor_theorem_sweep(world, name, m):
    mod = world(name, m)
    g = compatibility_graph(mod)
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            rep = verify_factor_theorem(mod, o.summands, M)
            assert rep.dims_agree, (o.name(), M.name())
            assert rep.arrows_agree, (o.name(), M.name())


def test_factor_additivity_of_quotient(world):
    # quotient dims plus the through-M contribution recover the Hom matrix
    from mcluster.endo import _orbit_span

    mod = world("A3", 1)
    g = compatibility_graph(mod)
    o = enumerate_maximal_m_rigid(g)[0]
    order = sorted(o.summands, key=lambda v: v.name())
    for M in order:
        rest = [v for v in order if v != M]
        mat = factor_dims(mod, o.summands, M)
        for i, a in enumerate(rest):
            for j, b in enumerate(rest):
                sb, _ = _orbit_span(mod, a, b, [M])
                assert sb.width == mod.hom(a, b) + mod.hom(a, mod.g_raw(b))
                assert mat[i][j] + sb.rank == sb.width


def test_factor_algebras_are_read_off_one_end_t(monkeypatch):
    # End(T) is built once per object, with at most one span per ordered
    # pair of summands; the factor algebra at a second summand, and the
    # whole factor theorem there, build no further span over T's model
    spans = []
    orbit_span = endo._orbit_span

    def counted(model, *args):
        spans.append(model)
        return orbit_span(model, *args)

    monkeypatch.setattr(endo, "_orbit_span", counted)
    mod = DerivedModel(knit_module_category(preset("A3")), 1)
    o = enumerate_maximal_m_rigid(compatibility_graph(mod))[0]
    t = o.summands
    first, second = sorted(t, key=_vkey)[:2]

    def built():
        return sum(model is mod for model in spans)

    verify_factor_theorem(mod, t, first)
    spans_of_t = built()
    assert 0 < spans_of_t <= len(t) ** 2
    factor_dims(mod, t, second)
    verify_factor_theorem(mod, t, second)
    assert built() == spans_of_t


@pytest.mark.parametrize(
    "name,m", [("A3", 1), ("A3", 2), ("D4", 1), ("D4", 2), ("A4", 2), ("D5", 1)]
)
def test_skipped_spans_change_no_field_of_end_t(world, name, m):
    mod = world(name, m)
    for o in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        assert endo_dims(mod, o.summands) == oracles.endo_dims(mod, o.summands), o.name()


def test_a_nonzero_g2_component_is_an_internal_error(monkeypatch):
    # Hom(a, Gc) and Hom(c, Gb) both nonzero give composites a -> Gc -> G^2 b,
    # which the span drops because Hom(a, G^2 b) vanishes; E6 m=1 has such
    # triples (A3, D4, A4 and D5 at small m have none)
    mod = DerivedModel(knit_module_category(preset("E6")), 1)

    def h1(x, y):
        return mod.hom(x, mod.g_raw(y))

    for o in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        t = o.sorted_summands()
        meets = [(a, b) for a, c, b in permutations(t, 3) if h1(a, c) and h1(c, b)]
        if meets:
            break
    quiet = [(a, b) for a, b in permutations(t, 2) if (a, b) not in meets]
    assert quiet
    hom = mod.hom

    def nonzero_g2(a, b):
        g2b = mod.g_raw(b, 2)
        monkeypatch.setattr(mod, "hom", lambda x, y: 1 if (x, y) == (a, g2b) else hom(x, y))

    nonzero_g2(*meets[0])
    with pytest.raises(InternalCheckError, match="nonzero G\\^2 component"):
        endo_dims(mod, t)
    # the check reads Hom(a, G^2 b) only for a pair that has such a triple
    nonzero_g2(*quiet[0])
    assert endo_dims(mod, t).summands == t
