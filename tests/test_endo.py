import pytest

from mcluster import endo
from mcluster.arquiver import knit_module_category
from mcluster.cluster import (
    compatibility_graph,
    enumerate_maximal_m_rigid,
    normalize_to_Dminus,
)
from mcluster.derived import DerivedModel, DVertex, _vkey
from mcluster.endo import endo_dims, factor_dims, verify_factor_theorem
from mcluster.quiver import preset


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
        norm = normalize_to_Dminus(mod, o.summands)
        for M in sorted(norm.summands, key=lambda v: v.name()):
            mat = factor_dims(norm.world, norm.summands, M)
            for i in range(len(mat)):
                assert mat[i][i] >= 1


def test_factor_isolated_summand_equals_restriction(world):
    # A1 x A1-like situation inside A2, m=2: pick an object where M has no
    # maps to or from the other summand, then the factor is the restriction
    mod = world("A2", 2)
    g = compatibility_graph(mod)
    found = False
    for o in enumerate_maximal_m_rigid(g):
        norm = normalize_to_Dminus(mod, o.summands)
        ed = endo_dims(norm.world, norm.summands)
        for idx, M in enumerate(ed.summands):
            if all(
                ed.hom_dims[idx][j] == (idx == j) and ed.hom_dims[j][idx] == (idx == j)
                for j in range(len(ed.summands))
            ):
                rest = [v for v in ed.summands if v != M]
                mat = factor_dims(norm.world, norm.summands, M)
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
        norm = normalize_to_Dminus(mod, o.summands)
        for M in sorted(norm.summands, key=lambda v: v.name()):
            rep = verify_factor_theorem(norm.world, norm.summands, M)
            assert rep.dims_agree, (o.name(), M.name())
            assert rep.arrows_agree, (o.name(), M.name())


def test_factor_additivity_of_quotient(world):
    # quotient dims plus the through-M contribution recover the Hom matrix
    from mcluster.endo import _orbit_span

    mod = world("A3", 1)
    g = compatibility_graph(mod)
    o = enumerate_maximal_m_rigid(g)[0]
    norm = normalize_to_Dminus(mod, o.summands)
    order = sorted(norm.summands, key=lambda v: v.name())
    w = norm.world
    for M in order:
        rest = [v for v in order if v != M]
        mat = factor_dims(norm.world, norm.summands, M)
        for i, a in enumerate(rest):
            for j, b in enumerate(rest):
                sb, _ = _orbit_span(w, a, b, [M])
                assert sb.width == w.hom(a, b) + w.hom(a, w.g(b))
                assert mat[i][j] + sb.rank == sb.width


def test_factor_algebras_are_read_off_one_end_t(monkeypatch):
    # End(T) is built once per object, one span per ordered pair of
    # summands; the factor algebra at a second summand, and the whole factor
    # theorem there, build no further span over T's model
    spans = []
    orbit_span = endo._orbit_span

    def counted(model, *args):
        spans.append(model)
        return orbit_span(model, *args)

    monkeypatch.setattr(endo, "_orbit_span", counted)
    mod = DerivedModel(knit_module_category(preset("A3")), 1)
    o = enumerate_maximal_m_rigid(compatibility_graph(mod))[0]
    norm = normalize_to_Dminus(mod, o.summands)
    w, t = norm.world, norm.summands
    first, second = sorted(t, key=_vkey)[:2]

    def built():
        return sum(model is w for model in spans)

    verify_factor_theorem(w, t, first)
    assert built() == len(t) ** 2
    factor_dims(w, t, second)
    verify_factor_theorem(w, t, second)
    assert built() == len(t) ** 2
