import pytest

from mcluster.arquiver import knit_module_category
from mcluster.quiver import euler_form, make_quiver, positive_roots, preset

from oracles import hom_dim_intervals, interval_dim_vector, interval_modules

PRESETS = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"]


def test_zero_algebra_knits_to_an_empty_ar_quiver():
    # the H' of a localisation over A1: no vertices, so no modules
    ar = knit_module_category(make_quiver([], [], connected=False))
    assert ar.n == 0
    assert not (ar.vertices or ar.arrows or ar.meshes or ar.projectives or ar.injectives)


def test_a1_structure():
    ar = knit_module_category(preset("A1"))
    assert len(ar.vertices) == 1
    v = ar.vertices[0]
    assert v.projective_of == "1" and v.injective_of == "1"
    assert ar.tau == {}
    assert ar.tau.get(v) is None


def test_a2_structure():
    ar = knit_module_category(preset("A2"))
    names = [v.name for v in ar.vertices]
    assert sorted(names) == ["01", "10", "11"]
    assert ar.by_dim[(1, 1)].projective_of == "1"
    assert ar.by_dim[(0, 1)].projective_of == "2"
    assert ar.by_dim[(1, 0)].injective_of == "1"
    assert ar.by_dim[(1, 1)].injective_of == "2"
    arrow_names = {(a.name, b.name) for a, b in ar.arrows}
    assert arrow_names == {("01", "11"), ("11", "10")}
    assert ar.tau[ar.by_dim[(1, 0)]] is ar.by_dim[(0, 1)]
    assert ar.by_dim[(1, 1)] not in ar.tau


@pytest.mark.parametrize("name", PRESETS)
def test_vertex_count_matches_roots(name):
    q = preset(name)
    ar = knit_module_category(q)
    assert len(ar.vertices) == len(positive_roots(q))
    assert len(ar.projectives) == q.n == len(ar.injectives)


@pytest.mark.parametrize("name", PRESETS)
def test_mesh_additivity(name):
    ar = knit_module_category(preset(name))
    for start, mids, end in ar.meshes:
        total = tuple(sum(w.dim[i] for w in mids) for i in range(ar.n))
        assert tuple(s + e for s, e in zip(start.dim, end.dim)) == total


@pytest.mark.parametrize("name", PRESETS)
def test_tau_is_a_bijection_off_the_ends(name):
    ar = knit_module_category(preset(name))
    non_proj = [v for v in ar.vertices if v.projective_of is None]
    non_inj = [v for v in ar.vertices if v.injective_of is None]
    assert sorted(v.name for v in ar.tau) == sorted(v.name for v in non_proj)
    assert sorted(v.name for v in ar.tau.values()) == sorted(
        v.name for v in non_inj
    )


@pytest.mark.parametrize("name", PRESETS)
def test_arrows_respect_slice_order(name):
    ar = knit_module_category(preset(name))
    for a, b in ar.arrows:
        assert a.slice_index < b.slice_index


@pytest.mark.parametrize("name", PRESETS)
def test_projective_hom_base_case(name):
    # dim Hom(P(i), M) equals the dimension of M at vertex i
    q = preset(name)
    ar = knit_module_category(q)
    for i, p in ar.projectives.items():
        idx = q.index(i)
        for mvert in ar.vertices:
            assert ar.hom(p, mvert) == mvert.dim[idx]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hammock_matches_intertwiner_oracle(n):
    q = preset(f"A{n}")
    ar = knit_module_category(q)
    for a in interval_modules(n):
        for b in interval_modules(n):
            va = ar.by_dim[interval_dim_vector(n, a)]
            vb = ar.by_dim[interval_dim_vector(n, b)]
            assert ar.hom(va, vb) == hom_dim_intervals(n, a, b)


@pytest.mark.parametrize("name", PRESETS)
def test_euler_identity_for_hom_minus_ext(name):
    q = preset(name)
    ar = knit_module_category(q)
    for x in ar.vertices:
        for y in ar.vertices:
            assert ar.hom(x, y) - ar.ext(x, y) == euler_form(q, x.dim, y.dim)
