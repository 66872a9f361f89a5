import gc
import weakref

import pytest

from mcluster import endo
from mcluster.arquiver import knit_module_category
from mcluster.cluster import (
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
    is_m_cluster_tilting,
    tilting_modules,
)
from mcluster.derived import DerivedModel, DVertex, _vkey
from mcluster.endo import verify_factor_theorem
from mcluster.errors import CliqueCapExceeded
from mcluster.localise import perpendicular_algebra
from mcluster.quiver import make_quiver, positive_roots, preset

from oracles import compatible, naive_maximal_cliques


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def test_fd_sizes(world):
    assert len(fundamental_domain(world("A1", 2))) == 3
    assert len(fundamental_domain(world("A2", 1))) == 5
    assert len(fundamental_domain(world("A3", 2))) == 15
    mod = world("D4", 2)
    assert len(fundamental_domain(mod)) == 2 * 12 + 4
    for v in fundamental_domain(mod):
        assert 0 <= v.shift <= 2
        if v.shift == 2:
            assert v.module.projective_of is not None


@pytest.mark.parametrize("name,m", [("A1", 2), ("A2", 1), ("A2", 2), ("A3", 1), ("D4", 1)])
def test_everything_self_rigid(world, name, m):
    g = compatibility_graph(world(name, m))
    assert g.rigid == (1 << len(g.nodes)) - 1


def test_self_ext_vanishes_on_indecomposables(world):
    mod = world("A3", 2)
    for v in fundamental_domain(mod):
        for k in range(1, 3):
            assert mod.hom_orbit(v, v, k) == 0


def test_a2_pentagon(world):
    g = compatibility_graph(world("A2", 1))
    assert len(g.nodes) == 5
    degs = [bin(g.adj[i]).count("1") for i in range(5)]
    assert degs == [2] * 5  # the compatibility graph is a 5-cycle


def test_a1_m2_no_edges(world):
    g = compatibility_graph(world("A1", 2))
    assert len(g.nodes) == 3
    assert all(a == 0 for a in g.adj)
    assert g.rigid == (1 << len(g.nodes)) - 1


def test_a2_m1_example_edge(world):
    mod = world("A2", 1)
    s1, p2 = V(mod, (1, 0)), V(mod, (0, 1))
    assert mod.hom_orbit(s1, p2, 1) == 1  # S(1), P(2) do not pair


COUNTS = [
    ("A2", 1, 5),
    ("A2", 2, 12),
    ("A2", 3, 22),
    ("A3", 1, 14),
    ("A3", 2, 55),
    ("D4", 1, 50),
]


@pytest.mark.parametrize("name,m,count", COUNTS)
def test_enumeration_counts(world, name, m, count):
    g = compatibility_graph(world(name, m))
    objs = enumerate_maximal_m_rigid(g)
    assert len(objs) == count
    n = g.n
    assert all(len(o.summands) == n for o in objs)


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1), ("A1", 3)])
def test_enumeration_matches_naive_oracle(world, name, m):
    g = compatibility_graph(world(name, m))
    ours = {o.summands for o in enumerate_maximal_m_rigid(g)}
    naive = naive_maximal_cliques(g.nodes, compatible(world(name, m)))
    assert ours == naive


def test_clique_cap(world):
    g = compatibility_graph(world("A3", 2))
    with pytest.raises(CliqueCapExceeded):
        enumerate_maximal_m_rigid(g, max_cliques=10)


def test_complements_pentagon(world):
    mod = world("A2", 1)
    g = compatibility_graph(mod)
    for i, v in enumerate(g.nodes):
        cs = complements(g, frozenset([v]))
        assert len(cs) == 2
        assert all(compatible(mod)(v, c) for c in cs)


def test_complements_empty_partial(world):
    g = compatibility_graph(world("A1", 2))
    assert len(complements(g, frozenset())) == 3


def test_complements_validates_input(world):
    mod = world("A2", 1)
    g = compatibility_graph(mod)
    with pytest.raises(ValueError):
        complements(g, frozenset([V(mod, (1, 1)), V(mod, (0, 1))]))
    with pytest.raises(ValueError):
        complements(g, frozenset([V(mod, (1, 1), 0), V(mod, (1, 1), 1)]))


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2)])
def test_maximal_iff_cluster_tilting(world, name, m):
    g = compatibility_graph(world(name, m))
    objs = enumerate_maximal_m_rigid(g)
    maximal = {o.summands for o in objs}
    seen = set()
    for o in objs:
        members = sorted(o.summands, key=lambda v: v.name())
        for mask in range(1 << len(members)):
            c = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
            if c in seen:
                continue
            seen.add(c)
            assert is_m_cluster_tilting(g, c) == (c in maximal)


def test_tilting_modules_counts(world):
    assert len(tilting_modules(world("A1", 1).ar)) == 1
    a2 = tilting_modules(world("A2", 1).ar)
    assert len(a2) == 2
    names = {frozenset(v.name for v in t) for t in a2}
    assert names == {frozenset({"11", "01"}), frozenset({"11", "10"})}
    assert len(tilting_modules(world("A3", 1).ar)) == 5


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tilting_modules_embed_as_maximal(world, m):
    mod = world("A3", m)
    g = compatibility_graph(mod)
    maximal = {o.summands for o in enumerate_maximal_m_rigid(g)}
    for t in tilting_modules(mod.ar):
        emb = frozenset(DVertex(v, 0) for v in t)
        assert emb in maximal


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2)])
def test_calabi_yau_symmetry(world, name, m):
    mod = world(name, m)
    fd = fundamental_domain(mod)
    for x in fd:
        for y in fd:
            for k in range(1, m + 1):
                assert mod.hom_orbit(x, y, k) == mod.hom_orbit(y, x, m + 1 - k)


def test_coarse_bound(world):
    for name, m in [("A2", 1), ("A3", 2)]:
        mod = world(name, m)
        g = compatibility_graph(mod)
        for o in enumerate_maximal_m_rigid(g):
            assert len(o.summands) <= (m + 1) * g.n


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 1), ("A3", 2)])
def test_size_n_cliques_are_maximal(world, name, m):
    g = compatibility_graph(world(name, m))
    objs = enumerate_maximal_m_rigid(g)
    assert {len(o.summands) for o in objs} == {g.n}


def test_tilting_modules_every_a3_orientation():
    arrows_options = [
        [("1", "2"), ("2", "3")],
        [("2", "1"), ("2", "3")],
        [("1", "2"), ("3", "2")],
        [("2", "1"), ("3", "2")],
    ]
    for arrows in arrows_options:
        q = make_quiver(["1", "2", "3"], arrows)
        ar = knit_module_category(q)
        tms = tilting_modules(ar)
        assert all(len(t) == 3 for t in tms)
        assert len(positive_roots(q)) == 6


def test_common_neighbours_pentagon(world):
    mod = world("A2", 1)
    g = compatibility_graph(mod)
    assert g.common_neighbours([]) == (1 << 5) - 1
    for i, v in enumerate(g.nodes):
        assert g.common_neighbours([v]) == g.adj[i]
    for o in enumerate_maximal_m_rigid(g):
        assert g.common_neighbours(o.summands) == 0 and g.is_maximal(o.summands)
        for v in o.summands:
            assert not g.is_maximal(o.summands - {v})


def test_vertex_outside_the_domain_is_rejected(world):
    mod = world("A2", 1)
    g = compatibility_graph(mod)
    far = V(mod, (1, 1), 5)
    for call in (g.mask, g.is_clique, g.common_neighbours):
        with pytest.raises(ValueError, match="not in the fundamental domain"):
            call([V(mod, (0, 1)), far])


def test_equal_quivers_share_one_window_model():
    # perpendicular categories with equal quivers get one model
    model = DerivedModel(knit_module_category(preset("D4")), 1)
    primes = {}
    perps = 0
    for o in enumerate_maximal_m_rigid(compatibility_graph(model)):
        for M in o.summands:
            pd = perpendicular_algebra(model, M)
            perps += 1
            assert primes.setdefault(pd.H_prime, pd.prime_model) is pd.prime_model
    assert len(primes) < perps


def test_layer_caches_release_the_model():
    # graphs, perpendicular data with their vertex images and the End(T)
    # memo are cached weakly in the model, and no model sits on a reference
    # cycle, so a dropped model is freed on its last reference together with
    # the H' models built from it, without the cyclic collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = DerivedModel(knit_module_category(preset("D4")), 1)
        g = compatibility_graph(model)
        refs = [weakref.ref(model)]
        for o in enumerate_maximal_m_rigid(g):
            M = min(o.summands, key=_vkey)
            rep = verify_factor_theorem(model, o.summands, M)
            assert model in endo._endos and rep.localised.pd.images
        for v in model.ar.vertices:
            pd = perpendicular_algebra(model, DVertex(v, 0))
            compatibility_graph(pd.prime_model)
            refs.append(weakref.ref(pd.prime_model))
        assert len({r() for r in refs}) > 2  # more than one H' model
        del model, g, o, pd, rep
        alive = [r() for r in refs if r() is not None]
        assert not alive, f"{len(alive)} of {len(refs)} models outlive their last reference"
    finally:
        if enabled:
            gc.enable()
