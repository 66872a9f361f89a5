import copy
import gc
import random
import re
import weakref

import pytest

from mcluster import endo, localise
from mcluster.arquiver import knit_module_category
from mcluster.cluster import (
    CompatibilityGraph,
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
    is_m_cluster_tilting,
    tilting_modules,
)
from mcluster.derived import DerivedModel, DVertex, _vkey
from mcluster.endo import verify_factor_theorem
from mcluster.errors import CliqueCapExceeded, InternalCheckError
from mcluster.localise import perpendicular_algebra
from mcluster.quiver import make_quiver, positive_roots, preset

from oracles import PairwiseCluster, compatible, naive_maximal_cliques


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


def _assert_graph_matches_the_orbit_sums(model, where):
    """Every rigid bit and every edge of the graph against the orbit sums of
    `hom_orbit`, read pair by pair."""
    g = CompatibilityGraph(model)
    adjacent = compatible(model)
    ks = range(1, model.m + 1)
    for i, x in enumerate(g.nodes):
        rigid = all(model.hom_orbit(x, x, k) == 0 for k in ks)
        assert bool(g.rigid >> i & 1) == rigid, f"{where}: rigidity of {x}"
        for j, y in enumerate(g.nodes):
            assert bool(g.adj[i] >> j & 1) == adjacent(x, y), f"{where}: edge ({x}, {y})"


ORACLE_GRID = [(name, m) for name in ("A2", "A3", "A4", "A5", "D4") for m in (1, 2, 3)]
ORACLE_GRID += [("D5", 2), ("E6", 1), ("E6", 2)]


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("name,m", ORACLE_GRID)
def test_graph_matches_the_orbit_sums(name, m, opposite):
    q = preset(name)
    if opposite:
        q = make_quiver(q.vertices, [(t, s) for s, t in q.arrows])
    model = DerivedModel(knit_module_category(q), m)
    _assert_graph_matches_the_orbit_sums(model, f"{name}{'^op' if opposite else ''} m={m}")


@pytest.mark.parametrize("name,m", [("D4", 1), ("A4", 2)])
def test_graph_matches_the_orbit_sums_on_h_prime_models(name, m):
    model = DerivedModel(knit_module_category(preset(name)), m)
    pds = [perpendicular_algebra(model, DVertex(v, 0)) for v in model.ar.vertices]
    primes = {id(pd.prime_model): pd for pd in pds}.values()
    # a forest on n vertices with fewer than n - 1 arrows is disconnected
    assert any(len(pd.H_prime.arrows) < pd.H_prime.n - 1 for pd in primes)
    for pd in primes:
        _assert_graph_matches_the_orbit_sums(pd.prime_model, f"H' = {pd.H_prime}")


@pytest.mark.parametrize("t", [-2, 2])
def test_a_nonzero_far_orbit_term_raises(monkeypatch, t):
    # one Hom(x, G^t(y)[k]) with |t| = 2 read as nonzero: the build names
    # the pair; G^t is an autoequivalence, so no other domain node y' has
    # that target among its G^{+-2}(y')[k']
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    nodes = fundamental_domain(model)
    x, y = nodes[0], nodes[-1]
    z = model.g_raw(y, t)
    z = DVertex(z.module, z.shift + model.m)
    assert model.hom(x, z) == 0
    hom = model.hom
    monkeypatch.setattr(model, "hom", lambda a, b: 1 if (a, b) == (x, z) else hom(a, b))
    with pytest.raises(InternalCheckError, match=re.escape(f"nonzero for ({x}, {y})")):
        CompatibilityGraph(model)


def _first_near_term(model, t, gap):
    """The first compatible pair (x, y) of the domain and the target
    z = G^t(y)[k], 1 <= k <= m, that lies in degree deg x + gap."""
    g = CompatibilityGraph(model)
    for i, x in enumerate(g.nodes):
        for j, y in enumerate(g.nodes):
            if g.adj[i] >> j & 1:
                w = model.g_raw(y, t)
                for k in range(1, model.m + 1):
                    if w.shift + k == x.shift + gap:
                        return x, y, DVertex(w.module, w.shift + k)
    raise AssertionError(f"no near term with t={t}, gap={gap}")


@pytest.mark.parametrize("t,gap", [(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 1)])
def test_a_nonzero_near_orbit_term_is_read(monkeypatch, t, gap):
    # one Hom(x, G^t(y)[k]) with |t| <= 1 read as nonzero breaks the edge
    # (x, y) in one direction only, so duality cannot hide a term the
    # bitmasks drop (A3 m=2 has no target with t = 1 in degree deg x)
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    x, y, z = _first_near_term(model, t, gap)
    assert compatible(model)(x, y) and model.hom(x, z) == 0
    hom = model.hom
    monkeypatch.setattr(model, "hom", lambda a, b: 1 if (a, b) == (x, z) else hom(a, b))
    assert not compatible(model)(x, y)
    _assert_graph_matches_the_orbit_sums(model, f"A3 m=2, Hom({x}, {z}) = 1")


def test_a_nonzero_self_term_is_read(monkeypatch):
    # Hom(x, x[1]) read as nonzero makes x non-rigid; every Dynkin
    # indecomposable is rigid, so no unpatched model tests the rigid bits
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    x = fundamental_domain(model)[0]
    z = DVertex(x.module, x.shift + 1)
    hom = model.hom
    monkeypatch.setattr(model, "hom", lambda a, b: 1 if (a, b) == (x, z) else hom(a, b))
    assert model.hom_orbit(x, x, 1)
    g = CompatibilityGraph(model)
    assert not g.rigid >> g.index[x] & 1
    _assert_graph_matches_the_orbit_sums(model, f"A3 m=2, Hom({x}, {z}) = 1")


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
    assert g.clique_and_maximal([]) == (True, False)
    for i, v in enumerate(g.nodes):
        # each vertex of the pentagon is completed by its two neighbours
        neighbours = [u for j, u in enumerate(g.nodes) if g.adj[i] >> j & 1]
        assert len(neighbours) == 2 and complements(g, [v]) == neighbours
    for o in enumerate_maximal_m_rigid(g):
        assert g.clique_and_maximal(o.summands) == (True, True)
        for v in o.summands:
            assert g.clique_and_maximal(o.summands - {v}) == (True, False)
            assert v in complements(g, o.summands - {v})


def test_vertex_outside_the_domain_is_rejected(world):
    mod = world("A2", 1)
    g = compatibility_graph(mod)
    far = V(mod, (1, 1), 5)
    message = re.escape(
        f"{far} is not in the fundamental domain (modules at shifts 0..0, "
        "projectives at shift 1)"
    )
    calls = (
        g.mask,
        g.is_clique,
        g.clique_and_maximal,
        lambda t: is_m_cluster_tilting(g, t),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call([V(mod, (0, 1)), far])
    # one summand, n - 1 for A2, so the summand count is accepted first
    with pytest.raises(ValueError, match=message):
        complements(g, [far])


def _outcome(call, *args):
    """What a predicate returns, or ValueError when it raises one."""
    try:
        return call(*args)
    except ValueError:
        return ValueError


def _property_inputs(oracle, rng, rounds):
    """Vertex lists for the predicate property test: the empty list, then per
    round a maximal clique grown at random from the oracle's relation, a random
    prefix of it, it with one summand dropped, that almost complete object
    with a stray vertex added and with a summand repeated, and a random subset
    of the domain."""
    nodes = list(oracle.nodes)
    yield []
    for _ in range(rounds):
        order = rng.sample(nodes, len(nodes))
        clique = []
        for v in order:
            if v in oracle.rigid and all(oracle.adjacent(v, u) for u in clique):
                clique.append(v)
        drop = rng.randrange(len(clique))
        almost = clique[:drop] + clique[drop + 1 :]
        yield clique
        yield clique[: rng.randrange(len(clique) + 1)]
        yield almost
        yield almost + [rng.choice(nodes)]
        yield almost + [rng.choice(almost)]
        yield rng.sample(nodes, rng.randrange(oracle.n + 2))


def _assert_predicates_agree(g, oracle, t, where):
    where = f"{where} on {[v.name() for v in t]}"
    assert g.is_clique(t) == oracle.is_clique(t), where
    assert g.clique_and_maximal(t) == (oracle.is_clique(t), oracle.is_maximal(t)), where
    assert _outcome(complements, g, t) == _outcome(oracle.complements, t), where
    assert _outcome(is_m_cluster_tilting, g, t) == _outcome(
        oracle.is_m_cluster_tilting, t
    ), where


@pytest.mark.parametrize(
    "name,m", [("A3", 1), ("A3", 2), ("D4", 1), ("D5", 2), ("E6", 1)]
)
def test_predicates_match_the_pairwise_oracle(world, name, m):
    # the bitmask predicates against the pair-by-pair oracle on seeded random
    # inputs; every Dynkin node is rigid, so a copy of the graph with one
    # rigid bit cleared reaches the non-rigid branches
    mod = world(name, m)
    g = compatibility_graph(mod)
    oracle = PairwiseCluster(mod)
    rng = random.Random(0)
    inputs = list(_property_inputs(oracle, rng, 12))
    for t in inputs:
        _assert_predicates_agree(g, oracle, t, f"{name} m={m}")
    cleared = rng.choice(inputs[1])  # a summand of the first maximal clique
    g_cleared = copy.copy(g)
    g_cleared.rigid &= ~(1 << g.index[cleared])
    oracle_cleared = PairwiseCluster(mod, nonrigid={cleared})
    # the rest of that clique has the cleared vertex as a common neighbour
    inputs.append([v for v in inputs[1] if v != cleared])
    for t in inputs:
        _assert_predicates_agree(
            g_cleared, oracle_cleared, t, f"{name} m={m}, {cleared.name()} not rigid"
        )


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


def test_separately_built_models_share_no_h_prime_model():
    a, b = (DerivedModel(knit_module_category(preset("D4")), 1) for _ in range(2))
    primes_a, primes_b = (
        {perpendicular_algebra(mod, DVertex(v, 0)).prime_model for v in mod.ar.vertices}
        for mod in (a, b)
    )
    assert len(primes_a) == len(primes_b) == 3
    assert not primes_a & primes_b


def test_layer_caches_release_the_model():
    # graphs, perpendicular data with their vertex images and checked
    # localisations, and the End(T) memo with its composite bits are cached
    # weakly in the model, and no
    # model sits on a reference cycle, so a dropped model and its caches are
    # freed on its last reference together with the H' models built from
    # it, without the cyclic collector; its ARVertex/DVertex pairs are not,
    # as they sit on ARVertex.shifts <-> DVertex.module cycles
    enabled = gc.isenabled()
    gc.disable()
    try:
        held = len(endo._endos), len(localise._perpendicular)
        model = DerivedModel(knit_module_category(preset("D4")), 1)
        g = compatibility_graph(model)
        refs = [weakref.ref(model)]
        for o in enumerate_maximal_m_rigid(g):
            M = min(o.summands, key=_vkey)
            rep = verify_factor_theorem(model, o.summands, M)
            pd = rep.localised.pd
            assert model in endo._endos and pd.images
            assert pd.summand_images and pd.checked_entries
        assert all(endo._endos[model])  # End(T) memo and bits both filled
        for v in model.ar.vertices:
            pd = perpendicular_algebra(model, DVertex(v, 0))
            compatibility_graph(pd.prime_model)
            refs.append(weakref.ref(pd.prime_model))
        assert len({r() for r in refs}) > 2  # more than one H' model
        del model, g, o, pd, rep
        alive = [r() for r in refs if r() is not None]
        assert not alive, f"{len(alive)} of {len(refs)} models outlive their last reference"
        # their memos, bits and perpendicular data went with them
        assert (len(endo._endos), len(localise._perpendicular)) == held
    finally:
        if enabled:
            gc.enable()
