import re

import pytest

from mcluster.cluster import compatibility_graph, complements, enumerate_maximal_m_rigid
from mcluster.derived import DVertex, _vkey
from mcluster.localise import (
    approximation_triangle,
    localise_object,
    perpendicular_algebra,
    project_to_D0,
)
from mcluster.quiver import dynkin_type

from oracles import in_D0


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def projectives_of_U(pd):
    """The members of U_M that module_map sends to projectives of H'."""
    return [u for u in pd.U_members if pd.module_map[u].projective_of is not None]


def test_is_in_D0_basics(world):
    mod = world("A2", 1)
    p1, s1 = V(mod, (1, 1)), V(mod, (1, 0))
    # M = P(1): only P(2) survives
    assert [u.name for u in perpendicular_algebra(mod, p1).U_members] == ["01"]
    # M = S(1): only P(1) survives
    assert [u.name for u in perpendicular_algebra(mod, s1).U_members] == ["11"]


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_U_members_match_D0_oracle(world, name):
    # u lies in U_M exactly when no window shift of M maps to u, at every
    # shift whose neighbours the window holds
    mod = world(name, 1)
    for base in mod.ar.vertices:
        M = DVertex(base, 0)
        members = set(perpendicular_algebra(mod, M).U_members)
        for u in mod.ar.vertices:
            for s in (0, 1):
                assert in_D0(mod, DVertex(u, s), M) == (u in members)


def test_perpendicular_a2(world):
    mod = world("A2", 1)
    pd = perpendicular_algebra(mod, V(mod, (1, 1)))
    assert [u.name for u in pd.U_members] == ["01"]
    assert [p.name for p in projectives_of_U(pd)] == ["01"]
    assert dynkin_type(pd.H_prime) == "A1"


def test_perpendicular_a3(world):
    mod = world("A3", 1)
    pd = perpendicular_algebra(mod, V(mod, (1, 1, 1)))
    assert pd.H_prime.n == 2
    assert len(pd.U_members) == len(pd.prime_model.ar.vertices)
    # the middle simple of the linear orientation glues the ends to an A2
    mid = V(mod, (0, 1, 0))
    pd2 = perpendicular_algebra(mod, mid)
    assert pd2.H_prime.n == 2
    assert dynkin_type(pd2.H_prime) == "A2"


def test_perpendicular_can_be_disconnected():
    # for 1 -> 2 <- 3 the middle simple is projective and its perpendicular
    # category is the product of the two outer points
    from mcluster.arquiver import knit_module_category
    from mcluster.derived import DerivedModel
    from mcluster.quiver import make_quiver

    q = make_quiver(["1", "2", "3"], [("1", "2"), ("3", "2")])
    mod = DerivedModel(knit_module_category(q), 1)
    pd = perpendicular_algebra(mod, V(mod, (0, 1, 0)))
    assert dynkin_type(pd.H_prime) == "A1xA1"
    assert sorted(u.name for u in pd.U_members) == ["001", "100"]


@pytest.mark.parametrize(
    "name,m",
    [("A2", 1), ("A3", 1), ("A3", 2), ("A4", 1), ("A5", 1), ("D4", 1), ("D5", 1)],
)
def test_perpendicular_count_always_n_minus_1(world, name, m):
    mod = world(name, m)
    for v in mod.ar.vertices:
        pd = perpendicular_algebra(mod, DVertex(v, 0))
        assert pd.H_prime.n == mod.quiver.n - 1


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_perpendicular_projectives_keep_their_labels(world, name):
    # the H' vertex a+1 belongs to the a-th projective of U_M in directed
    # order, so the image of that projective is P(a+1) over H'
    mod = world(name, 1)
    for v in mod.ar.vertices:
        pd = perpendicular_algebra(mod, DVertex(v, 0))
        reps = sorted(projectives_of_U(pd), key=lambda p: _vkey(DVertex(p, 0)))
        for a, p in enumerate(reps):
            assert pd.module_map[p] is pd.prime_model.ar.projectives[str(a + 1)]


def test_project_idempotent_and_kills_M(world):
    mod = world("A2", 1)
    M = V(mod, (1, 1))
    pd = perpendicular_algebra(mod, M)
    w = V(mod, (0, 1), 0)
    assert project_to_D0(mod, w, pd) == {w: 1}
    for j in range(0, 2):
        assert not project_to_D0(mod, DVertex(M.module, j), pd)


def test_project_a2_example(world):
    mod = world("A2", 1)
    pd = perpendicular_algebra(mod, V(mod, (1, 1)))
    out = project_to_D0(mod, V(mod, (1, 0)), pd)
    assert out == {V(mod, (0, 1), 1): 1}


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 1), ("A3", 2), ("D4", 1)])
def test_project_preserves_fingerprint(world, name, m):
    # the solve reads only the degrees of w and one above; the fingerprint
    # must hold against all of D0 in the window
    mod = world(name, m)
    lo, hi = mod.window
    for base in mod.ar.vertices:
        M = DVertex(base, 0)
        pd = perpendicular_algebra(mod, M)
        d0 = [DVertex(u, i) for u in pd.U_members for i in range(lo, hi)]
        for w in [DVertex(v, s) for v in mod.ar.vertices for s in (0, 1)]:
            img = project_to_D0(mod, w, pd)
            for u in d0:
                lhs = sum(c * mod.hom(v, u) for v, c in img.items())
                assert lhs == mod.hom(w, u)


def test_approximation_triangle_a2(world):
    mod = world("A2", 1)
    M = V(mod, (1, 1))
    pd = perpendicular_algebra(mod, M)
    source, cone = approximation_triangle(mod, V(mod, (1, 0)), pd)
    assert source == {M: 1}
    assert cone == {V(mod, (0, 1), 1): 1}
    # object already perpendicular: empty approximation
    source, cone = approximation_triangle(mod, V(mod, (0, 1)), pd)
    assert not source
    assert cone == {V(mod, (0, 1)): 1}


@pytest.mark.parametrize("name,m", [("A3", 1), ("A3", 2)])
def test_approximation_postconditions_sweep(world, name, m):
    # approximation_triangle raises unless [x] - [C] = [cone] in K0; the
    # identity only has teeth where the source C is non-zero
    mod = world(name, m)
    g = compatibility_graph(mod)
    nonzero = 0
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            pd = perpendicular_algebra(mod, M)
            for x in sorted(o.summands - {M}, key=lambda v: v.name()):
                source, _ = approximation_triangle(mod, x, pd)
                nonzero += bool(source)
    assert nonzero


def test_localise_a2_example(world):
    mod = world("A2", 1)
    t = frozenset([V(mod, (1, 1)), V(mod, (0, 1))])
    loc = localise_object(mod, t, V(mod, (1, 1)))
    assert len(loc.prime_summands) == 1
    (img,) = loc.prime_summands
    assert img.shift == 0


def test_localise_validates(world):
    mod = world("A2", 1)
    t = frozenset([V(mod, (1, 1)), V(mod, (0, 1))])
    with pytest.raises(ValueError):
        localise_object(mod, t, V(mod, (1, 0)))


@pytest.mark.parametrize(
    "dim,shift",
    [((1, 0), 1), ((0, 1), 2), ((0, 1), -1)],
    ids=["non-projective-at-m", "shift-m+1", "negative-shift"],
)
def test_localise_refuses_a_summand_outside_the_domain(world, dim, shift):
    mod = world("A2", 1)
    bad = V(mod, dim, shift)
    t = frozenset([V(mod, (1, 1)), bad])
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not in the fundamental domain (")):
        localise_object(mod, t, bad)


@pytest.mark.parametrize("name,m", [("A3", 1), ("A3", 2), ("D4", 1)])
def test_localise_at_a_projective_in_degree_m(world, name, m):
    # the perpendicular category of P_i[m] is that of P_i[0], so the pair
    # localises in the model where it is named, to n - 1 summands
    mod = world(name, m)
    g = compatibility_graph(mod)
    pairs = 0
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=_vkey):
            if M.shift == m:
                loc = localise_object(mod, o.summands, M)
                assert len(loc.prime_summands) == g.n - 1
                pairs += 1
    assert pairs


def test_localise_a1_gives_zero_algebra(world):
    mod = world("A1", 1)
    s = V(mod, (1,))
    loc = localise_object(mod, frozenset([s]), s)
    assert loc.prime_summands == frozenset()
    assert loc.pd.H_prime.n == 0


@pytest.mark.parametrize("name,m", [("A3", 1), ("A3", 2)])
def test_localisation_full_sweep(world, name, m):
    # image summand counts, domain membership and maximality are asserted
    # inside localise_object; complement counts transfer as well
    mod = world(name, m)
    g = compatibility_graph(mod)
    n = g.n
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            loc = localise_object(mod, o.summands, M)
            assert len(loc.prime_summands) == n - 1
            pg = compatibility_graph(loc.pd.prime_model)
            for v in loc.prime_summands:
                cs = complements(pg, loc.prime_summands - {v})
                assert len(cs) == m + 1


def test_tau_commutes_with_projection(world):
    mod = world("A3", 1)
    for base in mod.ar.vertices:
        M = DVertex(base, 0)
        pd = perpendicular_algebra(mod, M)
        for u in pd.U_members:
            for s in (0, 1):
                x = DVertex(u, s)
                titled = project_to_D0(mod, mod.tau_inv_raw(x), pd)
                assert list(titled.values()) == [1]
                image = pd.to_prime(next(iter(titled)))
                direct = pd.prime_model.tau_inv_raw(pd.to_prime(x))
                assert image == direct


def test_zero_detection_factoring(world):
    # maps killed by localisation are exactly those through shifts of M:
    # dim Hom(x, proj y) = dim Hom(x, y) - dim(maps through the M class)
    mod = world("A3", 1)
    mesh = mod.mesh_category()
    g = compatibility_graph(mod)
    lo, hi = mod.window
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            pd = perpendicular_algebra(mod, M)
            shifts = [
                DVertex(pd.base_module, j)
                for j in range(max(lo + 1, -1), min(hi - 1, mod.m + 2))
            ]
            for x in sorted(o.summands - {M}, key=lambda v: v.name()):
                for y in sorted(o.summands - {M}, key=lambda v: v.name()):
                    img = project_to_D0(mod, y, pd)
                    lhs = sum(c * mod.hom(x, v) for v, c in img.items())
                    rhs = mod.hom(x, y) - mesh.factoring_dim(x, y, shifts)
                    assert lhs == rhs
