import pytest

from mcluster.arquiver import knit_module_category
from mcluster.derived import DerivedModel, DVertex, _vkey
from mcluster.errors import InternalCheckError
from mcluster.localise import perpendicular_algebra, quiver_of_projectives
from mcluster.quiver import preset

PRESETS_M = [("A1", 1), ("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2), ("D4", 1)]


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def test_window_vertices_are_interned(world):
    mod = world("A3", 2)
    v = mod.ar.vertices[0]
    assert DVertex(v, 7) is DVertex(v, 7)
    assert all(DVertex(x.module, x.shift) is x for x in mod.vertices)
    assert all(DVertex(w.module, w.shift) is w for w in map(mod.tau_raw, mod.vertices))
    assert len(set(mod.vertices)) == len(mod.vertices)


def test_window_vertices_are_immutable(world):
    x = world("A2", 1).vertices[0]
    shift = x.shift
    with pytest.raises(AttributeError):
        x.shift = shift + 1
    with pytest.raises(AttributeError):
        x.label = "new"
    assert x.shift == shift and DVertex(x.module, shift) is x


def test_names_are_fixed_when_interned(world):
    mod = world("A3", 2)
    assert any(x.shift < 0 for x in mod.vertices)
    for x in mod.vertices:
        assert x.name() is x.name() is DVertex(x.module, x.shift).name()
        assert x.name() == repr(x) == f"{x.module.name}[{x.shift}]"
    x = mod.vertices[0]
    name = x.name()
    with pytest.raises(AttributeError):
        x._name = "new"
    with pytest.raises(AttributeError):
        del x._name
    assert x.name() is name


def test_two_knittings_of_one_preset_share_no_vertex():
    a, b = (DerivedModel(knit_module_category(preset("A3")), 1) for _ in range(2))
    assert [x.name() for x in a.vertices] == [y.name() for y in b.vertices]
    assert all(x != y for x, y in zip(a.vertices, b.vertices))
    assert not set(a.vertices) & set(b.vertices)


def test_tau_derived_a2(world):
    mod = world("A2", 1)
    s1 = V(mod, (1, 0), 0)
    p1 = V(mod, (1, 1), 0)
    assert mod.tau_raw(s1) == V(mod, (0, 1), 0)
    # projective rule: tau P(1) = I(1)[-1]
    assert mod.tau_raw(p1) == V(mod, (1, 0), -1)
    assert mod.tau_inv_raw(V(mod, (1, 0), -1)) == p1
    # functors commute with the shift
    for v in mod.ar.vertices:
        x = DVertex(v, 1)
        assert mod.tau_raw(DVertex(v, 2)) == DVertex(
            mod.tau_raw(x).module, mod.tau_raw(x).shift + 1
        )


def test_g_apply_roundtrip(world):
    mod = world("A2", 1)
    for v in mod.ar.vertices:
        x = DVertex(v, 0)
        assert mod.g_raw(x, 0) == x
        assert mod.g_raw(mod.g_raw(x, 1), -1) == x
        assert mod.g_raw(mod.g_raw(x, -1), 1) == x
    # G(P(2)) composes tau-inverse with one shift of [m]
    p2 = V(mod, (0, 1), 0)
    ti = mod.tau_inv_raw(p2)
    assert mod.g_raw(p2, 1) == DVertex(ti.module, ti.shift + 1)


def test_hom_derived_a2_examples(world):
    mod = world("A2", 1)
    assert mod.hom(V(mod, (1, 1)), V(mod, (1, 0))) == 1
    # Ext^1(S1, P2) = Hom(P2, tau S1) = Hom(P2, P2) = 1
    assert mod.hom(V(mod, (1, 0)), V(mod, (0, 1), 1)) == 1
    assert mod.hom(V(mod, (0, 1)), V(mod, (1, 0))) == 0


@pytest.mark.parametrize("name,m", PRESETS_M)
def test_bricks_and_degree_vanishing(world, name, m):
    mod = world(name, m)
    for v in mod.ar.vertices:
        assert mod.hom(DVertex(v, 0), DVertex(v, 0)) == 1
        for w in mod.ar.vertices:
            for gap in (-2, -1, 2, 3):
                assert mod.hom(DVertex(v, 0), DVertex(w, gap)) == 0


@pytest.mark.parametrize("name,m", PRESETS_M)
def test_serre_duality_window(world, name, m):
    # dim Ext^1(X, Y) = dim Hom(Y, tau X) across window shifts
    mod = world(name, m)
    for v in mod.ar.vertices:
        x = DVertex(v, 0)
        tx = mod.tau_raw(x)
        for w in mod.ar.vertices:
            y = DVertex(w, 0)
            assert mod.hom(x, DVertex(w, 1)) == mod.hom(y, tx)


@pytest.mark.parametrize("name,m", PRESETS_M)
def test_directedness(world, name, m):
    mod = world(name, m)
    vs = [DVertex(v, 0) for v in mod.ar.vertices]
    for x in vs:
        for y in vs:
            if x != y and mod.hom(x, y) > 0:
                assert mod.hom(y, x) == 0


def test_hom_orbit_identity_survives(world):
    mod = world("A2", 2)
    for v in mod.ar.vertices:
        x = DVertex(v, 0)
        assert mod.hom_orbit(x, x, 0) >= 1


def test_hom_orbit_a2_example(world):
    mod = world("A2", 1)
    assert mod.hom_orbit(V(mod, (1, 0)), V(mod, (0, 1)), 1) == 1


def test_hom_orbit_rejects_bad_k(world):
    mod = world("A2", 1)
    with pytest.raises(ValueError):
        mod.hom_orbit(V(mod, (1, 0)), V(mod, (0, 1)), 2)


@pytest.mark.parametrize("name,m", [("A2", 2), ("A3", 2), ("A2", 3)])
def test_orbit_single_term_for_m_at_least_2(world, name, m):
    from mcluster.cluster import fundamental_domain

    mod = world(name, m)
    fd = fundamental_domain(mod)
    for x in fd:
        for y in fd:
            for k in range(0, m + 1):
                terms = {}
                for t in (-1, 0, 1):
                    z = mod.g_raw(y, t)
                    terms[t] = mod.hom(x, DVertex(z.module, z.shift + k))
                assert not (terms[0] and terms[1])
                assert mod.hom_orbit(x, y, k) == sum(terms.values())
                if k == 0:
                    # both arguments stay in the domain, so only t in {0,1}
                    # can contribute
                    assert terms[-1] == 0


def _arrow_counts(q):
    labels = q.labels
    counts = [[0] * len(labels) for _ in labels]
    for s, t in q.arrows:
        counts[labels.index(s)][labels.index(t)] += 1
    return counts


def _directed(modules):
    return sorted(modules, key=lambda p: _vkey(DVertex(p, 0)))


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5"])
def test_perpendicular_arrows_match_mesh_radical(world, name):
    # oracle: arrows a -> b of H' are dim Hom(P(b), P(a)) modulo the maps
    # that factor through the other projectives in the mesh category, listed
    # row by row
    mod = world(name, 1)
    mesh = mod.mesh_category()
    for v in mod.ar.vertices:
        pd = perpendicular_algebra(mod, DVertex(v, 0))
        projs = _directed(
            u for u in pd.U_members if pd.module_map[u].projective_of is not None
        )
        q = quiver_of_projectives(mod.ar, projs)
        assert q == pd.H_prime
        reps, labels = [DVertex(p, 0) for p in projs], q.labels
        expected = []
        for a, pa in enumerate(reps):
            for b, pb in enumerate(reps):
                if a == b:
                    continue
                through = [r for r in reps if r not in (pa, pb)]
                count = mod.hom(pb, pa) - mesh.factoring_dim(pb, pa, through)
                expected += [(labels[a], labels[b])] * count
        assert q.arrows == tuple(expected)


@pytest.mark.parametrize("name", ["A3", "A4"])
def test_slice_arrows_match_ar_arrows(world, name):
    # oracle: an AR arrow P(b) -> P(a) between the projectives of mod H is
    # an arrow a -> b of their algebra, which is H
    mod = world(name, 1)
    sl = _directed(mod.ar.projectives.values())
    q = quiver_of_projectives(mod.ar, sl)
    pos = {p: i for i, p in enumerate(sl)}
    expected = [[0] * len(sl) for _ in sl]
    for p in sl:
        for w in mod.ar.out[p]:
            if w in pos:
                expected[pos[w]][pos[p]] += 1
    assert sum(map(sum, expected)) == len(sl) - 1  # the arrows of H
    assert _arrow_counts(q) == expected


def test_projectives_out_of_directed_order_are_rejected(world):
    mod = world("A2", 1)
    sl = _directed(mod.ar.projectives.values())
    # P(1) = 01 and P(2) = 11: the map 01 -> 11 is the arrow 2 -> 1
    assert quiver_of_projectives(mod.ar, sl).arrows == (("2", "1"),)
    with pytest.raises(InternalCheckError, match="not unitriangular"):
        quiver_of_projectives(mod.ar, sl[::-1])
