from fractions import Fraction

import pytest

from mcluster.derived import DVertex
from mcluster.meshcat import minimal_right_approximation

from oracles import (
    compose_coords,
    g_twist,
    units,
    verify_approximation,
    verify_minimality,
)


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def test_identity_basis(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    x = V(mod, (1, 1))
    sp = mesh.space(x, x)
    assert sp.dim == 1
    assert sp.paths == [(x,)]


def test_a2_arrow_and_mesh_kill(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    p2, p1, s1 = V(mod, (0, 1)), V(mod, (1, 1)), V(mod, (1, 0))
    assert mesh.space(p2, p1).dim == 1
    assert mesh.space(p2, s1).dim == 0
    # the one path p2 -> p1 -> s1 is the mesh relation, so it composes to 0
    assert mesh.space(p2, s1).paths == [(p2, p1, s1)]
    assert mesh.compositions(p2, p1, s1) == [[]]


def test_compose_with_identity(world):
    mod = world("A3", 1)
    mesh = mod.mesh_category()
    for x in [DVertex(v, 0) for v in mod.ar.vertices]:
        assert mesh.compositions(x, x, x) == [[1]]
        for w in mod.ar.vertices:
            y = DVertex(w, 0)
            # both tables are the identity matrix of Hom(x, y)
            ident = units(mesh.space(x, y).dim)
            assert mesh.compositions(x, x, y) == ident
            assert mesh.compositions(x, y, y) == ident


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 1), ("A3", 2)])
def test_dimension_agreement_everywhere(world, name, m):
    # hom_basis construction asserts agreement with the hammock internally
    mod = world(name, m)
    mesh = mod.mesh_category()
    for x in mod.vertices:
        for gap in (0, 1):
            for w in mod.ar.vertices:
                y = DVertex(w, x.shift + gap)
                if mod.contains(y):
                    mesh.space(x, y)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_composition_associative_and_bilinear(world, name):
    mod = world(name, 1)
    mesh = mod.mesh_category()
    vs = [DVertex(v, 0) for v in mod.ar.vertices]
    quads = [
        (x, y, z, w)
        for x in vs
        for y in vs
        for z in vs
        for w in vs
        if mesh.space(x, y).dim
        and mesh.space(y, z).dim
        and mesh.space(z, w).dim
    ]
    for x, y, z, w in quads:
        # (h.g).f = h.(g.f) on every triple of basis maps
        for f in units(mesh.space(x, y).dim):
            for g in units(mesh.space(y, z).dim):
                for h in units(mesh.space(z, w).dim):
                    gh = compose_coords(mesh, y, z, w, g, h)
                    fg = compose_coords(mesh, x, y, z, f, g)
                    assert compose_coords(mesh, x, y, w, f, gh) == compose_coords(
                        mesh, x, z, w, fg, h
                    )
    # bilinearity over a combination of basis maps
    x, y, z, _ = next(q for q in quads if mesh.space(q[0], q[2]).dim)
    f = [Fraction(k + 2) for k in range(mesh.space(x, y).dim)]
    g = units(mesh.space(y, z).dim)[0]
    assert compose_coords(mesh, x, y, z, f, g) == [
        sum(c * r for c, r in zip(f, col))
        for col in zip(*mesh.compositions(x, y, z)[:: len(g)])
    ]


def test_compositions_stop_at_a_zero_leg(world):
    # building the other two spaces anyway costs a third more cold spaces
    from mcluster.meshcat import MeshCategory

    mod = world("A3", 1)
    vs = [DVertex(v, 0) for v in mod.ar.vertices]
    zero = [(x, y) for x in vs for y in vs if mod.hom(x, y) == 0]
    assert zero
    for x, y in zero:
        for z in vs:
            mesh = MeshCategory(mod)
            assert mesh.compositions(x, y, z) == []
            assert list(mesh._spaces) == [(x, y)]
            if mod.hom(z, x):
                mesh = MeshCategory(mod)
                assert mesh.compositions(z, x, y) == []
                assert list(mesh._spaces) == [(z, x), (x, y)]


@pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1)])
def test_g_carries_a_basis_onto_a_basis(world, name, m):
    # _orbit_span in endo reads Hom(Gc, Gb) off its own basis on this fact
    from mcluster.cluster import fundamental_domain
    from mcluster.linalg import SpanBuilder

    mod = world(name, m)
    mesh = mod.mesh_category()
    dom = fundamental_domain(mod).vertices
    checked = 0
    for c in dom:
        for b in dom:
            if not (mod.contains(mod.g_raw(b)) and mod.contains(mod.g_raw(c))):
                continue
            d = mesh.space(c, b).dim
            assert mesh.space(mod.g(c), mod.g(b)).dim == d
            sb = SpanBuilder(d)
            for f in units(d):
                sb.add(g_twist(mesh, c, b, f))
            assert sb.rank == d
            checked += d
    assert checked


def test_factoring_dims(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    p2, p1, s1 = V(mod, (0, 1)), V(mod, (1, 1)), V(mod, (1, 0))
    assert mesh.factoring_dim(p1, p1, [p1]) == 1
    assert mesh.factoring_dim(p2, p1, []) == 0
    assert mesh.factoring_dim(p2, p1, [s1]) == 0
    assert mesh.factoring_dim(p2, s1, [p1]) == 0  # the composite dies


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 1)])
def test_factoring_bounded_by_hom(world, name, m):
    mod = world(name, m)
    mesh = mod.mesh_category()
    vs = [DVertex(v, 0) for v in mod.ar.vertices]
    for x in vs:
        for z in vs:
            full = mod.hom(x, z)
            assert mesh.factoring_dim(x, z, [x]) == full
            assert mesh.factoring_dim(x, z, [z]) == full
            for w in vs:
                assert mesh.factoring_dim(x, z, [w]) <= full


def test_right_approximation_trivial_cases(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    p1, s1 = V(mod, (1, 1)), V(mod, (1, 0))
    # x in cls: identity approximation
    tri = minimal_right_approximation(mesh, p1, [p1, s1])
    assert tri.approx_source.summands == ((p1, 1),)
    # no maps from the class at all
    p2 = V(mod, (0, 1))
    tri = minimal_right_approximation(mesh, p2, [s1])
    assert not tri.approx_source.summands


def test_right_approximation_a2_example(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    p1, s1 = V(mod, (1, 1)), V(mod, (1, 0))
    cls = [DVertex(p1.module, j) for j in range(0, 2)]
    tri = minimal_right_approximation(mesh, s1, cls)
    assert tri.approx_source.summands == ((p1, 1),)
    assert verify_approximation(mesh, tri, cls)
    assert verify_minimality(mesh, tri, cls)


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 1), ("A3", 2)])
def test_approximations_verified_over_cliques(world, name, m):
    from mcluster.cluster import compatibility_graph, enumerate_maximal_m_rigid

    mod = world(name, m)
    mesh = mod.mesh_category()
    g = compatibility_graph(mod)
    for obj in enumerate_maximal_m_rigid(g):
        for M in sorted(obj.summands, key=lambda v: v.name()):
            if not 0 <= M.shift <= m - 1:
                continue
            cls = [DVertex(M.module, j) for j in range(0, m + 1)]
            for x in sorted(obj.summands - {M}, key=lambda v: v.name()):
                tri = minimal_right_approximation(mesh, x, cls)
                assert verify_approximation(mesh, tri, cls)
                assert verify_minimality(mesh, tri, cls)
