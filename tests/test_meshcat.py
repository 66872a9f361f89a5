from fractions import Fraction

import pytest

from mcluster.derived import DVertex
from mcluster.meshcat import minimal_right_approximation

from oracles import verify_approximation, verify_minimality


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
    f = mesh.space(p2, p1).basis_elements()[0]
    g = mesh.space(p1, s1).basis_elements()[0]
    assert not any(mesh.compose(p2, p1, s1, f, g))


def test_compose_with_identity(world):
    mod = world("A3", 1)
    mesh = mod.mesh_category()
    for x in [DVertex(v, 0) for v in mod.ar.vertices]:
        idx = mesh.space(x, x).basis_elements()[0]
        for w in mod.ar.vertices:
            y = DVertex(w, 0)
            for f in mesh.space(x, y).basis_elements():
                assert mesh.compose(x, x, y, idx, f) == mesh.space(x, y).reduce(f)
                idy = mesh.space(y, y).basis_elements()[0]
                assert mesh.compose(x, y, y, f, idy) == mesh.space(x, y).reduce(f)


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
        for f in mesh.space(x, y).basis_elements():
            for g in mesh.space(y, z).basis_elements():
                for h in mesh.space(z, w).basis_elements():
                    gh = mesh.compose(y, z, w, g, h)
                    fg = mesh.compose(x, y, z, f, g)
                    assert mesh.compose(x, y, w, f, gh) == mesh.compose(
                        x, z, w, fg, h
                    )
    # bilinearity over a scaled element
    x, y, z, _ = quads[0]
    f = mesh.space(x, y).basis_elements()[0]
    g = mesh.space(y, z).basis_elements()[0]
    doubled = [Fraction(2) * c for c in f]
    assert mesh.compose(x, y, z, doubled, g) == [
        Fraction(2) * c for c in mesh.compose(x, y, z, f, g)
    ]


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
