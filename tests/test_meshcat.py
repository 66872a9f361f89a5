import re
from fractions import Fraction

import pytest

from mcluster.arquiver import knit_module_category
from mcluster.derived import DerivedModel, DVertex
from mcluster.errors import InternalCheckError
from mcluster.linalg import SpanBuilder
from mcluster.meshcat import MeshCategory
from mcluster.quiver import preset

from oracles import (
    PathMeshCategory,
    compose_coords,
    g_twist,
    units,
)


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def test_identity_basis(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    x = V(mod, (1, 1))
    sp = mesh.space(x, x)
    assert sp.dim == 1
    # one free column, the identity
    assert sp.cols == [(x, 0)] and sp.relations.rank == 0


def test_a2_arrow_and_mesh_kill(world):
    mod = world("A2", 1)
    mesh = mod.mesh_category()
    p2, p1, s1 = V(mod, (0, 1)), V(mod, (1, 1)), V(mod, (1, 0))
    assert mesh.space(p2, p1).dim == 1
    assert mesh.space(p2, s1).dim == 0
    # the one column, p2 -> p1 followed by p1 -> s1, is the mesh relation
    # at s1 = tau^-1 p2, so it composes to 0
    sp = mesh.space(p2, s1)
    assert len(sp.zero()) == 1 and sp.relations.rank == 1
    assert mesh.compositions(p2, p1, s1) == [[]]


@pytest.mark.parametrize("corrupt", ["injective", "non-projective"])
def test_a_broken_mesh_is_an_internal_error(corrupt):
    # the meshes repeat in every degree, so the mesh category checks each
    # once per module: out of I(i) at P(i), out of tau z at any other z
    ar = knit_module_category(preset("A3"))
    if corrupt == "injective":
        z = ar.projectives["2"]
        ar.out[ar.injectives["2"]].append(ar.vertices[0])
    else:
        z = next(z for z in ar.vertices if z.projective_of is None)
        ar.inn[z].append(ar.vertices[0])
    model = DerivedModel(ar, 1)
    with pytest.raises(InternalCheckError, match=re.escape(f"mesh mismatch at {z.name}")):
        model.mesh_category()


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


@pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1)])
def test_shifted_copies_are_one_space(world, name, m):
    # the shift is a translation of the mesh category: Hom(x[d], y[d]) is the
    # one space knitted from x at degree 0
    mod = world(name, m)
    mesh = mod.mesh_category()
    for x in mod.vertices:
        for gap in (0, 1):
            for w in mod.ar.vertices:
                y = DVertex(w, x.shift + gap)
                if mod.contains(y):
                    base = mesh.space(DVertex(x.module, 0), DVertex(w, gap))
                    assert mesh.space(x, y) is base, (x, y)


def test_one_cached_space_per_module_pair_and_gap():
    # D4 m=1 knits 288 distinct (module, module, gap), all of gap 0 or 1: the
    # mesh relations at the projectives count their rows by the hammocks and
    # knit no empty space of gap -1 (44 more before); one space per window
    # pair, knitted in its own degree, made 2475
    from mcluster.verify import VerificationReport, check_derived_invariants

    mod = DerivedModel(knit_module_category(preset("D4")), 1)
    check_derived_invariants(mod, VerificationReport("D4", 1))
    spaces = mod.mesh_category()._spaces
    assert len(spaces) == 288
    assert {gap for _, _, gap in spaces} == {0, 1}


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
    # a zero leg builds exactly what space() builds for the legs up to it;
    # building the other spaces anyway costs more cold spaces per pass
    def built(mod, *legs):
        mesh = MeshCategory(mod)
        for x, y in legs:
            mesh.space(x, y)
        return set(mesh._spaces)

    mod = world("A3", 1)
    vs = [DVertex(v, t) for t in (0, 1) for v in mod.ar.vertices]
    zero = [(x, y) for x in vs for y in vs if mod.hom(x, y) == 0]
    assert zero
    for x, y in zero:
        for z in vs:
            mesh = MeshCategory(mod)
            assert mesh.compositions(x, y, z) == []
            assert set(mesh._spaces) == built(mod, (x, y))
            if mod.hom(z, x):
                mesh = MeshCategory(mod)
                assert mesh.compositions(z, x, y) == []
                assert set(mesh._spaces) == built(mod, (z, x), (x, y))


@pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1)])
def test_compositions_match_the_path_oracle(world, name, m):
    # for every triple at shifts 0 and 1: the rank of the composition table,
    # and the maps x -> z factoring through y or a vertex before it
    mod = world(name, m)
    mesh, paths = mod.mesh_category(), PathMeshCategory(mod)
    vs = [DVertex(v, t) for t in (0, 1) for v in mod.ar.vertices]
    nonzero = 0
    for x in vs:
        for z in vs:
            for i, y in enumerate(vs):
                ranks = []
                for cat in (mesh, paths):
                    sb = SpanBuilder(cat.space(x, z).dim)
                    for row in cat.compositions(x, y, z):
                        sb.add(row)
                    ranks.append(sb.rank)
                assert ranks[0] == ranks[1], (x, y, z)
                nonzero += ranks[0] > 0
                if mod.hom(x, z):
                    through = vs[: i + 1]
                    assert mesh.factoring_dim(x, z, through) == paths.factoring_dim(
                        x, z, through
                    ), (x, y, z)
    assert nonzero


@pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1)])
def test_g_carries_a_basis_onto_a_basis(world, name, m):
    # the composite bits of endo read Hom(Gc, Gb) off its own basis on this fact;
    # G moves basis paths of the path oracle one by one
    from mcluster.cluster import fundamental_domain

    mod = world(name, m)
    mesh, paths = mod.mesh_category(), PathMeshCategory(mod)
    dom = fundamental_domain(mod)
    checked = 0
    for c in dom:
        for b in dom:
            if not (mod.contains(mod.g_raw(b)) and mod.contains(mod.g_raw(c))):
                continue
            d = mesh.space(c, b).dim
            assert mesh.space(mod.g_raw(c), mod.g_raw(b)).dim == d
            sb = SpanBuilder(d)
            for f in units(d):
                sb.add(g_twist(paths, c, b, f))
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


@pytest.mark.parametrize("name,m", [("A2", 1), ("A3", 1), ("A3", 2), ("D4", 1)])
def test_no_map_to_x_factors_through_another_shift(world, name, m):
    # approximation_triangle takes X[j]^dim Hom(X[j], x) as its minimal
    # approximation of x; that is minimal because no map X[j] -> x factors
    # through another shift of the rigid brick X
    from mcluster.cluster import compatibility_graph, enumerate_maximal_m_rigid

    mod = world(name, m)
    mesh = mod.mesh_category()
    nonzero = 0
    for obj in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        for M in obj.summands:
            shifts = [DVertex(M.module, j) for j in range(m + 1)]
            for x in obj.summands - {M}:
                for c in shifts:
                    others = [d for d in shifts if d != c]
                    assert mesh.factoring_dim(c, x, others) == 0
                    nonzero += bool(mesh.space(c, x).dim)
    assert nonzero
