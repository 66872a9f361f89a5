"""Localisation of the derived category at a rigid indecomposable summand.

Killing all shifts of a rigid indecomposable M leaves a category equivalent
to the derived category of a hereditary algebra H' with one fewer simple.
We model it through the perpendicular subcategory D0 (objects with no maps
from any shift of M): the image of an arbitrary object is pinned down by
its Hom fingerprint against D0, which is solvable by forward substitution
because the window category is directed with one-dimensional endomorphism
rings.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .arquiver import ARVertex
from .cluster import compatibility_graph
from .derived import DerivedModel, DObject, DVertex, _vkey
from .errors import InternalCheckError, WindowOverflow
from .meshcat import ApproxTriangle, minimal_right_approximation
from .quiver import Quiver

# perpendicular data per model, keyed by the base module of M
_perpendicular: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class PerpendicularData:
    """The perpendicular world of a rigid indecomposable M = X[k]; it depends
    on the module X only."""

    base_module: ARVertex
    U_members: tuple[ARVertex, ...]
    H_prime: Quiver
    prime_model: DerivedModel
    module_map: dict[ARVertex, ARVertex]  # U member -> H' module vertex
    # D0 image of each window vertex projected so far (see project_to_D0)
    images: dict = field(default_factory=dict, repr=False, compare=False)

    def to_prime(self, v: DVertex) -> DVertex:
        """H'-coordinates of a D0 window vertex U[i]."""
        return DVertex(self.module_map[v.module], v.shift)


def perpendicular_algebra(model: DerivedModel, M: DVertex) -> PerpendicularData:
    """Compute U_M, its projectives, the algebra H' and its window model.

    H' is the algebra of the projectives of U_M (their endomorphism algebra
    up to opposites); its module for u in U_M has dimension vector
    Hom(projectives, u).
    """
    base = M.module
    cache = _perpendicular.setdefault(model, {})
    if base in cache:
        return cache[base]
    ar = model.ar
    if ar.ext(base, base) != 0:
        raise ValueError(f"{M} is not rigid")
    members = tuple(
        u for u in ar.vertices if ar.hom(base, u) == 0 and ar.ext(base, u) == 0
    )
    projs = tuple(
        p for p in members if all(ar.ext(p, u) == 0 for u in members)
    )
    if len(projs) != ar.n - 1:
        raise InternalCheckError(
            f"{len(projs)} perpendicular projectives, expected {ar.n - 1}"
        )

    alg = model.algebra_of_projectives(DVertex(p, 0) for p in projs)
    module_map = {u: model.module_over(alg, DVertex(u, 0)) for u in members}
    if len(set(module_map.values())) != len(members) or len(members) != len(
        alg.model.ar.vertices
    ):
        raise InternalCheckError("U_M does not match mod H'")

    pd = PerpendicularData(
        base_module=base,
        U_members=members,
        H_prime=alg.quiver,
        prime_model=alg.model,
        module_map=module_map,
    )
    cache[base] = pd
    return pd


def project_to_D0(model: DerivedModel, w: DVertex, pd: PerpendicularData) -> DObject:
    """The image of w in D0, solved from its Hom fingerprint.

    The image lives only in the degree of w and one above, so the unknowns
    are the multiplicities of U[d] for U in U_M and d among those degrees.
    They satisfy a unitriangular integer system against hom(-, U[d])
    (directedness gives the triangle, bricks the unit diagonal), solved
    exactly by forward substitution in degree order and, within a degree,
    in the creation order of U_M, which is topological.  The image is
    memoised on pd, which must be the perpendicular data of model.
    """
    img = pd.images.get(w)
    if img is not None:
        return img
    if w.shift + 1 > model.window[1]:
        # this is the exact condition for the window to see all of its support
        raise WindowOverflow(f"projection of {w.name()} may exceed the window {model.window}")
    coeffs: dict[DVertex, int] = {}
    for d in (w.shift, w.shift + 1):
        for member in pd.U_members:
            u = DVertex(member, d)
            c_u = model.hom(w, u) - sum(c * model.hom(v, u) for v, c in coeffs.items())
            if c_u < 0:
                raise WindowOverflow(f"fingerprint solve went negative at {u}")
            if c_u:
                coeffs[u] = c_u
    img = pd.images[w] = DObject(tuple(sorted(coeffs.items(), key=lambda it: _vkey(it[0]))))
    return img


def approximation_triangle(
    model: DerivedModel, x: DVertex, pd: PerpendicularData
) -> ApproxTriangle:
    """The triangle C -> x -> cone of a minimal right approximation of x by
    the shifts X[0..m] of the base module X of pd, with the cone taken as
    the D0 image of x.

    Checks the K0 identity [x] - [C] = [cone], which ties the mesh-category
    approximation to the independent fingerprint projection, and that x has
    no maps to the positive shifts of C.
    """
    cls = [DVertex(pd.base_module, j) for j in range(0, model.m + 1)]
    tri = minimal_right_approximation(model.mesh_category(), x, cls)
    tri.cone = project_to_D0(model, x, pd)
    k0 = [0] * model.quiver.n  # [x] - [C] - [cone], with [X[k]] = (-1)^k dim X
    for obj, sign in ((DObject.of([x]), 1), (tri.approx_source, -1), (tri.cone, -1)):
        for v, mult in obj.summands:
            c = -sign * mult if v.shift % 2 else sign * mult
            for i, d in enumerate(v.module.dim):
                k0[i] += c * d
    if any(k0):
        raise InternalCheckError(f"[x] - [C] != [cone] in K0 for x = {x}")
    lo, hi = model.window
    for c, _ in tri.approx_source.summands:
        for t in range(1, hi - c.shift + 1):
            if model.hom(x, DVertex(c.module, c.shift + t)) != 0:
                raise InternalCheckError(
                    f"Hom(x, approximation source[{t}]) is nonzero"
                )
    return tri


@dataclass
class LocalisedObject:
    pd: PerpendicularData
    images: list[DVertex]  # D0 images of t - M, in _vkey order of t - M
    prime_summands: frozenset[DVertex]  # in the H' model


def localise_object(model: DerivedModel, t, M: DVertex) -> LocalisedObject:
    """Image of a maximal m-rigid object under localisation at its summand M.

    The summands of t, M among them, may be any vertices of the fundamental
    domain: the perpendicular category depends on the module of M only, so
    P_i[m] localises like P_i[0].  Verifies every postcondition: images are
    indecomposable, pairwise distinct, land in the fundamental domain of
    H', and form a maximal m-rigid object there, checked against the
    independently knitted compatibility graph of H'.
    """
    t = frozenset(t)
    if M not in t:
        raise ValueError("M must be a summand of t")
    compatibility_graph(model).mask(t)  # a ValueError naming the domain
    pd = perpendicular_algebra(model, M)
    images = []
    for x in sorted(t - {M}, key=_vkey):
        img = project_to_D0(model, x, pd)
        if img.total() != 1:
            raise InternalCheckError(f"image of {x} is not indecomposable: {img}")
        images.append(img.summands[0][0])
    if len(set(images)) != len(images):
        raise InternalCheckError("two summands collapsed under localisation")

    g = compatibility_graph(pd.prime_model)
    prime = []
    for v in images:
        p = pd.to_prime(v)
        if p not in g.index:
            raise InternalCheckError(f"image {v} is outside the fundamental domain of H'")
        prime.append(p)
    prime_set = frozenset(prime)
    if not g.is_clique(prime_set):
        raise InternalCheckError("localised object is not m-rigid over H'")
    if not g.is_maximal(prime_set):
        raise InternalCheckError("localised object is not maximal over H'")
    return LocalisedObject(pd=pd, images=images, prime_summands=prime_set)
