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

from .arquiver import ARQuiver, ARVertex, knit_module_category
from .cluster import compatibility_graph
from .derived import DerivedModel, DVertex, _vkey
from .errors import InternalCheckError, WindowOverflow
from .quiver import Quiver, make_quiver

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
    # once checked: the (D0 image, H' image) of each summand localised so far
    # and the pairs of D0 images whose H' Hom_C matches their fingerprint
    summand_images: dict = field(default_factory=dict, repr=False, compare=False)
    checked_entries: set = field(default_factory=set, repr=False, compare=False)

    def to_prime(self, v: DVertex) -> DVertex:
        """H'-coordinates of a D0 window vertex U[i]."""
        return DVertex(self.module_map[v.module], v.shift)


def quiver_of_projectives(ar: ARQuiver, projectives) -> Quiver:
    """The quiver of the hereditary algebra whose projectives are the
    Hom-directed bricks `projectives`, modules of ar taken in the order
    given: the a-th becomes P(a+1).

    The Cartan matrix C[a][b] = dim Hom(P(b), P(a)) counts paths a -> b,
    and is unitriangular when the order is directed; the algebra is
    hereditary, so its arrow matrix is I - C^-1, found row by row by
    forward substitution.
    """
    projectives = tuple(projectives)
    k = len(projectives)
    # zero-padded so that the lexicographic Quiver.labels order is the given order
    labels = [str(a + 1).zfill(len(str(k))) for a in range(k)]
    inv: list[list[int]] = []  # rows of C^-1
    arrows = []
    for a, pa in enumerate(projectives):
        row = [ar.hom(pb, pa) for pb in projectives]
        if row[a] != 1 or any(row[a + 1:]):
            raise InternalCheckError(
                f"Cartan matrix of {projectives} is not unitriangular"
            )
        inv.append(
            [(a == b) - sum(row[c] * inv[c][b] for c in range(a)) for b in range(k)]
        )
        counts = [(a == b) - x for b, x in enumerate(inv[a])]
        if min(counts) < 0:
            raise InternalCheckError(f"I - C^-1 has a negative entry for {projectives}")
        for b, count in enumerate(counts):
            arrows += [(labels[a], labels[b])] * count
    return make_quiver(labels, arrows, connected=False)


def perpendicular_algebra(model: DerivedModel, M: DVertex) -> PerpendicularData:
    """Compute U_M, its projectives, the algebra H' and its window model.

    H' is the algebra of the projectives of U_M in directed order (their
    endomorphism algebra up to opposites); its module for u in U_M has
    dimension vector Hom(projectives, u), a module Hom.  Perpendicular
    categories of one model with equal quivers share one H' model.
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
    projs = sorted(
        (p for p in members if all(ar.ext(p, u) == 0 for u in members)),
        key=lambda p: _vkey(DVertex(p, 0)),
    )
    if len(projs) != ar.n - 1:
        raise InternalCheckError(
            f"{len(projs)} perpendicular projectives, expected {ar.n - 1}"
        )

    q = quiver_of_projectives(ar, projs)
    prime = next((pd.prime_model for pd in cache.values() if pd.H_prime == q), None)
    if prime is None:
        prime = DerivedModel(knit_module_category(q), model.m)
    module_map = {}
    for u in members:
        dim = tuple(ar.hom(p, u) for p in projs)
        if dim not in prime.ar.by_dim:
            raise InternalCheckError(
                f"no module has dimension vector Hom(P, {u.name}) = {dim}"
            )
        module_map[u] = prime.ar.by_dim[dim]
    if len(set(module_map.values())) != len(members) or len(members) != len(
        prime.ar.vertices
    ):
        raise InternalCheckError("U_M does not match mod H'")

    pd = PerpendicularData(
        base_module=base,
        U_members=members,
        H_prime=q,
        prime_model=prime,
        module_map=module_map,
    )
    cache[base] = pd
    return pd


def project_to_D0(
    model: DerivedModel, w: DVertex, pd: PerpendicularData
) -> dict[DVertex, int]:
    """The image of w in D0, solved from its Hom fingerprint, as a dict
    from summand to multiplicity.

    The image lives only in the degree of w and one above, so the unknowns
    are the multiplicities of U[d] for U in U_M and d among those degrees.
    They satisfy a unitriangular integer system against hom(-, U[d])
    (directedness gives the triangle, bricks the unit diagonal), solved
    exactly by forward substitution in degree order and, within a degree,
    in the creation order of U_M, which is topological.  The image is
    memoised on pd, which must be the perpendicular data of model, and the
    dict returned is the memo itself: callers must not change it.
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
            if c_u < 0:  # the support check above has passed: a bug
                raise InternalCheckError(f"fingerprint solve went negative at {u}")
            if c_u:
                coeffs[u] = c_u
    pd.images[w] = coeffs
    return coeffs


def approximation_triangle(
    model: DerivedModel, x: DVertex, pd: PerpendicularData
) -> tuple[dict[DVertex, int], dict[DVertex, int]]:
    """The triangle C -> x -> cone of the minimal right approximation of x
    by the shifts X[0..m] of the base module X of pd, as the pair (C, cone)
    of dicts from summand to multiplicity; the cone is the D0 image of x.

    C is the sum of the X[j]^dim Hom(X[j], x), mapping to x by evaluation
    on a basis of each Hom(X[j], x).  It is minimal because add C has no
    radical maps: End(X[j]) is the field, X being a brick, and distinct
    shifts of the rigid X have no maps between them.

    Checks the K0 identity [x] - [C] = [cone], which ties the Hom
    dimensions to the independent fingerprint projection, and that x has
    no maps to the positive shifts of C.
    """
    shifts = (DVertex(pd.base_module, j) for j in range(model.m + 1))
    source = {c: d for c in shifts if (d := model.hom(c, x))}
    cone = project_to_D0(model, x, pd)
    k0 = [0] * model.quiver.n  # [x] - [C] - [cone], with [X[k]] = (-1)^k dim X
    for obj, sign in (({x: 1}, 1), (source, -1), (cone, -1)):
        for v, mult in obj.items():
            c = -sign * mult if v.shift % 2 else sign * mult
            for i, d in enumerate(v.module.dim):
                k0[i] += c * d
    if any(k0):
        raise InternalCheckError(f"[x] - [C] != [cone] in K0 for x = {x}")
    # Hom(x, -) vanishes outside degrees deg x and deg x + 1
    for c in source:
        for d in (x.shift, x.shift + 1):
            if d > c.shift and model.hom(x, DVertex(c.module, d)) != 0:
                raise InternalCheckError(
                    f"Hom(x, approximation source[{d - c.shift}]) is nonzero"
                )
    return source, cone


@dataclass
class LocalisedObject:
    pd: PerpendicularData
    prime_summands: frozenset[DVertex]  # in the H' model


def localise_object(model: DerivedModel, t, M: DVertex) -> LocalisedObject:
    """Image of a maximal m-rigid object under localisation at its summand M.

    The summands of t, M among them, may be any vertices of the fundamental
    domain: the perpendicular category depends on the module of M only, so
    P_i[m] localises like P_i[0].  Verifies every postcondition: images are
    indecomposable, pairwise distinct, land in the fundamental domain of
    H', and form a maximal m-rigid object there, checked against the
    independently knitted compatibility graph of H'.  The approximation
    triangle of a summand by the shifts of M and the checks of its image
    run once per module of M: its perpendicular data keeps checked images.
    """
    t = frozenset(t)
    if M not in t:
        raise ValueError("M must be a summand of t")
    compatibility_graph(model).mask(t)  # a ValueError naming the domain
    pd = perpendicular_algebra(model, M)
    g = compatibility_graph(pd.prime_model)
    xs = sorted(t - {M}, key=_vkey)
    for x in xs:
        if x not in pd.summand_images:
            _, img = approximation_triangle(model, x, pd)
            if list(img.values()) != [1]:
                raise InternalCheckError(f"image of {x} is not indecomposable: {img}")
            [v] = img
            p = pd.to_prime(v)
            if p not in g.index:
                raise InternalCheckError(f"image {v} is outside the fundamental domain of H'")
            pd.summand_images[x] = v, p
    # to_prime is one to one (perpendicular_algebra checks module_map), so
    # two summands share an H' image exactly when they share a D0 image
    prime_set = frozenset(pd.summand_images[x][1] for x in xs)
    if len(prime_set) != len(xs):
        raise InternalCheckError("two summands collapsed under localisation")
    clique, maximal = g.clique_and_maximal(prime_set)
    if not clique:
        raise InternalCheckError("localised object is not m-rigid over H'")
    if not maximal:
        raise InternalCheckError("localised object is not maximal over H'")
    return LocalisedObject(pd=pd, prime_summands=prime_set)
