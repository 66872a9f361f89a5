"""Endomorphism algebras of maximal m-rigid objects.

A Hom space of the orbit category between domain objects splits into two
window pieces, Hom(a, b) and Hom(a, Gb), and `_orbit_compositions` is the
one composition routine: the composites a -> c -> b in those two blocks,
built from the mesh category's composition tables.  `endo_dims` reads the
Hom dimensions between summands first: it opens a span only for a pair with
a composite that can be nonzero, checks there that no composite has a G^2
component, and composes a block only when its three Hom spaces are nonzero,
so a zero leg is never knitted.  The Gabriel quiver comes from rad/rad^2
computed on explicit mesh bases, and the factor theorem compares the
quotient by maps through a chosen summand with the endomorphism data of
the localised object.  Both sides of that comparison are read off End(T),
which is computed once per model and object.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .derived import DerivedModel, DVertex, _vkey
from .errors import InternalCheckError
from .linalg import SpanBuilder
from .localise import LocalisedObject, localise_object, project_to_D0

# End(T) per model, keyed by the summands of T in _vkey order
_endos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class EndoAlgebraData:
    summands: tuple[DVertex, ...]
    hom_dims: tuple[tuple[int, ...], ...]
    rad_sq_dims: tuple[tuple[int, ...], ...]
    arrows: tuple[tuple[int, ...], ...]
    # [i][j][k]: dim of the maps summand i -> summand j through summand k,
    # for k not in {i, j} (0 there)
    through_dims: tuple[tuple[tuple[int, ...], ...], ...]
    total_dim: int


def _orbit_compositions(model: DerivedModel, a, c, b) -> list[list]:
    """Rows of the composites a -> c -> b of basis maps, in the two-block
    coordinates of Hom_C(a, b) = Hom(a, b) + Hom(a, Gb).

    Block 0 comes from a -> c -> b; block 1 from a -> c -> Gb and
    a -> Gc -> Gb.  G carries a basis of Hom(c, b) onto a basis of
    Hom(Gc, Gb), so no map is twisted by G.  The would-be G^2 block of
    a -> Gc -> G^2 b lives in a vanishing Hom space, which `endo_dims`
    checks.  A block is composed only when its three Hom spaces are nonzero
    by `model.hom`: a zero leg or target makes every composite of the block
    zero, so its spaces are never knitted.
    """
    mesh = model.mesh_category()
    gb = model.g_raw(b)
    d0, d1 = model.hom(a, b), model.hom(a, gb)
    ac, cb = model.hom(a, c), model.hom(c, b)
    rows = []
    if ac and cb and d0:
        rows += [row + [0] * d1 for row in mesh.compositions(a, c, b)]
    if d1:
        if ac and model.hom(c, gb):
            rows += [[0] * d0 + row for row in mesh.compositions(a, c, gb)]
        gc = model.g_raw(c)
        if cb and model.hom(a, gc):  # Hom(Gc, Gb) = Hom(c, b)
            rows += [[0] * d0 + row for row in mesh.compositions(a, gc, gb)]
    return rows


def _orbit_span(model: DerivedModel, a, b, mids) -> tuple[SpanBuilder, dict]:
    """Span in Hom_C(a, b) of the composites a -> c -> b over c in mids, and
    the rank of those through each c alone, keyed by c.

    The width Hom(a, b) + Hom(a, Gb) is read from `model.hom`, and each mid
    is composed by `_orbit_compositions`, which skips a block with a zero
    Hom space unknitted.
    """
    sb = SpanBuilder(model.hom(a, b) + model.hom(a, model.g_raw(b)))
    through = {}
    for c in mids:
        one = SpanBuilder(sb.width)
        for row in _orbit_compositions(model, a, c, b):
            sb.add(row)
            one.add(row)
        through[c] = one.rank
    return sb, through


def endo_dims(model: DerivedModel, t) -> EndoAlgebraData:
    """Hom matrix, rad^2 matrix, Gabriel arrow counts and the dimensions of
    the maps through each single summand of End(t); memoised per model.

    The Hom dimensions h0 = Hom(a, c) and h1 = Hom(a, Gc) between summands
    are read once.  A summand c enters the span of a pair (a, b) only when
    one of its three composite blocks can be nonzero, and a pair with no
    such c needs no span: its composites are all zero.
    """
    order = tuple(sorted(t, key=_vkey))
    memo = _endos.setdefault(model, {})
    if order in memo:
        return memo[order]
    n = len(order)
    gs = [model.g_raw(c) for c in order]
    h0 = [[model.hom(a, c) for c in order] for a in order]
    h1 = [[model.hom(a, gc) for gc in gs] for a in order]
    hom = [[h0[i][j] + h1[i][j] for j in range(n)] for i in range(n)]
    radsq = [[0] * n for _ in range(n)]
    arrows = [[0] * n for _ in range(n)]
    through = [[(0,) * n] * n for _ in range(n)]
    for i, a in enumerate(order):
        r0, r1 = h0[i], h1[i]
        for j, b in enumerate(order):
            mids, g2 = [], False
            for k, c in enumerate(order):
                if k == i or k == j:
                    continue
                c0, c1 = h0[k][j], h1[k][j]
                if r0[k] and (c0 and r0[j] or c1 and r1[j]) or r1[k] and c0 and r1[j]:
                    mids.append(c)
                if r1[k] and c1:
                    g2 = True
            if g2 and model.hom(a, model.g_raw(b, 2)):
                raise InternalCheckError("nonzero G^2 component in a composition")
            rank = 0
            if mids:
                sb, ranks = _orbit_span(model, a, b, mids)
                through[i][j] = tuple(ranks.get(c, 0) for c in order)
                rank = sb.rank
            if i == j:
                if hom[i][j] != 1:
                    raise InternalCheckError(
                        f"End({a}) has dimension {hom[i][j]}, expected 1"
                    )
                if rank:
                    raise InternalCheckError("nonzero radical square on the diagonal")
                continue
            radsq[i][j] = rank
            arrows[i][j] = hom[i][j] - rank
    memo[order] = EndoAlgebraData(
        summands=order,
        hom_dims=tuple(tuple(r) for r in hom),
        rad_sq_dims=tuple(tuple(r) for r in radsq),
        arrows=tuple(tuple(r) for r in arrows),
        through_dims=tuple(tuple(r) for r in through),
        total_dim=sum(sum(r) for r in hom),
    )
    return memo[order]


def factor_dims(model: DerivedModel, t, M: DVertex):
    """Dimension matrix of End(t)/(maps through add M), over summands != M."""
    ed = endo_dims(model, t)
    k = ed.summands.index(M)  # a ValueError unless M is a summand of t
    keep = [i for i in range(len(ed.summands)) if i != k]
    return tuple(
        tuple(ed.hom_dims[i][j] - ed.through_dims[i][j][k] for j in keep) for i in keep
    )


def _submatrix(matrix, idx):
    return tuple(tuple(matrix[i][j] for j in idx) for i in idx)


@dataclass
class FactorReport:
    localised: LocalisedObject
    factor_matrix: tuple
    localised_matrix: tuple
    factor_arrow_counts: tuple
    localised_arrow_counts: tuple
    dims_agree: bool
    arrows_agree: bool

    @property
    def ok(self) -> bool:
        return self.dims_agree and self.arrows_agree


def verify_factor_theorem(model: DerivedModel, t, M: DVertex) -> FactorReport:
    """Compare End(t)/(M) with the endomorphism data of the localised object.

    Both the dimension matrices and the Gabriel arrow counts must agree; the
    localised side is computed twice, once through the D0 images of
    `localise_object` in the parent window and once inside the H' window
    model of the perpendicular data, and the two must match as well.

    A map a -> b through M lies in rad^2 when a, b != M, so the arrows of
    End(t)/(M) are those of End(t) without the row and column of M.
    """
    t = frozenset(t)
    loc = localise_object(model, t, M)
    fmat = factor_dims(model, t, M)
    ed = endo_dims(model, t)
    farrows = _submatrix(ed.arrows, [i for i, v in enumerate(ed.summands) if v != M])

    pd, images = loc.pd, loc.images
    g_images = [project_to_D0(model, model.g_raw(yb), pd) for yb in images]
    lmat = tuple(
        tuple(
            model.hom(ya, yb) + sum(mult * model.hom(ya, v) for v, mult in gyb.items())
            for yb, gyb in zip(images, g_images)
        )
        for ya in images
    )

    pdata = endo_dims(pd.prime_model, loc.prime_summands)
    # endo_dims sorts its summands; map back to our image order
    perm = [pdata.summands.index(pd.to_prime(v)) for v in images]
    larrows = _submatrix(pdata.arrows, perm)
    if _submatrix(pdata.hom_dims, perm) != lmat:
        raise InternalCheckError(
            "localised dimensions disagree between the D0 fingerprint and the H' model"
        )

    return FactorReport(
        localised=loc,
        factor_matrix=fmat,
        localised_matrix=lmat,
        factor_arrow_counts=farrows,
        localised_arrow_counts=larrows,
        dims_agree=fmat == lmat,
        arrows_agree=farrows == larrows,
    )
