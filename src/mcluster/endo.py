"""Endomorphism algebras of maximal m-rigid objects.

A Hom space of the orbit category between domain objects splits into two
window pieces, Hom(a, b) and Hom(a, Gb), and spans of composites are built
blockwise from the mesh category's composition tables.  The Gabriel quiver
comes from rad/rad^2 computed on explicit mesh bases, and the factor
theorem compares the quotient by maps through a chosen summand with the
endomorphism data of the localised object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import MRigidObject
from .derived import DerivedModel, DVertex, _vkey
from .errors import InternalCheckError
from .linalg import SpanBuilder
from .localise import perpendicular_algebra, project_to_D0


@dataclass
class EndoAlgebraData:
    summands: tuple[DVertex, ...]
    hom_dims: tuple[tuple[int, ...], ...]
    rad_sq_dims: tuple[tuple[int, ...], ...]
    arrows: tuple[tuple[int, ...], ...]
    total_dim: int


def _summand_order(t) -> tuple[DVertex, ...]:
    if isinstance(t, MRigidObject):
        t = t.summands
    return tuple(sorted(t, key=_vkey))


def _orbit_span(model: DerivedModel, a, b, mids) -> SpanBuilder:
    """Span in Hom_C(a, b) = Hom(a, b) + Hom(a, Gb) of the composites
    a -> c -> b over c in mids.

    Block 0 comes from a -> c -> b; block 1 from a -> c -> Gb and
    a -> Gc -> Gb.  G carries a basis of Hom(c, b) onto a basis of
    Hom(Gc, Gb), so the span never twists a map by G.  The would-be G^2
    block of a -> Gc -> G^2 b lives in a vanishing Hom space.
    """
    mesh = model.mesh_category()
    gb = model.g(b)
    d0 = mesh.space(a, b).dim
    d1 = mesh.space(a, gb).dim
    sb = SpanBuilder(d0 + d1)
    for c in mids:
        gc = model.g(c)
        for row in mesh.compositions(a, c, b):
            sb.add(row + [0] * d1)
        for row in mesh.compositions(a, c, gb) + mesh.compositions(a, gc, gb):
            sb.add([0] * d0 + row)
        if model.hom(a, gc) and model.hom(c, gb) and model.hom(a, model.g_raw(b, 2)):
            raise InternalCheckError("nonzero G^2 component in a composition")
    return sb


def endo_dims(model: DerivedModel, t) -> EndoAlgebraData:
    """Hom matrix, rad^2 matrix and Gabriel arrow counts of End(t)."""
    order = _summand_order(t)
    n = len(order)
    hom = [[0] * n for _ in range(n)]
    radsq = [[0] * n for _ in range(n)]
    arrows = [[0] * n for _ in range(n)]
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            sb = _orbit_span(model, a, b, [c for c in order if c != a and c != b])
            hom[i][j] = sb.width
            if i == j:
                if sb.width != 1:
                    raise InternalCheckError(
                        f"End({a}) has dimension {sb.width}, expected 1"
                    )
                if sb.rank:
                    raise InternalCheckError("nonzero radical square on the diagonal")
                continue
            radsq[i][j] = sb.rank
            arrows[i][j] = sb.width - sb.rank
    return EndoAlgebraData(
        summands=order,
        hom_dims=tuple(tuple(r) for r in hom),
        rad_sq_dims=tuple(tuple(r) for r in radsq),
        arrows=tuple(tuple(r) for r in arrows),
        total_dim=sum(sum(r) for r in hom),
    )


def factor_dims(model: DerivedModel, t, M: DVertex):
    """Dimension matrix of End(t)/(maps through add M), over summands != M."""
    order = [v for v in _summand_order(t) if v != M]
    out = []
    for a in order:
        row = []
        for b in order:
            sb = _orbit_span(model, a, b, [M])
            row.append(sb.width - sb.rank)
        out.append(tuple(row))
    return tuple(out)


def factor_arrows(model: DerivedModel, t, M: DVertex):
    """Gabriel arrow counts of the factor algebra End(t)/(M)."""
    order = [v for v in _summand_order(t) if v != M]
    out = []
    for a in order:
        row = []
        for b in order:
            if a == b:
                row.append(0)
                continue
            mids = [c for c in order if c != a and c != b] + [M]
            sb = _orbit_span(model, a, b, mids)
            row.append(sb.width - sb.rank)
        out.append(tuple(row))
    return tuple(out)


@dataclass
class FactorReport:
    summands: tuple[DVertex, ...]
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
    localised side is computed twice, once through D0 fingerprints in the
    parent window and once inside the fresh H' model, and the two must
    match as well.
    """
    t = frozenset(t)
    if M not in t:
        raise ValueError("M must be a summand of t")
    if not 0 <= M.shift <= model.m - 1:
        raise ValueError("deg(M) must lie in [0, m-1]; normalize first")
    order = [v for v in _summand_order(t) if v != M]
    pd = perpendicular_algebra(model, M)
    fmat = factor_dims(model, t, M)
    farrows = factor_arrows(model, t, M)

    images = []
    for a in order:
        img = project_to_D0(model, a, pd)
        if img.total() != 1:
            raise InternalCheckError(f"image of {a} is not indecomposable")
        images.append(img.summands[0][0])

    lmat = []
    for ya in images:
        row = []
        for yb in images:
            gyb = project_to_D0(model, model.g(yb), pd)
            row.append(
                model.hom(ya, yb)
                + sum(mult * model.hom(ya, v) for v, mult in gyb.summands)
            )
        lmat.append(tuple(row))
    lmat = tuple(lmat)

    if pd.H_prime.n:
        prime = [pd.to_prime(v) for v in images]
        pdata = endo_dims(pd.prime_model, prime)
        # endo_dims sorts its summands; map back to our image order
        perm = [pdata.summands.index(p) for p in prime]
        pmat = tuple(
            tuple(pdata.hom_dims[i][j] for j in perm) for i in perm
        )
        larrows = tuple(
            tuple(pdata.arrows[i][j] for j in perm) for i in perm
        )
        if pmat != lmat:
            raise InternalCheckError(
                "localised dimensions disagree between the D0 fingerprint "
                "and the H' model"
            )
    else:
        larrows = tuple()

    return FactorReport(
        summands=tuple(order),
        factor_matrix=fmat,
        localised_matrix=lmat,
        factor_arrow_counts=farrows,
        localised_arrow_counts=larrows,
        dims_agree=fmat == lmat,
        arrows_agree=farrows == larrows,
    )
