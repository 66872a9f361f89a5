"""Endomorphism algebras of maximal m-rigid objects.

A Hom space of the orbit category between domain objects splits into two
window pieces, Hom_C(a, b) = Hom(a, b) + Hom(a, Gb).  Between two summands
of a maximal object it has dimension 0 or 1, and never two nonzero blocks;
`endo_dims` checks this and raises `InternalCheckError` otherwise.  So
End(T) is a 0/1 algebra: the composite a -> c -> b of basis maps is 0 or
+-1 times the basis map of Hom_C(a, b), and one bit says which.  The bit
comes from the one block whose three Hom spaces are nonzero, a -> c -> b,
a -> c -> Gb or a -> Gc -> Gb (G carries a basis of Hom(c, b) onto one of
Hom(Gc, Gb), so no map is twisted by G), as the single entry of the mesh
category's composition table.  It depends only on the modules of a, c and
b and on the degree gaps c - a and b - a, since G commutes with the shift,
and it is cached per model under that key.

rad^2(a, b) is the OR of the bits over the other summands c, and the
Gabriel arrows are Hom_C minus rad^2; End(T) keeps only its Hom table and
arrows, and is computed once per model and object.  The factor theorem
compares End(T)/(M), Hom_C minus the cached bit of a -> M -> b, with
End(T') of the localised object T' in the H' model.  Each pair reads End(T)
and End(T') once, and matches their rows through the images of the
summands that localisation records.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .derived import DerivedModel, DVertex, _vkey
from .errors import InternalCheckError
from .localise import LocalisedObject, localise_object, project_to_D0

# per model: End(T) keyed by the summands of T in _vkey order, and the
# composite bits keyed by (modules of a, c, b, gap c - a, gap b - a)
_endos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class EndoAlgebraData:
    summands: tuple[DVertex, ...]
    hom_dims: tuple[tuple[int, ...], ...]
    # Hom_C minus rad^2 off the diagonal, 0 on it
    arrows: tuple[tuple[int, ...], ...]
    total_dim: int


def _composite(model: DerivedModel, a, c, b) -> int:
    """1 if the composite a -> c -> b of basis maps is nonzero in Hom_C(a, b),
    else 0, for a, c, b with Hom_C of dimension <= 1 and one nonzero block.

    Only the block whose three Hom spaces are nonzero can compose to a
    nonzero map.  The would-be G^2 block a -> Gc -> G^2 b lives in a
    vanishing Hom space, which is checked here.
    """
    hom, gc, gb = model.hom, model.g_raw(c), model.g_raw(b)
    if hom(a, gc) and hom(c, gb) and hom(a, model.g_raw(b, 2)):
        raise InternalCheckError("nonzero G^2 component in a composition")
    for x, y, z in ((a, c, b), (a, c, gb), (a, gc, gb)):
        if hom(x, y) and hom(y, z) and hom(x, z):
            [[coord]] = model.mesh_category().compositions(x, y, z)
            if coord not in (0, 1, -1):
                raise InternalCheckError(
                    f"composite {x} -> {y} -> {z} has coordinate {coord}, not 0 or +-1"
                )
            return int(coord != 0)
    return 0


def _bit_key(a, c, b):
    return a.module, c.module, b.module, c.shift - a.shift, b.shift - a.shift


def endo_dims(model: DerivedModel, t) -> EndoAlgebraData:
    """Hom matrix and Gabriel arrow counts of End(t); memoised per model.

    The Hom_C dimensions between summands are read and checked first; a bit
    is read only for a, c, b with Hom_C(a, c) and Hom_C(c, b) nonzero.
    """
    order = tuple(sorted(t, key=_vkey))
    memo, bits = _endos.setdefault(model, ({}, {}))
    if order in memo:
        return memo[order]
    n = len(order)
    gs = [model.g_raw(b) for b in order]
    hom = []
    for a in order:
        row = []
        for b, gb in zip(order, gs):
            d0, d1 = model.hom(a, b), model.hom(a, gb)
            if a == b:
                if d0 + d1 != 1:
                    raise InternalCheckError(f"End({a}) has dimension {d0 + d1}, expected 1")
            elif d0 and d1:
                raise InternalCheckError(f"both blocks of Hom_C({a}, {b}) are nonzero")
            elif d0 + d1 > 1:
                raise InternalCheckError(f"Hom_C({a}, {b}) has dimension {d0 + d1}, above 1")
            row.append(d0 + d1)
        hom.append(row)
    arrows = [[0] * n for _ in range(n)]
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            radsq = 0
            for k, c in enumerate(order):
                if k != i and k != j and hom[i][k] and hom[k][j]:
                    key = _bit_key(a, c, b)
                    bit = bits.get(key)
                    if bit is None:
                        bit = bits[key] = _composite(model, a, c, b)
                    radsq |= bit
            if i != j:
                arrows[i][j] = hom[i][j] - radsq
            elif radsq:
                raise InternalCheckError("nonzero radical square on the diagonal")
    memo[order] = EndoAlgebraData(
        summands=order,
        hom_dims=tuple(tuple(r) for r in hom),
        arrows=tuple(tuple(r) for r in arrows),
        total_dim=sum(sum(r) for r in hom),
    )
    return memo[order]


@dataclass
class FactorReport:
    localised: LocalisedObject
    factor_matrix: tuple
    localised_matrix: tuple
    factor_arrow_counts: tuple
    localised_arrow_counts: tuple

    @property
    def ok(self) -> bool:
        return (self.factor_matrix, self.factor_arrow_counts) == (
            self.localised_matrix, self.localised_arrow_counts
        )


def _fingerprint(model: DerivedModel, ya, yb, pd) -> int:
    """Hom_C(ya, yb) of two D0 images, read in the parent window as
    Hom(ya, yb) + Hom(ya, D0 image of G yb)."""
    gyb = project_to_D0(model, model.g_raw(yb), pd)
    return model.hom(ya, yb) + sum(mult * model.hom(ya, v) for v, mult in gyb.items())


def verify_factor_theorem(model: DerivedModel, t, M: DVertex) -> FactorReport:
    """Compare End(t)/(M) with the endomorphism data of the localised object.

    Both the dimension matrices and the Gabriel arrow counts must agree.
    The localised side is read off the H' model; each Hom_C entry is checked
    against the D0 fingerprint once per pair of images and module of M.
    The factor entry of a, b is Hom_C(a, b) minus the bit of a -> M -> b,
    which `endo_dims` has cached wherever Hom_C(a, M) and Hom_C(M, b) are
    nonzero.

    A map a -> b through M lies in rad^2 when a, b != M, so the arrows of
    End(t)/(M) are those of End(t) without the row and column of M.
    """
    t = frozenset(t)
    loc = localise_object(model, t, M)
    ed = endo_dims(model, t)
    pd = loc.pd
    pdata = endo_dims(pd.prime_model, loc.prime_summands)
    s, hom, bits = ed.summands, ed.hom_dims, _endos[model][1]
    k = s.index(M)
    prime_row = {p: r for r, p in enumerate(pdata.summands)}
    # each summand other than M: its row in End(t), its D0 image and its row
    # in End(t'); localise_object has recorded both images
    rest = []
    for i, x in enumerate(s):
        if i != k:
            y, p = pd.summand_images[x]
            rest.append((i, y, prime_row[p]))
    mats = ([], [], [], [])  # factor and localised Hom_C, then their arrows
    for i, ya, pa in rest:
        cells = []
        for j, yb, pb in rest:
            entry = pdata.hom_dims[pa][pb]
            if (ya, yb) not in pd.checked_entries:
                if entry != _fingerprint(model, ya, yb, pd):
                    raise InternalCheckError(
                        "localised dimensions disagree between the D0 fingerprint and the H' model"
                    )
                pd.checked_entries.add((ya, yb))
            through = hom[i][k] and hom[k][j] and bits[_bit_key(s[i], M, s[j])]
            cells.append((hom[i][j] - through, entry, ed.arrows[i][j], pdata.arrows[pa][pb]))
        for mat, row in zip(mats, zip(*cells)):
            mat.append(row)
    return FactorReport(loc, *map(tuple, mats))
