"""Knitted Hom functors in the mesh category of the window model.

The translation quiver of D^b(mod H) glues shifted copies of the module
AR-quiver with connecting arrows I(j)[t] -> P(i)[t+1] for every quiver arrow
j -> i (rad P(j) is the sum of those P(i), as the connecting meshes need).
Arrows and meshes repeat in every degree, so the category keeps the arrows
into degrees 0 and 1 and checks each mesh once per module.  It leaves out
the connecting arrows into degree 0: they start in degree -1, and every
space is knitted from degree 0, which has no map to degree -1.

Hom(x, -) is knitted across the meshes (Riedtmann 1980; Happel 1988): for
z != x every map x -> z ends in an arrow mid -> z, and the mesh at z is the
only relation among those, so Hom(x, z) is the cokernel of Hom(x, tau z) ->
sum of Hom(x, mid) over the arrows mid -> z (the all-plus sign convention;
any consistent choice of signs gives the same dimensions, which the hammock
cross-check guards).  Morphisms leave this module only as coordinates in
the chosen bases, and `compositions` is the one composition primitive: the
table of composites of basis maps.  A Hom space with a degree gap outside
{0, 1} vanishes over a hereditary algebra, so it is empty without knitting.

The shift is a translation of the mesh category (Happel 1988), so Hom(x[d],
y[d]) is Hom(x, y) with the same columns, relations and basis.  One space is
kept per (module of x, module of y, degree gap), knitted from x at degree 0.
"""

from __future__ import annotations

import weakref

from .derived import DerivedModel, DVertex, _vkey
from .errors import InternalCheckError, WindowOverflow
from .linalg import SpanBuilder


def _units(d: int) -> list[list[int]]:
    return [[int(i == k) for i in range(d)] for k in range(d)]


class HomSpace:
    """Basis data for Hom(x, y) in the mesh category.

    `cols` lists the presentation columns (mid, k), mid in degrees relative
    to x, block by block in the order of the arrows into y; `offset[mid]` is
    where the block of mid starts.  Hom(x, x) has the one column (x, 0), the
    identity.  `relations` is the echelonized image of Hom(x, tau y), and the
    chosen basis is the set of non-pivot columns.  Outside this module a
    morphism is its vector of coordinates in that basis (see `coords`).
    """

    def __init__(self, cols, offset, relations: SpanBuilder):
        self.cols = cols
        self.offset = offset
        self.relations = relations
        pivots = set(relations.pivots())
        self.basis_cols = [i for i in range(len(cols)) if i not in pivots]
        self.dim = len(self.basis_cols)

    def zero(self):
        return [0] * len(self.cols)

    def coords(self, vec):
        """Basis coordinates of a presentation vector of Hom(x, y)."""
        red = self.relations.reduce(vec)
        return [red[c] for c in self.basis_cols]


class MeshCategory:
    """Hom-space cache plus composition tables over one window model."""

    def __init__(self, model: DerivedModel):
        # weak, because the model caches this category: a strong reference
        # would make a cycle that only the cyclic collector frees
        self._model = weakref.ref(model)
        self._spaces: dict[tuple, HomSpace] = {}
        ar = model.ar
        # the connecting arrows I(j)[t-1] -> P(i)[t], one per quiver arrow j -> i
        down = {p: [] for p in ar.projectives.values()}
        for j, i in ar.quiver.arrows:
            down[ar.projectives[i]].append(ar.injectives[j])
        for z in ar.vertices:
            # the mesh tau z -> mids -> z; at z = P(i), tau z is I(i)[-1], and
            # its arrows into degree 0 are those into P(i) by construction
            tz = ar.tau.get(z) or ar.injectives[z.projective_of]
            if set(ar.out[tz]) != set(down.get(z, ar.inn[z])):
                raise InternalCheckError(f"mesh mismatch at {z.name}")
        # the arrows into each vertex of degrees 0 and 1, in _vkey order; the
        # connecting arrows into degree 0 start in degree -1, where no space
        # knitted from degree 0 has a map, so only those into degree 1 are kept
        self._inn = {
            DVertex(z, d): sorted(
                [DVertex(w, d) for w in ar.inn[z]]
                + [DVertex(w, 0) for w in down.get(z, ()) if d],
                key=_vkey,
            )
            for d in (0, 1)
            for z in ar.vertices
        }

    def space(self, x: DVertex, y: DVertex) -> HomSpace:
        """Hom(x, y), window-checked on every call.  The knitting needs no
        check: tau of a degree-0 or 1 vertex is in degree >= -1, in every window."""
        model = self._model()
        for v in (x, y):
            if not model.contains(v):
                raise WindowOverflow(f"{v} is outside the shift window {model.window}")
        key = (x.module, y.module, y.shift - x.shift)
        hit = self._spaces.get(key)
        if hit is not None:
            return hit
        x, y = DVertex(x.module, 0), DVertex(y.module, y.shift - x.shift)
        if x == y:
            sp = HomSpace([(x, 0)], {}, SpanBuilder(1))
        elif y.shift not in (0, 1):
            sp = HomSpace([], {}, SpanBuilder(0))
        else:
            mids = self._inn[y]
            cols, offset = [], {}
            for mid in mids:
                offset[mid] = len(cols)
                cols += [(mid, k) for k in range(self.space(x, mid).dim)]
            rel = SpanBuilder(len(cols))
            # one relation per basis map x -> tau y, counted by the hammocks, so
            # the empty space at tau P(i)[0] = I(i)[-1] is never knitted
            ty = model.tau_raw(y)
            for f in _units(model.hom(x, ty)):
                rel.add([c for mid in mids for c in self._push(x, ty, mid, f)])
            sp = HomSpace(cols, offset, rel)
        expected = model.hom(x, y)
        if sp.dim != expected:
            raise InternalCheckError(
                f"mesh basis dim {sp.dim} != hammock dim {expected} for ({x}, {y})"
            )
        self._spaces[key] = sp
        return sp

    # --- composition ---------------------------------------------------------

    def _push(self, x: DVertex, w: DVertex, v: DVertex, f) -> list:
        """Basis coordinates in Hom(x, v) of f in Hom(x, w) followed by the
        arrow w -> v."""
        sp = self.space(x, v)
        vec = sp.zero()
        start = sp.offset[DVertex(w.module, w.shift - x.shift)]
        vec[start:start + len(f)] = f
        return sp.coords(vec)

    def compositions(self, x: DVertex, y: DVertex, z: DVertex) -> list[list]:
        """Basis coordinates in Hom(x, z) of g.f for each basis map f of
        Hom(x, y) followed by each basis map g of Hom(y, z), f-major.

        Each g is followed back through its (mid, k) columns to a path of
        arrows y -> z, and every f is pushed along it.  Returns [] as soon
        as one leg is zero, without building the others.
        """
        sxy = self.space(x, y)
        if not sxy.dim:
            return []
        syz = self.space(y, z)
        if not syz.dim:
            return []
        if not self.space(x, z).dim:  # a shift gap above one lands here too
            return [[] for _ in range(sxy.dim * syz.dim)]
        table = [self._follow(x, y, z, j, _units(sxy.dim)) for j in range(syz.dim)]
        return [g_rows[i] for i in range(sxy.dim) for g_rows in table]

    def _follow(self, x: DVertex, y: DVertex, z: DVertex, j: int, rows) -> list:
        """Basis coordinates in Hom(x, z) of each of the maps `rows` of
        Hom(x, y) followed by basis map j of Hom(y, z)."""
        if z == y:
            return rows
        sp = self.space(y, z)
        mid, k = sp.cols[sp.basis_cols[j]]
        mid = DVertex(mid.module, mid.shift + y.shift)
        return [self._push(x, mid, z, f) for f in self._follow(x, y, mid, k, rows)]

    def factoring_dim(self, x: DVertex, z: DVertex, through) -> int:
        """dim of the subspace of Hom(x,z) of maps factoring through `through`."""
        sb = SpanBuilder(self.space(x, z).dim)
        for w in sorted(set(through), key=_vkey):
            for row in self.compositions(x, w, z):
                sb.add(row)
        return sb.rank

