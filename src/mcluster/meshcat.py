"""Explicit Hom bases in the mesh category of the window model.

A Hom space is the span of paths between two window vertices modulo the
ideal generated by the mesh relations.  For each mesh tauZ -> middles -> Z
the relation is the plain sum over middles of the two-step compositions
(the all-plus sign convention; any consistent choice of signs gives the
same dimensions, which the hammock cross-check guards).  Morphisms leave
this module only as coordinates in the chosen bases, and `compositions` is
the one composition primitive: the table of composites of basis maps.

Paths only ever move weakly up in degree, and a Hom space with a degree gap
above one vanishes over a hereditary algebra, so path enumeration is cut at
the target degree and gap > 1 spaces are empty without search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derived import DerivedModel, DObject, DVertex, _vkey
from .errors import InternalCheckError, WindowOverflow
from .linalg import SpanBuilder

Path = tuple[DVertex, ...]


class HomSpace:
    """Basis data for Hom(x, y) in the mesh category.

    `paths` lists every path from x to y in the window, `relations` is the
    echelonized span of the mesh relations restricted to those paths, and
    the chosen basis is the set of non-pivot paths.  Outside this module a
    morphism is its vector of coordinates in that basis (see `coords`).
    """

    def __init__(self, x: DVertex, y: DVertex, paths: list[Path], relations: SpanBuilder):
        self.x = x
        self.y = y
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.relations = relations
        pivots = set(relations.pivots())
        self.basis_cols = [i for i in range(len(paths)) if i not in pivots]
        self.dim = len(self.basis_cols)

    def zero(self):
        return [Fraction(0)] * len(self.paths)

    def coords(self, vec):
        """Basis coordinates of a path-coefficient vector of Hom(x, y)."""
        red = self.relations.reduce(vec)
        return [red[c] for c in self.basis_cols]


class MeshCategory:
    """Hom-space cache plus composition tables over one window model."""

    def __init__(self, model: DerivedModel):
        self.model = model
        self._spaces: dict[tuple[DVertex, DVertex], HomSpace] = {}
        self._paths: dict[tuple[DVertex, DVertex], list[Path]] = {}

    # --- path enumeration --------------------------------------------------

    def paths(self, x: DVertex, y: DVertex) -> list[Path]:
        key = (x, y)
        hit = self._paths.get(key)
        if hit is not None:
            return hit
        out: list[Path] = []
        if x.shift <= y.shift:
            stack: list[Path] = [(x,)]
            while stack:
                p = stack.pop()
                v = p[-1]
                if v == y:
                    out.append(p)
                    continue
                for w in self.model.out[v]:
                    if w.shift <= y.shift:
                        stack.append(p + (w,))
        out.sort(key=lambda p: tuple(_vkey(v) for v in p))
        self._paths[key] = out
        return out

    def space(self, x: DVertex, y: DVertex) -> HomSpace:
        key = (x, y)
        hit = self._spaces.get(key)
        if hit is not None:
            return hit
        for v in (x, y):
            if not self.model.contains(v):
                raise WindowOverflow(
                    f"{v} is outside the shift window {self.model.window}"
                )
        if y.shift - x.shift > 1 or y.shift < x.shift:
            sp = HomSpace(x, y, [], SpanBuilder(0))
        else:
            paths = self.paths(x, y)
            idx = {p: i for i, p in enumerate(paths)}
            rel = SpanBuilder(len(paths))
            for start, mids, end in self.model.meshes:
                if start.shift < x.shift or end.shift > y.shift:
                    continue
                heads = self.paths(x, start)
                tails = self.paths(end, y)
                if not heads or not tails:
                    continue
                for p in heads:
                    for q in tails:
                        row = [0] * len(paths)
                        for mid in mids:
                            full = p + (mid,) + q
                            row[idx[full]] += 1
                        rel.add(row)
            sp = HomSpace(x, y, paths, rel)
        expected = self.model.hom(x, y)
        if sp.dim != expected:
            raise InternalCheckError(
                f"mesh basis dim {sp.dim} != hammock dim {expected} for ({x}, {y})"
            )
        self._spaces[key] = sp
        return sp

    # --- composition ---------------------------------------------------------

    def compositions(self, x: DVertex, y: DVertex, z: DVertex) -> list[list]:
        """Basis coordinates in Hom(x, z) of g.f for each basis map f of
        Hom(x, y) followed by each basis map g of Hom(y, z), f-major.

        Returns [] as soon as one leg is zero, without building the others.
        """
        sxy = self.space(x, y)
        if not sxy.dim:
            return []
        syz = self.space(y, z)
        if not syz.dim:
            return []
        sxz = self.space(x, z)
        out = []
        for i in sxy.basis_cols:
            for j in syz.basis_cols:
                vec = [0] * len(sxz.paths)
                if sxz.dim:  # a shift gap above one leaves Hom(x, z) pathless
                    vec[sxz.index[sxy.paths[i] + syz.paths[j][1:]]] = 1
                out.append(sxz.coords(vec))
        return out

    def factoring_dim(self, x: DVertex, z: DVertex, through) -> int:
        """dim of the subspace of Hom(x,z) of maps factoring through `through`."""
        sb = SpanBuilder(self.space(x, z).dim)
        for w in sorted(set(through), key=_vkey):
            for row in self.compositions(x, w, z):
                sb.add(row)
        return sb.rank


@dataclass
class ApproxTriangle:
    """A minimal right approximation with its chosen maps.

    `maps` stores, per class member c, the chosen maps c -> target spanning
    the top of the restricted Hom functor, as unit vectors in basis
    coordinates of Hom(c, target); `cone` is the class of the third term
    of the induced triangle when the caller can compute it (see localise).
    """

    approx_source: DObject
    maps: dict[DVertex, list]
    target: DVertex
    cone: DObject | None = None


def minimal_right_approximation(mesh: MeshCategory, x: DVertex, cls) -> ApproxTriangle:
    """Minimal right add(cls)-approximation C -> x.

    The multiplicity of c is the dimension of Hom(c, x) modulo maps that
    factor through a radical map into another class member, and the chosen
    maps are the basis maps completing that radical subspace.
    """
    cls = sorted(set(cls), key=_vkey)
    maps: dict[DVertex, list] = {}
    for c in cls:
        d = mesh.space(c, x).dim
        sb = SpanBuilder(d)
        for c2 in cls:
            if c2 != c:  # rad(c, c) = 0 for bricks
                for row in mesh.compositions(c, c2, x):
                    sb.add(row)
        units = [[int(i == k) for i in range(d)] for k in range(d)]
        maps[c] = [e for e in units if sb.add(e)]
    src = DObject.of([c for c in cls for _ in maps[c]])
    return ApproxTriangle(approx_source=src, maps=maps, target=x)
