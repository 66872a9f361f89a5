"""Explicit Hom bases in the mesh category of the window model.

A Hom space is the span of paths between two window vertices modulo the
ideal generated by the mesh relations.  For each mesh tauZ -> middles -> Z
the relation is the plain sum over middles of the two-step compositions
(the all-plus sign convention; any consistent choice of signs gives the
same dimensions, which the hammock cross-check guards).

Paths only ever move weakly up in degree, and a Hom space with a degree gap
above one vanishes over a hereditary algebra, so path enumeration is cut at
the target degree and gap > 1 spaces are empty without search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derived import DerivedModel, DObject, DVertex, _vkey
from .errors import InternalCheckError
from .linalg import SpanBuilder

Path = tuple[DVertex, ...]


class HomSpace:
    """Basis data for Hom(x, y) in the mesh category.

    `paths` lists every path from x to y in the window, `relations` is the
    echelonized span of the mesh relations restricted to those paths, and
    the chosen basis is the set of non-pivot paths.  Elements are coefficient
    vectors over `paths` in reduced (residual) form.
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

    def basis_elements(self):
        out = []
        for c in self.basis_cols:
            v = self.zero()
            v[c] = Fraction(1)
            out.append(v)
        return out

    def reduce(self, vec):
        return self.relations.reduce(vec)


class MeshCategory:
    """Hom-space cache plus composition over one window model."""

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
        if self.model.contains(x) and self.model.contains(y) and x.shift <= y.shift:
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

    # --- composition and twists ---------------------------------------------

    def compose(self, x: DVertex, y: DVertex, z: DVertex, f, g):
        """Compose f in Hom(x,y) with g in Hom(y,z); reduced vector in Hom(x,z)."""
        sxz = self.space(x, z)
        out = sxz.zero()
        if not sxz.paths:
            return out
        sxy = self.space(x, y)
        syz = self.space(y, z)
        for i, ci in enumerate(f):
            if not ci:
                continue
            p = sxy.paths[i]
            for j, cj in enumerate(g):
                if not cj:
                    continue
                q = syz.paths[j]
                out[sxz.index[p + q[1:]]] += ci * cj
        return sxz.reduce(out)

    def g_twist(self, x: DVertex, y: DVertex, f):
        """Image of f in Hom(x,y) under the automorphism G of the window."""
        gx = self.model.g(x)
        gy = self.model.g(y)
        src = self.space(x, y)
        dst = self.space(gx, gy)
        out = dst.zero()
        for i, c in enumerate(f):
            if not c:
                continue
            moved = tuple(self.model.g(v) for v in src.paths[i])
            out[dst.index[moved]] += c
        return dst.reduce(out)

    # --- derived quantities ---------------------------------------------------

    def factoring_dim(self, x: DVertex, z: DVertex, through) -> int:
        """dim of the subspace of Hom(x,z) of maps factoring through `through`."""
        sxz = self.space(x, z)
        sb = SpanBuilder(len(sxz.paths))
        for w in sorted(set(through), key=_vkey):
            for f in self.space(x, w).basis_elements():
                for g in self.space(w, z).basis_elements():
                    sb.add(self.compose(x, w, z, f, g))
        return sb.rank


@dataclass
class ApproxTriangle:
    """A minimal right approximation with its chosen maps.

    `maps` stores, per class member, the chosen basis representatives of the
    top of the restricted Hom functor; `cone` is the class of the third term
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
    maps are basis elements completing that radical subspace.
    """
    cls = sorted(set(cls), key=_vkey)
    mults: dict[DVertex, int] = {}
    maps: dict[DVertex, list] = {}
    for c in cls:
        sc = mesh.space(c, x)
        sb = SpanBuilder(len(sc.paths))
        for c2 in cls:
            if c2 == c:
                continue  # rad(c, c) = 0 for bricks
            for h in mesh.space(c, c2).basis_elements():
                for g in mesh.space(c2, x).basis_elements():
                    sb.add(mesh.compose(c, c2, x, h, g))
        chosen = []
        for e in sc.basis_elements():
            if sb.add(e):
                chosen.append(e)
        mults[c] = len(chosen)
        maps[c] = chosen
        if sb.rank != sc.dim:
            raise InternalCheckError("top computation missed part of Hom(c, x)")
    src = DObject.of([c for c in cls for _ in range(mults[c])])
    return ApproxTriangle(approx_source=src, maps=maps, target=x)
