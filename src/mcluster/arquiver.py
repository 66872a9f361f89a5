"""Knitting of the Auslander-Reiten quiver of mod H for a Dynkin quiver.

The knitting starts from the projectives (dimension vectors counted by
paths) and repeatedly forms the translate of a vertex once all arrows out
of it are known, using mesh additivity

    dim(tau^{-1} X) = sum of dims over arrows X -> Y  -  dim X.

Vertex identity is structural: in Dynkin type distinct indecomposables have
distinct dimension vectors, so a vertex is named by its dimension string.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalCheckError
from .quiver import Quiver, dim_str, positive_roots


@dataclass(eq=False)
class ARVertex:
    """An indecomposable H-module, identified by its dimension vector."""

    name: str
    dim: tuple[int, ...]
    projective_of: str | None = None
    injective_of: str | None = None
    slice_index: int = 0
    # the interned DVertex of each shift of this module (see derived.DVertex)
    shifts: dict = field(default_factory=dict, repr=False, compare=False)

    def __repr__(self):
        return f"<{self.name}>"


class ARQuiver:
    """The knitted AR-quiver of mod H (immutable once built)."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.vertices: list[ARVertex] = []   # creation order, topological
        self.arrows: list[tuple[ARVertex, ARVertex]] = []
        self.out: dict[ARVertex, list[ARVertex]] = {}
        self.inn: dict[ARVertex, list[ARVertex]] = {}
        self.tau: dict[ARVertex, ARVertex] = {}
        self.tau_inv: dict[ARVertex, ARVertex] = {}
        self.meshes: list[tuple[ARVertex, tuple[ARVertex, ...], ARVertex]] = []
        self.by_dim: dict[tuple[int, ...], ARVertex] = {}
        self.projectives: dict[str, ARVertex] = {}
        self.injectives: dict[str, ARVertex] = {}
        self._hom_cache: dict[ARVertex, dict[ARVertex, int]] = {}

    @property
    def n(self) -> int:
        return self.quiver.n

    def _add_vertex(self, v: ARVertex):
        if v.dim in self.by_dim:
            raise InternalCheckError(f"duplicate dimension vector {v.dim}")
        self.by_dim[v.dim] = v
        self.vertices.append(v)
        self.out[v] = []
        self.inn[v] = []

    def _add_arrow(self, src: ARVertex, dst: ARVertex):
        self.arrows.append((src, dst))
        self.out[src].append(dst)
        self.inn[dst].append(src)

    # --- Hom and Ext dimensions ------------------------------------------

    def hom(self, x: ARVertex, y: ARVertex) -> int:
        """dim Hom(x, y) by the hammock recursion across meshes."""
        cache = self._hom_cache.get(x)
        if cache is None:
            cache = {}
            for z in self.vertices:  # creation order is topological
                val = sum(cache[w] for w in self.inn[z])
                tz = self.tau.get(z)
                if tz is not None:
                    val -= cache[tz]
                if z is x:
                    val += 1
                if val < 0:
                    raise InternalCheckError(f"negative hammock value at {z}")
                cache[z] = val
            self._hom_cache[x] = cache
        return cache[y]

    def ext(self, x: ARVertex, y: ARVertex) -> int:
        """dim Ext^1(x, y) via the AR formula Ext^1(X,Y) = D Hom(Y, tau X)."""
        tx = self.tau.get(x)
        if tx is None:
            return 0
        return self.hom(y, tx)


def _path_counts(q: Quiver) -> dict[str, dict[str, int]]:
    """count[i][j] = number of paths i -> j, including the trivial path."""
    out = {v: [] for v in q.vertices}
    indeg = {v: 0 for v in q.vertices}
    for s, t in q.arrows:
        out[s].append(t)
        indeg[t] += 1
    topo, stack = [], sorted([v for v in q.vertices if indeg[v] == 0])
    while stack:
        v = stack.pop(0)
        topo.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    counts = {}
    for i in q.vertices:
        c = {v: 0 for v in q.vertices}
        c[i] = 1
        for v in topo:
            for w in out[v]:
                c[w] += c[v]
        counts[i] = c
    return counts


def knit_module_category(q: Quiver) -> ARQuiver:
    ar = ARQuiver(q)
    paths = _path_counts(q)
    proj_dim = {
        i: tuple(paths[i][l] for l in q.labels) for i in q.vertices
    }
    inj_dim = {
        i: tuple(paths[l][i] for l in q.labels) for i in q.vertices
    }
    inj_by_dim = {d: i for i, d in inj_dim.items()}

    # projective slice levels: arrows among projectives run P(j) -> P(i)
    # for each quiver arrow i -> j, so level(P(i)) > level(P(j))
    level = {}

    def _level(i):
        if i not in level:
            level[i] = 1 + max(
                (_level(j) for s, j in q.arrows if s == i), default=-1
            )
        return level[i]

    for i in q.vertices:
        _level(i)

    pvs = {}
    for i in sorted(q.vertices, key=lambda i: (level[i], i)):
        v = ARVertex(
            name=dim_str(proj_dim[i]),
            dim=proj_dim[i],
            projective_of=i,
            injective_of=inj_by_dim.get(proj_dim[i]),
            slice_index=level[i],
        )
        ar._add_vertex(v)
        pvs[i] = v
        ar.projectives[i] = v
    for i, j in q.arrows:
        ar._add_arrow(pvs[j], pvs[i])

    n_roots = len(positive_roots(q))
    while True:
        ready = [
            v
            for v in ar.vertices
            if v.injective_of is None
            and v not in ar.tau_inv
            and all(w.injective_of is not None or w in ar.tau_inv for w in ar.inn[v])
        ]
        if not ready:
            break
        v = min(ready, key=lambda u: (u.slice_index, u.name))
        mids = ar.out[v]
        if not mids:
            raise InternalCheckError(f"non-injective vertex {v} has no successors")
        dim = tuple(
            sum(w.dim[k] for w in mids) - v.dim[k] for k in range(q.n)
        )
        if any(x < 0 for x in dim) or all(x == 0 for x in dim):
            raise InternalCheckError(f"mesh additivity broke at {v}: {dim}")
        new = ARVertex(
            name=dim_str(dim),
            dim=dim,
            injective_of=inj_by_dim.get(dim),
            slice_index=1 + max(w.slice_index for w in mids),
        )
        ar._add_vertex(new)
        if len(ar.vertices) > n_roots:
            raise InternalCheckError("knitting produced more vertices than roots")
        for w in mids:
            ar._add_arrow(w, new)
        ar.tau[new] = v
        ar.tau_inv[v] = new
        ar.meshes.append((v, tuple(mids), new))

    if len(ar.vertices) != n_roots:
        raise InternalCheckError(
            f"knitted {len(ar.vertices)} vertices, expected {n_roots}"
        )
    if set(ar.by_dim) != set(positive_roots(q)):
        raise InternalCheckError("knitted dimension vectors are not the positive roots")
    for v in ar.vertices:
        if v.injective_of is not None:
            ar.injectives[v.injective_of] = v
        if v.injective_of is None and v not in ar.tau_inv:
            raise InternalCheckError(f"non-injective {v} was never translated")
    if len(ar.injectives) != q.n:
        raise InternalCheckError("wrong number of injectives")
    return ar
