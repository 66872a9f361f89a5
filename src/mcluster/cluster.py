"""The m-cluster category layer.

Objects of the orbit category are named by representatives in the
fundamental domain (all modules at shifts 0..m-1 plus the projectives at
shift m).  Ext groups are orbit sums of window Hom spaces, rigidity is the
mutual vanishing of those groups for 1 <= k <= m, and maximal m-rigid
objects are the maximal cliques of the resulting compatibility relation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .arquiver import ARQuiver, ARVertex
from .derived import DerivedModel, DVertex, _vkey
from .errors import CliqueCapExceeded, InternalCheckError


# per-model caches of this layer; a model's entries die with the model
_graphs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def fundamental_domain(model: DerivedModel) -> tuple[DVertex, ...]:
    vs = [DVertex(v, t) for v in model.ar.vertices for t in range(model.m)]
    vs += [
        DVertex(v, model.m) for v in model.ar.vertices if v.projective_of is not None
    ]
    vs.sort(key=lambda v: (v.module.slice_index, v.module.name, v.shift))
    return tuple(vs)


class CompatibilityGraph:
    """The m-rigidity relation on the fundamental domain.

    Edges are mutual vanishing of Ext^k for all 1 <= k <= m; they are
    computed between all vertex pairs, self-rigidity being a separate flag,
    so that the maximal-clique and cluster-tilting predicates stay genuinely
    different tests.
    """

    def __init__(self, model: DerivedModel):
        self.m = model.m
        self.n = model.quiver.n
        self.nodes = fundamental_domain(model)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        ks = range(1, self.m + 1)
        ext = model.hom_orbit
        # bitmask of the self-rigid nodes
        self.rigid = sum(
            1 << i
            for i, v in enumerate(self.nodes)
            if all(ext(v, v, k) == 0 for k in ks)
        )
        self.adj = [0] * len(self.nodes)
        for i, x in enumerate(self.nodes):
            for j in range(i + 1, len(self.nodes)):
                y = self.nodes[j]
                if all(ext(x, y, k) == 0 and ext(y, x, k) == 0 for k in ks):
                    self.adj[i] |= 1 << j
                    self.adj[j] |= 1 << i

    def mask(self, vertices) -> int:
        """The bitmask of a set of fundamental-domain vertices."""
        out = 0
        for v in vertices:
            i = self.index.get(v)
            if i is None:
                raise ValueError(
                    f"{v} is not in the fundamental domain (modules at shifts "
                    f"0..{self.m - 1}, projectives at shift {self.m})"
                )
            out |= 1 << i
        return out

    def common_neighbours(self, t) -> int:
        """Bitmask of the vertices outside t adjacent to every vertex of t."""
        mask = self.mask(t)
        out = (1 << len(self.nodes)) - 1
        for i in _bits(mask):
            out &= self.adj[i]
        return out & ~mask

    def is_clique(self, vertices) -> bool:
        t = self.mask(vertices)
        return not t & ~self.rigid and all(
            not t & ~self.adj[i] & ~(1 << i) for i in _bits(t)
        )

    def is_maximal(self, t) -> bool:
        """True when no rigid vertex outside t is adjacent to all of t."""
        return not self.common_neighbours(t) & self.rigid


def compatibility_graph(model: DerivedModel) -> CompatibilityGraph:
    g = _graphs.get(model)
    if g is None:
        g = _graphs[model] = CompatibilityGraph(model)
    return g


@dataclass(frozen=True)
class MRigidObject:
    summands: frozenset[DVertex]

    def sorted_summands(self) -> tuple[DVertex, ...]:
        return tuple(sorted(self.summands, key=_vkey))

    def name(self) -> str:
        return " + ".join(v.name() for v in self.sorted_summands()) or "0"


def _bron_kerbosch(adj, r, p, x, out, cap):
    """Pivoted Bron-Kerbosch over bitmask sets, lowest-bit-first for determinism."""
    if not p and not x:
        out.append(r)
        if cap is not None and len(out) > cap:
            raise CliqueCapExceeded(cap)
        return
    pool = p | x
    pivot, best = -1, -1
    u = pool
    while u:
        v = (u & -u).bit_length() - 1
        u &= u - 1
        cnt = bin(p & adj[v]).count("1")
        if cnt > best:
            best, pivot = cnt, v
    cand = p & ~adj[pivot]
    while cand:
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        cand &= cand - 1
        _bron_kerbosch(adj, r | bit, p & adj[v], x & adj[v], out, cap)
        p &= ~bit
        x |= bit


def enumerate_maximal_m_rigid(
    g: CompatibilityGraph, max_cliques: int | None = None
) -> list[MRigidObject]:
    """All maximal m-rigid objects, as maximal cliques over the rigid nodes."""
    masks: list[int] = []
    _bron_kerbosch([a & g.rigid for a in g.adj], 0, g.rigid, 0, masks, max_cliques)
    objs = []
    for mask in sorted(masks):
        members = frozenset(g.nodes[i] for i in _bits(mask))
        objs.append(MRigidObject(members))
    return objs


def _bits(mask):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def complements(g: CompatibilityGraph, partial) -> list[DVertex]:
    """All vertices completing an almost complete m-rigid object."""
    partial = frozenset(partial)
    if len(partial) != g.n - 1:
        raise ValueError(f"expected {g.n - 1} summands, got {len(partial)}")
    if not g.is_clique(partial):
        raise ValueError("input is not m-rigid")
    return [g.nodes[i] for i in _bits(g.common_neighbours(partial) & g.rigid)]


def is_m_cluster_tilting(g: CompatibilityGraph, t) -> bool:
    """True when every vertex bi-orthogonal to all of t already lies in t.

    The quantifier runs over all fundamental-domain vertices, self-rigid or
    not, so this is the cluster-tilting condition and not a restatement of
    clique maximality.
    """
    if not g.is_clique(t):
        raise ValueError("input is not m-rigid")
    return not g.common_neighbours(t)


def tilting_modules(ar: ARQuiver) -> list[frozenset[ARVertex]]:
    """All basic tilting modules: maximal Ext-orthogonal sets of modules.

    Enumerated as maximal cliques of the module-level rigidity relation;
    each must come out with exactly n summands.
    """
    verts = ar.vertices
    adj = [0] * len(verts)
    for i, x in enumerate(verts):
        if ar.ext(x, x) != 0:
            continue
        for j in range(i + 1, len(verts)):
            y = verts[j]
            if ar.ext(x, y) == 0 == ar.ext(y, x) and ar.ext(y, y) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    masks: list[int] = []
    full = (1 << len(verts)) - 1
    _bron_kerbosch(adj, 0, full, 0, masks, None)
    out = []
    for mask in sorted(masks):
        members = frozenset(verts[i] for i in _bits(mask))
        if len(members) != ar.n:
            raise InternalCheckError(
                f"maximal rigid module set of size {len(members)} != n"
            )
        out.append(members)
    return out


# --- the benchmark's normalisation call -------------------------------------


@dataclass
class NormalizedObject:
    world: DerivedModel
    summands: frozenset[DVertex]
    mapping: dict[DVertex, DVertex]


def normalize_to_Dminus(model: DerivedModel, t) -> NormalizedObject:
    """The identity: every summand of t is localised in the model where it
    is named, so nothing is moved.

    Kept only for the `local-factor` pass of the layer benchmark
    (`benchmarks/workloads.py`), which reads `.world`, `.summands` and
    `.mapping`; ROADMAP item 1 deletes it together with that call.
    """
    t = frozenset(t)
    return NormalizedObject(world=model, summands=t, mapping={v: v for v in t})
