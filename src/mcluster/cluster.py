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

    Ext^k(x, y) is the orbit sum of Hom_D(x, G^t(y)[k]) over t = -2..2
    (`DerivedModel.hom_orbit`); here it is read from bitmasks computed once
    per node.  Each target G^t(y)[k] with |t| <= 1 and 1 <= k <= m, in a
    degree some node maps to, gets one bit: `near[y]` holds the targets of
    y, `supp[x]` those z with Hom_D(x, z) != 0, and all Ext^k(x, y) vanish
    when supp[x] & near[y] is empty.  The |t| = 2 terms must vanish for
    every ordered pair; each such target is read from every node, and a
    nonzero one raises.
    """

    def __init__(self, model: DerivedModel):
        self.m = model.m
        self.n = model.quiver.n
        self.nodes = nodes = fundamental_domain(model)
        self.index = {v: i for i, v in enumerate(nodes)}
        # Hom_D(x, z) is nonzero only when deg z is deg x or deg x + 1
        reach = {x.shift + gap for x in nodes for gap in (0, 1)}
        bits: dict[DVertex, int] = {}
        by_degree: dict[int, list[tuple[DVertex, int]]] = {}
        far_of: dict[DVertex, DVertex] = {}  # |t| = 2 target -> first node
        near = []
        for y in nodes:
            mask = 0
            for t in range(-2, 3):
                z = model.g_raw(y, t)
                for k in range(1, self.m + 1):
                    target = DVertex(z.module, z.shift + k)
                    if abs(t) == 2:
                        far_of.setdefault(target, y)
                    elif target.shift in reach:
                        bit = bits.get(target)
                        if bit is None:
                            bit = bits[target] = 1 << len(bits)
                            by_degree.setdefault(target.shift, []).append((target, bit))
                        mask |= bit
            near.append(mask)
        hom, supp = model.hom, []
        for x in nodes:
            for target, y in far_of.items():
                if hom(x, target):
                    raise InternalCheckError(
                        f"an orbit term with |t| = 2 is nonzero for ({x}, {y})"
                    )
            s = 0
            for gap in (0, 1):
                for target, bit in by_degree.get(x.shift + gap, ()):
                    if hom(x, target):
                        s |= bit
            supp.append(s)
        # bitmask of the self-rigid nodes
        self.rigid = sum(1 << i for i, s in enumerate(supp) if not s & near[i])
        self.adj = [0] * len(nodes)
        for i in range(len(nodes)):
            si, ni = supp[i], near[i]
            for j in range(i + 1, len(nodes)):
                if not (si & near[j] or supp[j] & ni):
                    self.adj[i] |= 1 << j
                    self.adj[j] |= 1 << i
        self._full = (1 << len(self.nodes)) - 1
        # each node's bit and closed neighbourhood, read by `_scan`
        self._closed = {
            v: (1 << i, self.adj[i] | 1 << i) for i, v in enumerate(self.nodes)
        }

    def _scan(self, vertices) -> tuple[int, int]:
        """The bitmask of a vertex set and the AND of the closed
        neighbourhoods of its members, in one pass over the set.

        A node lies in the AND when it is adjacent or equal to every member;
        every predicate below is read off the pair.
        """
        mask, acc = 0, self._full
        closed = self._closed
        for v in vertices:
            entry = closed.get(v)
            if entry is None:
                raise ValueError(
                    f"{v} is not in the fundamental domain (modules at shifts "
                    f"0..{self.m - 1}, projectives at shift {self.m})"
                )
            mask |= entry[0]
            acc &= entry[1]
        return mask, acc

    def mask(self, vertices) -> int:
        """The bitmask of a set of fundamental-domain vertices."""
        return self._scan(vertices)[0]

    def clique_and_maximal(self, vertices) -> tuple[bool, bool]:
        """Whether a vertex set is a clique of rigid vertices, and whether no
        rigid vertex outside it is adjacent to all of it, from one scan."""
        mask, acc = self._scan(vertices)
        return not mask & ~(self.rigid & acc), not acc & ~mask & self.rigid

    def is_clique(self, vertices) -> bool:
        return self.clique_and_maximal(vertices)[0]


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
    mask, acc = g._scan(partial)
    if mask & ~(g.rigid & acc):
        raise ValueError("input is not m-rigid")
    return [g.nodes[i] for i in _bits(acc & ~mask & g.rigid)]


def is_m_cluster_tilting(g: CompatibilityGraph, t) -> bool:
    """True when every vertex bi-orthogonal to all of t already lies in t.

    The quantifier runs over all fundamental-domain vertices, self-rigid or
    not, so this is the cluster-tilting condition and not a restatement of
    clique maximality.
    """
    mask, acc = g._scan(t)
    if mask & ~(g.rigid & acc):
        raise ValueError("input is not m-rigid")
    return not acc & ~mask


def _is_tilting_mask(g: CompatibilityGraph, mask: int) -> bool:
    """`is_m_cluster_tilting` of the vertex set with this bitmask, for the
    face walk of `verify`, which has masks and no vertex lists."""
    acc, nodes, closed = g._full, g.nodes, g._closed
    rest = mask
    while rest:
        low = rest & -rest
        acc &= closed[nodes[low.bit_length() - 1]][1]
        rest ^= low
    if mask & ~(g.rigid & acc):
        raise ValueError("input is not m-rigid")
    return not acc & ~mask


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
    `.mapping`; ROADMAP item 5 deletes it together with that call.
    """
    t = frozenset(t)
    return NormalizedObject(world=model, summands=t, mapping={v: v for v in t})
