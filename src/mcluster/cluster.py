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
from .errors import CliqueCapExceeded, InternalCheckError, WindowOverflow


# per-model caches of this layer; a model's entries die with the model
_graphs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_slices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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


# --- slices and normalization into low degrees ----------------------------


def _tau_orbits(model: DerivedModel) -> list[list[DVertex]]:
    """Window vertices grouped by tau-orbit, each sorted along the orbit: the
    window part of an orbit is one run (shifts are monotone along it), walked
    by tau^-1 from the vertex whose tau leaves the window."""
    orbits = []
    for v in model.vertices:
        if model.contains(model.tau_raw(v)):
            continue
        orbit = [v]
        while model.contains(model.tau_inv_raw(orbit[-1])):
            orbit.append(model.tau_inv_raw(orbit[-1]))
        orbits.append(orbit)
    if len(orbits) != model.quiver.n:
        raise InternalCheckError(
            f"{len(orbits)} tau-orbits in the window, expected {model.quiver.n}"
        )
    return sorted(orbits, key=lambda o: _vkey(o[0]))


def enumerate_slices(model: DerivedModel):
    """All sections of the window: one vertex per tau-orbit, neighbours
    chosen adjacent across every edge of the underlying diagram."""
    if model in _slices:
        return _slices[model]
    orbits = _tau_orbits(model)
    orbit_of = {}
    for i, o in enumerate(orbits):
        for v in o:
            orbit_of[v] = i
    n = len(orbits)
    edges = {i: set() for i in range(n)}
    for v in model.vertices:
        for w in model.out[v]:
            a, b = orbit_of[v], orbit_of[w]
            if a != b:
                edges[a].add(b)
                edges[b].add(a)

    order = [0]
    parent = {0: None}
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop(0)
        for nb in sorted(edges[cur]):
            if nb not in seen:
                seen.add(nb)
                parent[nb] = cur
                order.append(nb)
                queue.append(nb)

    # depth first along `order`, a partial slice assigning order[:k]; the
    # candidates are pushed in reverse so that they are popped in _vkey order
    slices, stack = [], [{}]
    while stack:
        assign = stack.pop()
        k = len(assign)
        if k == n:
            slices.append(tuple(assign[i] for i in range(n)))
            continue
        o = order[k]
        par = parent[o]
        if par is None:
            cands = orbits[o]
        else:
            pv = assign[par]
            cands = [
                v
                for v in orbits[o]
                if v in model.out[pv] or pv in model.out[v]
            ]
        for v in sorted(cands, key=_vkey, reverse=True):
            stack.append({**assign, o: v})
    _slices[model] = slices
    return slices


def slice_degree(model: DerivedModel, slice_vertices, x: DVertex) -> int | None:
    """Degree of x relative to the heart cut out by the slice.

    x lies in (mod H0)[d] exactly when some slice vertex (a projective of
    H0) has a nonzero map to x[-d]; at most one d can fire.
    """
    lo, hi = model.window
    hits = []
    for d in range(x.shift - hi, x.shift - lo + 1):
        y = DVertex(x.module, x.shift - d)
        if any(model.hom(s, y) > 0 for s in slice_vertices):
            hits.append(d)
    if len(hits) > 1:
        raise InternalCheckError(f"slice degree of {x} is ambiguous: {hits}")
    return hits[0] if hits else None


@dataclass
class NormalizedObject:
    """A maximal m-rigid object repositioned so all summands have degree
    below m, possibly over a derived-equivalent algebra."""

    world: DerivedModel
    summands: frozenset[DVertex]
    mapping: dict[DVertex, DVertex]
    identity: bool


def normalize_to_Dminus(model: DerivedModel, t) -> NormalizedObject:
    """Find a slice (and per-summand orbit representatives) putting every
    summand of t in degrees 0..m-1, and verify maximality there.

    Summand representatives may move by powers of G: the object of the orbit
    category is unchanged, only its window representative is.
    """
    t = frozenset(t)
    m = model.m
    if all(0 <= v.shift <= m - 1 for v in t):
        return NormalizedObject(
            world=model,
            summands=t,
            mapping={v: v for v in t},
            identity=True,
        )

    for sl in enumerate_slices(model):
        mapping = {}
        for x in sorted(t, key=_vkey):
            found = None
            for gt in range(-3, 4):
                y = model.g_raw(x, gt)
                if not model.contains(y):
                    continue
                d = slice_degree(model, sl, y)
                if d is not None and 0 <= d <= m - 1:
                    found = (y, d)
                    break
            if found is None:
                break
            mapping[x] = found
        if len(mapping) != len(t):
            continue

        alg = model.algebra_of_projectives(sl)
        sw_map = {
            x: DVertex(model.module_over(alg, DVertex(y.module, y.shift - d)), d)
            for x, (y, d) in mapping.items()
        }
        new_t = frozenset(sw_map.values())
        if len(new_t) != len(t):
            raise InternalCheckError("normalization collapsed two summands")
        g = compatibility_graph(alg.model)
        if not g.is_clique(new_t):
            raise InternalCheckError("normalized object is not m-rigid")
        if not g.is_maximal(new_t):
            raise InternalCheckError("normalized object is not maximal")
        return NormalizedObject(
            world=alg.model,
            summands=new_t,
            mapping=sw_map,
            identity=False,
        )
    raise WindowOverflow("no normalizing slice found in the window")
