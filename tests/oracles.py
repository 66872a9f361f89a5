"""Independent oracles used to cross-check the production algorithms.

None of them shares code with the algorithm it checks: clique enumeration
is a naive breadth-first growth with maximality checks over the orbit Hom
sums, Hom dimensions come from explicit representation matrices, positive
roots from a bounded brute force over the Tits form, D0 membership from
window Hom dimensions, the mesh category is rebuilt as paths modulo the
mesh ideal, the G-twist moves basis paths one by one, and the cluster
predicates are read pair by pair off the orbit Hom sums, never off the
compatibility graph's bitmasks.  The endomorphism-algebra references share
only the mesh category's composition tables with `mcluster.endo`: their
orbit span composes all three blocks of every mid straight from
`compositions`, whatever the Hom dimensions say, and row-reduces them.
The End(T) reference opens a span for every pair of summands with every
other summand as a mid and reads no composite bit, and so checks the 0/1
reading of `endo_dims` and the triples it skips; the factor-algebra
references build a span afresh for every summand M, and so check how
End(T)/(M) is read off End(T).
"""

from fractions import Fraction
from itertools import product

from mcluster.cluster import fundamental_domain
from mcluster.derived import DVertex, _vkey
from mcluster.endo import EndoAlgebraData
from mcluster.linalg import SpanBuilder
from mcluster.quiver import Quiver, tits_form


def compatible(model):
    """The m-rigidity relation read straight off the orbit Hom sums: x ~ y
    when Ext^k vanishes both ways for 1 <= k <= m."""
    ks = range(1, model.m + 1)
    memo = {}

    def adjacent(x, y):
        if (x, y) not in memo:
            memo[x, y] = x != y and all(
                model.hom_orbit(x, y, k) == 0 == model.hom_orbit(y, x, k) for k in ks
            )
        return memo[x, y]

    return adjacent


class PairwiseCluster:
    """The cluster-layer predicates answered pair by pair from the orbit Hom
    sums, with no bitmask: a vertex is rigid when its own Ext^k vanish, and
    the set `nonrigid` is treated as not rigid whatever its Ext groups say.
    Every answer is a set of vertices or a bool; inputs may repeat vertices.
    """

    def __init__(self, model, nonrigid=()):
        ks = range(1, model.m + 1)
        self.n = model.quiver.n
        self.nodes = fundamental_domain(model)
        self.adjacent = compatible(model)
        self.rigid = {
            v
            for v in self.nodes
            if v not in nonrigid and all(model.hom_orbit(v, v, k) == 0 for k in ks)
        }

    def is_clique(self, t) -> bool:
        t = set(t)
        return t <= self.rigid and all(
            self.adjacent(x, y) for x in t for y in t if x != y
        )

    def common_neighbours(self, t) -> set:
        t = set(t)
        return {
            u for u in self.nodes if u not in t and all(self.adjacent(u, x) for x in t)
        }

    def is_maximal(self, t) -> bool:
        return not self.common_neighbours(t) & self.rigid

    def complements(self, t) -> list:
        """The rigid common neighbours in domain order; ValueError unless t
        is an m-rigid object of n - 1 distinct summands."""
        if len(set(t)) != self.n - 1 or not self.is_clique(t):
            raise ValueError("not an almost complete m-rigid object")
        cn = self.common_neighbours(t) & self.rigid
        return [u for u in self.nodes if u in cn]

    def is_m_cluster_tilting(self, t) -> bool:
        """No vertex outside t, rigid or not, is compatible with all of t;
        ValueError unless t is m-rigid."""
        if not self.is_clique(t):
            raise ValueError("not m-rigid")
        return not self.common_neighbours(t)


def in_D0(model, u, M):
    """u is perpendicular to M when no shift of M in the window maps to u."""
    lo, hi = model.window
    return all(model.hom(DVertex(M.module, i), u) == 0 for i in range(lo, hi + 1))


def naive_maximal_cliques(nodes, adjacent):
    """All maximal cliques by breadth-first growth and explicit maximality."""
    nodes = list(nodes)
    cliques = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        nxt = set()
        for c in frontier:
            for v in nodes:
                if v in c:
                    continue
                if all(adjacent(v, u) for u in c):
                    nxt.add(c | {v})
        frontier = nxt - cliques
        cliques |= nxt
    maximal = []
    for c in cliques:
        if not any(
            v not in c and all(adjacent(v, u) for u in c) for v in nodes
        ):
            maximal.append(c)
    return set(maximal)


def all_cliques(nodes, adjacent):
    nodes = list(nodes)
    cliques = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        nxt = set()
        for c in frontier:
            for v in nodes:
                if v not in c and all(adjacent(v, u) for u in c):
                    nxt.add(c | {v})
        frontier = nxt - cliques
        cliques |= nxt
    return cliques


def brute_positive_roots(q: Quiver, bound: int = 4):
    """Every vector with entries up to `bound` where the Tits form is 1."""
    roots = []
    for vec in product(range(bound + 1), repeat=q.n):
        if any(vec) and tits_form(q, vec) == 1:
            roots.append(vec)
    return sorted(roots)


def fuss_catalan(diagram: str, m: int) -> int:
    """Product formula over the exponents, used purely as a fixture."""
    kind, rank = diagram[0], int(diagram[1:])
    if kind == "A":
        h, exps = rank + 1, list(range(1, rank + 1))
    elif kind == "D":
        h, exps = 2 * rank - 2, list(range(1, 2 * rank - 2, 2)) + [rank - 1]
    elif diagram == "E6":
        h, exps = 12, [1, 4, 5, 7, 8, 11]
    else:
        raise ValueError(diagram)
    num, den = 1, 1
    for e in exps:
        num *= m * h + e + 1
        den *= e + 1
    assert num % den == 0
    return num // den


# --- representation-level Hom oracle for linear A_n ------------------------


def hom_dim_intervals(n: int, src: tuple[int, int], dst: tuple[int, int]) -> int:
    """dim Hom between interval modules [lo,hi] over linear A_n (1->2->...->n).

    Every vertex space is 0 or 1 dimensional and arrow maps are identities
    where both ends live, so the intertwiner unknowns are scalars x_v (one
    per vertex where both modules live) and each arrow i -> i+1 contributes
    the commuting-square equation in Hom(src_i, dst_{i+1}) when that space
    is nonzero.
    """
    s = [1 if src[0] <= v <= src[1] else 0 for v in range(1, n + 1)]
    d = [1 if dst[0] <= v <= dst[1] else 0 for v in range(1, n + 1)]
    unknowns = [v for v in range(n) if s[v] and d[v]]
    pos = {v: i for i, v in enumerate(unknowns)}
    if not unknowns:
        return 0
    sb = SpanBuilder(len(unknowns))
    for i in range(n - 1):  # arrow i+1 -> i+2 in labels
        if not (s[i] and d[i + 1]):
            continue
        row = [Fraction(0)] * len(unknowns)
        if s[i + 1]:  # src arrow map is the identity, phi_{i+1} exists
            row[pos[i + 1]] += 1
        if d[i]:  # dst arrow map is the identity, phi_i exists
            row[pos[i]] -= 1
        sb.add(row)
    return len(unknowns) - sb.rank


def interval_modules(n):
    return [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]


def interval_dim_vector(n, iv):
    return tuple(1 if iv[0] <= v <= iv[1] else 0 for v in range(1, n + 1))


# --- basis-coordinate oracles for the mesh category ------------------------


def units(d):
    """The basis maps of a d-dimensional Hom space, in basis coordinates."""
    return [[int(i == k) for i in range(d)] for k in range(d)]


def compose_coords(mesh, x, y, z, f, g):
    """g.f in basis coordinates of Hom(x, z) for f in Hom(x, y) and g in
    Hom(y, z), by bilinear extension of the composition table."""
    out = [Fraction(0)] * mesh.space(x, z).dim
    for k, row in enumerate(mesh.compositions(x, y, z)):
        c = f[k // len(g)] * g[k % len(g)]
        for i, r in enumerate(row):
            out[i] += c * r
    return out


class PathSpace:
    """Hom(x, y) as the span of the paths x -> y modulo the mesh relations
    restricted to them; the basis is the set of non-pivot paths."""

    def __init__(self, paths, index, relations):
        self.paths = paths
        self.index = index
        self.relations = relations
        pivots = set(relations.pivots())
        self.basis_cols = [i for i in range(len(paths)) if i not in pivots]
        self.dim = len(self.basis_cols)

    def coords(self, vec):
        red = self.relations.reduce(vec)
        return [red[c] for c in self.basis_cols]


class PathMeshCategory:
    """The mesh category of a window model as paths modulo the mesh ideal:
    every path of the window, and for each mesh tau z -> mids -> z one
    all-plus relation row per (head, tail) pair of paths around it.  The
    path count is exponential, so this is a reference for small ranks."""

    def __init__(self, model):
        self.model = model
        ar, (lo, hi) = model.ar, model.window
        # the window arrows: those of mod H in each degree, and I(j)[t] ->
        # P(i)[t+1] for each quiver arrow j -> i
        arrows = [
            (DVertex(a, t), DVertex(b, t)) for t in range(lo, hi + 1) for a, b in ar.arrows
        ]
        arrows += [
            (DVertex(ar.injectives[j], t), DVertex(ar.projectives[i], t + 1))
            for t in range(lo, hi)
            for j, i in model.quiver.arrows
        ]
        self.out = {v: [] for v in model.vertices}
        inn = {v: [] for v in model.vertices}
        for a, b in arrows:
            self.out[a].append(b)
            inn[b].append(a)
        self.meshes = [
            (model.tau_raw(z), inn[z], z)
            for z in model.vertices
            if model.contains(model.tau_raw(z))
        ]
        self._paths = {}
        self._spaces = {}

    def paths(self, x, y):
        key = (x, y)
        if key not in self._paths:
            out = []
            stack = [(x,)] if x.shift <= y.shift else []
            while stack:
                p = stack.pop()
                if p[-1] == y:
                    out.append(p)
                    continue
                for w in self.out[p[-1]]:
                    if w.shift <= y.shift:
                        stack.append(p + (w,))
            out.sort(key=lambda p: tuple(_vkey(v) for v in p))
            self._paths[key] = out
        return self._paths[key]

    def space(self, x, y):
        key = (x, y)
        if key not in self._spaces:
            paths = self.paths(x, y) if 0 <= y.shift - x.shift <= 1 else []
            index = {p: i for i, p in enumerate(paths)}
            rel = SpanBuilder(len(paths))
            for start, mids, end in self.meshes if paths else ():
                if start.shift < x.shift or end.shift > y.shift:
                    continue
                for p in self.paths(x, start):
                    for q in self.paths(end, y):
                        row = [0] * len(paths)
                        for mid in mids:
                            row[index[p + (mid,) + q]] += 1
                        rel.add(row)
            self._spaces[key] = PathSpace(paths, index, rel)
        return self._spaces[key]

    def compositions(self, x, y, z):
        """The composition table in basis coordinates, f-major: the basis
        paths concatenate."""
        sxy, syz, sxz = self.space(x, y), self.space(y, z), self.space(x, z)
        out = []
        for i in sxy.basis_cols:
            for j in syz.basis_cols:
                vec = [0] * len(sxz.paths)
                if sxz.dim:
                    vec[sxz.index[sxy.paths[i] + syz.paths[j][1:]]] = 1
                out.append(sxz.coords(vec))
        return out

    def factoring_dim(self, x, z, through):
        sb = SpanBuilder(self.space(x, z).dim)
        for w in through:
            for row in self.compositions(x, w, z):
                sb.add(row)
        return sb.rank


def g_twist(paths, x, y, f):
    """Image of f in Hom(x, y) under the automorphism G of the window, moved
    path by path on a PathMeshCategory: G carries paths to paths and meshes
    to meshes."""
    g = paths.model.g_raw
    src, dst = paths.space(x, y), paths.space(g(x), g(y))
    vec = [0] * len(dst.paths)
    for c, col in zip(f, src.basis_cols):
        vec[dst.index[tuple(g(v) for v in src.paths[col])]] += c
    return dst.coords(vec)


# --- End(T) and factor algebras End(T)/(M) from unpruned spans -------------


def orbit_span(model, a, b, mids):
    """Span in Hom_C(a, b) = Hom(a, b) + Hom(a, Gb) of every composite
    a -> c -> b over c in mids, and the rank of those through each c alone:
    a -> c -> b in the first block, a -> c -> Gb and a -> Gc -> Gb in the
    second, each table taken whole, zero legs included."""
    mesh, g = model.mesh_category(), model.g_raw
    d0, d1 = mesh.space(a, b).dim, mesh.space(a, g(b)).dim
    sb = SpanBuilder(d0 + d1)
    through = {}
    for c in mids:
        one = SpanBuilder(d0 + d1)
        rows = [row + [0] * d1 for row in mesh.compositions(a, c, b)]
        rows += [[0] * d0 + row for row in mesh.compositions(a, c, g(b))]
        rows += [[0] * d0 + row for row in mesh.compositions(a, g(c), g(b))]
        for row in rows:
            sb.add(row)
            one.add(row)
        through[c] = one.rank
    return sb, through


def endo_dims(model, t):
    """End(t) with one span per ordered pair of summands, every other summand
    a mid of it, and [i][j][k]: the rank of the maps summand i -> summand j
    through summand k alone, read off the same spans (0 for k in {i, j})."""
    order = tuple(sorted(t, key=_vkey))
    n = len(order)
    hom = [[0] * n for _ in range(n)]
    arrows = [[0] * n for _ in range(n)]
    through = [[()] * n for _ in range(n)]
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            sb, ranks = orbit_span(model, a, b, [c for c in order if c != a and c != b])
            through[i][j] = tuple(ranks.get(c, 0) for c in order)
            hom[i][j] = sb.width
            if i != j:
                arrows[i][j] = sb.width - sb.rank
    return EndoAlgebraData(
        summands=order,
        hom_dims=tuple(tuple(r) for r in hom),
        arrows=tuple(tuple(r) for r in arrows),
        total_dim=sum(sum(r) for r in hom),
    ), through


def factor_dims(model, t, M):
    """Dimension matrix of End(t)/(M): for summands a, b != M, dim Hom_C(a, b)
    minus the rank of the composites a -> M -> b."""
    order = sorted((v for v in t if v != M), key=_vkey)
    out = []
    for a in order:
        row = []
        for b in order:
            sb, _ = orbit_span(model, a, b, [M])
            row.append(sb.width - sb.rank)
        out.append(tuple(row))
    return tuple(out)


def factor_arrows(model, t, M):
    """Gabriel arrow counts of End(t)/(M): for summands a != b, both != M,
    dim Hom_C(a, b) minus the rank of the composites through M and through
    the summands other than a, b and M."""
    order = sorted((v for v in t if v != M), key=_vkey)
    out = []
    for a in order:
        row = []
        for b in order:
            if a == b:
                row.append(0)
                continue
            mids = [c for c in order if c != a and c != b] + [M]
            sb, _ = orbit_span(model, a, b, mids)
            row.append(sb.width - sb.rank)
        out.append(tuple(row))
    return tuple(out)
