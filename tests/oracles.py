"""Independent oracles used to cross-check the production algorithms.

None of them shares code with the algorithm it checks: clique enumeration
is a naive breadth-first growth with maximality checks over the orbit Hom
sums, Hom dimensions come from explicit representation matrices, positive
roots from a bounded brute force over the Tits form, D0 membership from
window Hom dimensions, approximations are checked by rank counts, and
the G-twist moves basis paths one by one.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product

from mcluster.derived import DVertex
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


def g_twist(mesh, x, y, f):
    """Image of f in Hom(x, y) under the automorphism G of the window, moved
    path by path: G carries paths to paths and meshes to meshes."""
    g = mesh.model.g
    src, dst = mesh.space(x, y), mesh.space(g(x), g(y))
    vec = [0] * len(dst.paths)
    for c, col in zip(f, src.basis_cols):
        vec[dst.index[tuple(g(v) for v in src.paths[col])]] += c
    return dst.coords(vec)


# --- approximation oracles for minimal_right_approximation ------------------


def verify_approximation(mesh, tri, cls) -> bool:
    """Every map from a class member to the target factors through the chosen
    maps: checked by rank counts on basis coordinates."""
    for probe in set(cls):
        sb = SpanBuilder(mesh.space(probe, tri.target).dim)
        for c, chosen in tri.maps.items():
            for f in chosen:
                for h in units(mesh.space(probe, c).dim):
                    sb.add(compose_coords(mesh, probe, c, tri.target, h, f))
        if sb.rank != sb.width:
            return False
    return True


def verify_minimality(mesh, tri, cls) -> bool:
    """Deleting any chosen map must break the approximation property."""
    for c, chosen in tri.maps.items():
        for k in range(len(chosen)):
            maps = dict(tri.maps)
            maps[c] = chosen[:k] + chosen[k + 1:]
            if verify_approximation(mesh, replace(tri, maps=maps), cls):
                return False
    return True
