"""Dynkin quivers, the Euler form, and positive-root combinatorics.

A quiver here is a finite connected acyclic orientation of an ADE diagram.
Dimension vectors are plain integer tuples ordered by the lexicographically
sorted vertex labels; that order also fixes how vectors print.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    CyclicQuiver,
    DimensionMismatch,
    DisconnectedQuiver,
    MalformedInput,
    NotDynkin,
)


@dataclass(frozen=True)
class Quiver:
    """An acyclic orientation of an ADE diagram.

    Vertex labels are opaque strings.  `labels` is the canonical
    (lexicographic) order used for dimension vectors.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(sorted(self.vertices)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def arrow_indices(self):
        return [(self.index(s), self.index(t)) for s, t in self.arrows]


def _validate(q: Quiver, connected: bool = True) -> None:
    seen = set()
    for v in q.vertices:
        if v in seen:
            raise MalformedInput(f"duplicate vertex label {v!r}")
        seen.add(v)
    pairs = set()
    for s, t in q.arrows:
        if s not in seen or t not in seen:
            raise MalformedInput(f"arrow ({s!r},{t!r}) references an unknown vertex")
        if s == t:
            raise CyclicQuiver(f"loop at vertex {s!r}")
        if (s, t) in pairs:
            raise NotDynkin(f"multiple arrows {s!r} -> {t!r}")
        pairs.add((s, t))
    for s, t in pairs:
        if (t, s) in pairs:
            raise CyclicQuiver(f"2-cycle between {s!r} and {t!r}")

    # directed acyclicity via repeated sink removal
    out = {v: set() for v in q.vertices}
    for s, t in q.arrows:
        out[s].add(t)
    remaining = set(q.vertices)
    changed = True
    while changed and remaining:
        changed = False
        for v in list(remaining):
            if not (out[v] & remaining):
                remaining.discard(v)
                changed = True
    if remaining:
        raise CyclicQuiver(f"directed cycle through {sorted(remaining)}")

    if connected and len(_components(q)) != 1:
        raise DisconnectedQuiver(
            f"underlying graph has {len(_components(q))} connected components"
        )
    dynkin_type(q)  # raises NotDynkin when a component is not ADE


def _components(q: Quiver) -> list[list[str]]:
    adj = {v: set() for v in q.vertices}
    for s, t in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    comps, placed = [], set()
    for v in q.vertices:
        if v in placed:
            continue
        stack, comp = [v], {v}
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        placed |= comp
        comps.append(sorted(comp))
    return comps


def dynkin_type(q: Quiver) -> str:
    """Classify the underlying diagram, e.g. "A3", "D4", or "A1xA2" for a
    disjoint union (internal perpendicular algebras can be products)."""
    parts = []
    for comp in _components(q):
        cset = set(comp)
        edges = [(s, t) for s, t in q.arrows if s in cset]
        parts.append(_component_type(comp, edges))
    return "x".join(sorted(parts))


def _component_type(vertices, edges) -> str:
    n = len(vertices)
    if len(edges) != n - 1:
        raise NotDynkin("underlying graph is not a forest")
    deg = {v: 0 for v in vertices}
    adj = {v: [] for v in vertices}
    for s, t in edges:
        deg[s] += 1
        deg[t] += 1
        adj[s].append(t)
        adj[t].append(s)
    big = [v for v in vertices if deg[v] >= 3]
    if not big:
        return f"A{n}"
    if len(big) > 1 or deg[big[0]] > 3:
        raise NotDynkin("more than one branch point")
    arms = []
    for start in adj[big[0]]:
        length, prev, cur = 1, big[0], start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise NotDynkin(f"branch arms {arms} are not of type D or E")


def parse_quiver(text: str) -> Quiver:
    """Parse and validate the quiver JSON schema.

    Schema: {"vertices": [str...], "arrows": [[str,str]...]}.  Unknown keys
    are rejected.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput("top level must be a JSON object")
    extra = set(data) - {"vertices", "arrows"}
    if extra:
        raise MalformedInput(f"unknown keys {sorted(extra)}")
    if "vertices" not in data or "arrows" not in data:
        raise MalformedInput('both "vertices" and "arrows" are required')
    verts = data["vertices"]
    arrows = data["arrows"]
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise MalformedInput('"vertices" must be a list of strings')
    if not isinstance(arrows, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(isinstance(x, str) for x in a)
        for a in arrows
    ):
        raise MalformedInput('"arrows" must be a list of [source, target] pairs')
    if not verts:
        raise MalformedInput("at least one vertex is required")
    q = Quiver(tuple(verts), tuple((a, b) for a, b in arrows))
    _validate(q)
    return q


def make_quiver(vertices, arrows, connected: bool = True) -> Quiver:
    """Construct and validate a quiver from Python data.

    User input must be connected; perpendicular algebras built internally
    may be products, so they pass connected=False.
    """
    q = Quiver(tuple(vertices), tuple((s, t) for s, t in arrows))
    _validate(q, connected=connected)
    return q


# --- built-in presets ---------------------------------------------------
#
# A_n uses the linear orientation 1 -> 2 -> ... -> n.  D_n puts the branch
# vertex at n-2 with every edge oriented away from it, so the tail runs
# (n-2) -> (n-3) -> ... -> 1 and the fork is (n-2) -> (n-1), (n-2) -> n.
# E6 is the path 1 -> 2 -> 3 -> 4 -> 5 with the extra arrow 3 -> 6.

def _preset_a(n):
    vs = [str(i) for i in range(1, n + 1)]
    return make_quiver(vs, [(str(i), str(i + 1)) for i in range(1, n)])


def _preset_d(n):
    vs = [str(i) for i in range(1, n + 1)]
    branch = n - 2
    arrows = [(str(i + 1), str(i)) for i in range(1, branch)]
    arrows += [(str(branch), str(n - 1)), (str(branch), str(n))]
    return make_quiver(vs, arrows)


def _preset_e6():
    vs = [str(i) for i in range(1, 7)]
    arrows = [(str(i), str(i + 1)) for i in range(1, 5)] + [("3", "6")]
    return make_quiver(vs, arrows)


PRESET_NAMES = tuple(
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 7)] + ["E6"]
)


def preset(name: str) -> Quiver:
    key = name.upper()
    if key.startswith("A") and key in PRESET_NAMES:
        return _preset_a(int(key[1:]))
    if key.startswith("D") and key in PRESET_NAMES:
        return _preset_d(int(key[1:]))
    if key == "E6":
        return _preset_e6()
    raise MalformedInput(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


# --- dimension vectors --------------------------------------------------

def dim_vector(q: Quiver, entries) -> tuple[int, ...]:
    """A dimension vector of q from its n entries, in label order."""
    vec = tuple(int(x) for x in entries)
    if len(vec) != q.n:
        raise DimensionMismatch(f"expected {q.n} entries, got {len(vec)}")
    return vec


def dim_str(vec) -> str:
    """Canonical printing: digit string, or a parenthesized tuple once any
    entry reaches 10."""
    if all(0 <= x <= 9 for x in vec):
        return "".join(str(x) for x in vec)
    return "(" + ",".join(str(x) for x in vec) + ")"


def parse_dim_str(q: Quiver, text: str) -> tuple[int, ...]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        try:
            vec = tuple(int(p) for p in text[1:-1].split(","))
        except ValueError:
            raise MalformedInput(f"cannot parse dimension vector {text!r}") from None
    else:
        if not text.isdigit():
            raise MalformedInput(f"cannot parse dimension vector {text!r}")
        vec = tuple(int(c) for c in text)
    if len(vec) != q.n:
        raise DimensionMismatch(f"expected {q.n} entries, got {len(vec)}")
    return vec


# --- forms and roots ----------------------------------------------------

def euler_form(q: Quiver, a, b) -> int:
    """The bilinear form <a,b> = sum_i a_i b_i - sum_{i->j} a_i b_j."""
    a = dim_vector(q, a)
    b = dim_vector(q, b)
    total = sum(x * y for x, y in zip(a, b))
    for i, j in q.arrow_indices():
        total -= a[i] * b[j]
    return total


def tits_form(q: Quiver, d) -> int:
    return euler_form(q, d, d)


def positive_roots(q: Quiver) -> list[tuple[int, ...]]:
    """All positive roots of the underlying diagram.

    Closure from the simple roots: d is a root iff the Tits form q(d) is 1,
    and every positive non-simple root can be reached by adding one simple
    at a time.  Orientation never enters (the quadratic form is symmetric).
    """
    simples = []
    for i in range(q.n):
        e = [0] * q.n
        e[i] = 1
        simples.append(tuple(e))
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for e in simples:
                cand = tuple(x + y for x, y in zip(r, e))
                if cand not in roots and tits_form(q, cand) == 1:
                    roots.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(roots)
