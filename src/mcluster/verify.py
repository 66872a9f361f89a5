"""Batch verification suites over one quiver and one value of m.

Each check is exhaustive over its stated range and returns a pass flag plus
a short detail string; the report aggregates them in a fixed order so runs
are reproducible byte for byte (timing is reported separately and excluded
from machine output unless requested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cluster import (
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
    is_m_cluster_tilting,
    normalize_to_Dminus,
    tilting_modules,
)
from .derived import DerivedModel, DVertex
from .endo import verify_factor_theorem
from .errors import InternalCheckError
from .localise import approximation_triangle
from .quiver import Quiver, euler_form


@dataclass
class VerificationReport:
    quiver: str
    m: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def add(self, name: str, passed: bool, details: str = ""):
        self.checks.append((name, passed, details))

    def to_dict(self, with_timing: bool = False) -> dict:
        return {
            "quiver": self.quiver,
            "m": self.m,
            "pass": self.ok,
            "checks": [
                {"name": n, "pass": p, "details": d} for n, p, d in self.checks
            ],
            "counts": self.counts,
            "elapsed_seconds": round(self.elapsed, 3) if with_timing else None,
        }


def _module_pairs(model):
    vs = model.ar.vertices
    return [(x, y) for x in vs for y in vs]


def check_derived_invariants(model: DerivedModel, report: VerificationReport):
    ar, q = model.ar, model.quiver

    bad = sum(
        1
        for x, y in _module_pairs(model)
        if ar.hom(x, y) - ar.ext(x, y) != euler_form(q, x.dim, y.dim)
    )
    report.add("euler-identity", bad == 0, f"{len(ar.vertices) ** 2} module pairs")

    bad = sum(
        1
        for x, y in _module_pairs(model)
        if ar.ext(x, y) != (0 if x not in ar.tau else ar.hom(y, ar.tau[x]))
    )
    report.add("serre-duality", bad == 0, "Ext^1(X,Y) = Hom(Y, tau X)")

    bad = sum(1 for x in ar.vertices if ar.hom(x, x) != 1)
    report.add("brick-property", bad == 0, f"{len(ar.vertices)} modules")

    bad = 0
    for x, y in _module_pairs(model):
        if x is not y and ar.hom(x, y) > 0 and ar.hom(y, x) > 0:
            bad += 1
    report.add("directedness", bad == 0, "no Hom cycles between modules")

    bad = 0
    for start, mids, end in ar.meshes:
        lhs = tuple(
            start.dim[i] + end.dim[i] for i in range(q.n)
        )
        rhs = tuple(sum(w.dim[i] for w in mids) for i in range(q.n))
        if lhs != rhs:
            bad += 1
    report.add("mesh-additivity", bad == 0, f"{len(ar.meshes)} meshes")

    fd = fundamental_domain(model)
    bad = 0
    try:
        for x in fd.vertices:
            for y in fd.vertices:
                for k in range(0, model.m + 1):
                    model.hom_orbit(x, y, k)
                    if model.m >= 2:
                        t0 = model.hom(x, DVertex(y.module, y.shift + k))
                        z = model.g_raw(y, 1)
                        t1 = model.hom(x, DVertex(z.module, z.shift + k))
                        if t0 and t1:
                            bad += 1
    except InternalCheckError:
        bad += 1
    report.add(
        "orbit-window-vanishing",
        bad == 0,
        f"{len(fd.vertices) ** 2} domain pairs, k <= {model.m}",
    )

    mesh = model.mesh_category()
    checked = 0
    bad = 0
    try:
        for x in model.vertices:
            for gap in (0, 1):
                for w in model.ar.vertices:
                    y = DVertex(w, x.shift + gap)
                    if not model.contains(y):
                        continue
                    mesh.space(x, y)  # raises on disagreement
                    checked += 1
    except InternalCheckError:
        bad += 1
    report.add("mesh-basis-agreement", bad == 0, f"{checked} window pairs")


def check_cluster_theorems(model: DerivedModel, g, objs, report: VerificationReport):
    n = model.quiver.n
    sizes = sorted({len(o.summands) for o in objs})
    report.counts["maximal_m_rigid"] = len(objs)
    report.counts["summand_sizes"] = sizes
    report.add(
        "n-summands",
        all(len(o.summands) == n for o in objs),
        f"{len(objs)} objects, sizes {sizes}",
    )

    bound = (model.m + 1) * n
    report.add(
        "coarse-summand-bound",
        all(len(o.summands) <= bound for o in objs),
        f"(m+1)n = {bound}",
    )

    histogram: dict[int, int] = {}
    ok = True
    for o in objs:
        for v in sorted(o.summands, key=lambda u: u.name()):
            partial = o.summands - {v}
            cs = complements(g, partial)
            histogram[len(cs)] = histogram.get(len(cs), 0) + 1
            if len(cs) != model.m + 1:
                ok = False
    report.counts["complement_histogram"] = {
        str(k): v for k, v in sorted(histogram.items())
    }
    report.add("complements", ok, f"expected {model.m + 1} per deletion")

    maximal = {o.summands for o in objs}
    all_cliques = set()
    for o in objs:
        members = sorted(o.summands, key=lambda u: u.name())
        for mask in range(1 << len(members)):
            all_cliques.add(
                frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
            )
    tilt_ok = True
    for c in sorted(all_cliques, key=lambda s: (len(s), sorted(v.name() for v in s))):
        if is_m_cluster_tilting(g, c) != (c in maximal):
            tilt_ok = False
    report.add(
        "maximal-equals-cluster-tilting",
        tilt_ok,
        f"{len(all_cliques)} m-rigid objects compared",
    )

    ok = True
    tms = tilting_modules(model.ar)
    for tm in tms:
        emb = frozenset(DVertex(v, 0) for v in tm)
        if not g.is_clique(emb) or not is_m_cluster_tilting(g, emb):
            ok = False
    report.counts["tilting_modules"] = len(tms)
    report.add("tilting-modules-embed", ok, f"{len(tms)} tilting modules")


def check_localisation_and_factor(model: DerivedModel, objs, report: VerificationReport):
    """Check the factor theorem for every object at every summand M, read
    the localisation at M off its report, and build the approximation
    triangle of every other summand by the shifts of M.  A disagreement is
    reported at the first pair, with the count of all disagreeing pairs."""
    n = model.quiver.n
    runs = disagreements = 0
    loc_ok = factor_ok = True
    loc_detail = factor_detail = first = ""
    try:
        for o in objs:
            norm = normalize_to_Dminus(model, o.summands)
            for msum in sorted(norm.summands, key=lambda u: u.name()):
                rep = verify_factor_theorem(norm.world, norm.summands, msum)
                runs += 1
                if len(rep.localised.prime_summands) != n - 1:
                    loc_ok = False
                for x in sorted(norm.summands - {msum}, key=lambda u: u.name()):
                    approximation_triangle(norm.world, x, rep.localised.pd)
                if not rep.ok:
                    disagreements += 1
                    first = first or f"disagreement at {msum} in {o.name()}"
        if disagreements:
            factor_ok = False
            factor_detail = f"{first}; {disagreements} of {runs} pairs disagree"
    except (InternalCheckError, ValueError) as exc:
        loc_ok = factor_ok = False
        loc_detail = factor_detail = str(exc)
    report.add("localisation-sweep", loc_ok, loc_detail or f"{runs} localisations")
    report.add("factor-theorem-sweep", factor_ok, factor_detail or f"{runs} pairs checked")


def run_verify(
    quiver: Quiver,
    quiver_name: str,
    m: int,
    target: str = "all",
    window=None,
    max_cliques=None,
) -> VerificationReport:
    from .arquiver import knit_module_category

    start = time.monotonic()
    report = VerificationReport(quiver=quiver_name, m=m)
    model = DerivedModel(knit_module_category(quiver), m, window)
    check_derived_invariants(model, report)
    g = compatibility_graph(model)
    objs = enumerate_maximal_m_rigid(g, max_cliques=max_cliques)
    check_cluster_theorems(model, g, objs, report)
    if target == "all":
        check_localisation_and_factor(model, objs, report)
    report.elapsed = time.monotonic() - start
    return report
