"""Batch verification suites over one quiver and one value of m.

Each check is exhaustive over its stated range and returns a pass flag plus
a short detail string; the report aggregates them in a fixed order so runs
are reproducible byte for byte (timing is reported separately and excluded
from machine output unless requested).
"""

from __future__ import annotations

import shlex
import time
from dataclasses import dataclass, field

from .cluster import (
    _is_tilting_mask,
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
    is_m_cluster_tilting,
    tilting_modules,
)
from .derived import DerivedModel, DVertex
from .endo import FactorReport, verify_factor_theorem
from .errors import InternalCheckError, WindowOverflow
from .localise import approximation_triangle
from .quiver import Quiver, euler_form


@dataclass
class VerificationReport:
    quiver: str
    m: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)  # seconds per stage
    source: str = ""  # the quiver argument of reproducer lines, if not `quiver`

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def add(self, name: str, passed: bool, details: str = ""):
        self.checks.append((name, passed, details))

    def to_dict(self, with_timing: bool = False) -> dict:
        data = {
            "quiver": self.quiver,
            "m": self.m,
            "pass": self.ok,
            "checks": [
                {"name": n, "pass": p, "details": d} for n, p, d in self.checks
            ],
            "counts": self.counts,
            "elapsed_seconds": round(self.elapsed, 3) if with_timing else None,
        }
        if with_timing:
            data["stage_seconds"] = {k: round(t, 3) for k, t in self.stages.items()}
        return data


@dataclass
class _Failures:
    """The failing cases of one kind: how many, and the first one."""

    count: int = 0
    first: str = ""

    def add(self, text: str):
        self.count += 1
        self.first = self.first or text

    def summary(self, total: int, what: str) -> str:
        return f"{self.first}; {self.count} of {total} {what}"


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

    # ext is D Hom(Y, tau X); the other AR formula is D Hom(tau^-1 Y, X)
    bad = sum(
        1
        for x, y in _module_pairs(model)
        if ar.ext(x, y) != (0 if y not in ar.tau_inv else ar.hom(ar.tau_inv[y], x))
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
    failed = _Failures()
    for x in fd:
        for y in fd:
            for k in range(0, model.m + 1):
                try:
                    model.hom_orbit(x, y, k)
                except InternalCheckError as exc:
                    failed.add(str(exc))
                    continue
                if model.m >= 2:
                    t0 = model.hom(x, DVertex(y.module, y.shift + k))
                    z = model.g_raw(y, 1)
                    t1 = model.hom(x, DVertex(z.module, z.shift + k))
                    if t0 and t1:
                        failed.add(f"two orbit terms are nonzero for ({x}, {y}, k={k})")
    details = f"{len(fd) ** 2} domain pairs, k <= {model.m}"
    if failed.count:
        triples = len(fd) ** 2 * (model.m + 1)
        details += "; " + failed.summary(triples, "(x, y, k) triples failed")
    report.add("orbit-window-vanishing", not failed.count, details)

    mesh = model.mesh_category()
    checked = 0
    failed = _Failures()
    for x in model.vertices:
        for gap in (0, 1):
            for w in model.ar.vertices:
                y = DVertex(w, x.shift + gap)
                if not model.contains(y):
                    continue
                checked += 1
                try:
                    # raises on disagreement; most pairs read the space of a
                    # shifted pair, checked against the hammock when knitted
                    mesh.space(x, y)
                except InternalCheckError as exc:
                    failed.add(f"{exc} at ({x}, {y})")
    details = f"{checked} window pairs"
    if failed.count:
        details += "; " + failed.summary(checked, "pairs failed")
    report.add("mesh-basis-agreement", not failed.count, details)


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
        for v in o.summands:
            partial = o.summands - {v}
            cs = complements(g, partial)
            histogram[len(cs)] = histogram.get(len(cs), 0) + 1
            if len(cs) != model.m + 1:
                ok = False
    report.counts["complement_histogram"] = {
        str(k): v for k, v in sorted(histogram.items())
    }
    report.add("complements", ok, f"expected {model.m + 1} per deletion")

    # every face of a maximal object, as the bitmask of its summands
    maximal = {g.mask(o.summands) for o in objs}
    all_cliques: set[int] = set()
    for mask in maximal:
        face = mask
        while True:
            all_cliques.add(face)
            if not face:
                break
            face = (face - 1) & mask
    tilt_ok = all(_is_tilting_mask(g, c) == (c in maximal) for c in all_cliques)
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


def _pair(report: VerificationReport, o, x: DVertex) -> str:
    """The pair (o, x) in domain names, with a command line that checks it."""
    names = ",".join(v.name() for v in o.sorted_summands())
    line = (
        f"mcluster endo {shlex.quote(report.source or report.quiver)} --m {report.m}"
        f' --object "{names}" --factor-at "{x.name()}"'
    )
    return f"{x} in {o.name()}, {report.quiver} m={report.m} (reproduce: {line})"


def check_pair(model: DerivedModel, t, M: DVertex) -> FactorReport:
    """Check the factor theorem for the maximal object t at its summand M,
    both named in the fundamental domain of model, and build the
    approximation triangle of every other summand by the shifts of M;
    raises where a check does."""
    rep = verify_factor_theorem(model, t, M)
    for x in sorted(t - {M}, key=lambda u: u.name()):
        approximation_triangle(model, x, rep.localised.pd)
    return rep


def check_localisation_and_factor(model: DerivedModel, objs, report: VerificationReport):
    """Check the factor theorem for every object at every summand M, read
    the localisation at M off its report, and build the approximation
    triangle of every other summand by the shifts of M.

    Every (object, summand) pair is checked in model, as enumerated, the
    pairs at some P_i[m] included.  A pair whose check raises (an internal
    check, or a step out of the window that m fixes) fails both sweeps, a
    localised object of the wrong size fails the localisation sweep and a
    disagreement fails the factor sweep.  Each kind is reported with its
    count and its first pair."""
    n = model.quiver.n
    pairs = sum(len(o.summands) for o in objs)
    raised, short, disagree = _Failures(), _Failures(), _Failures()
    for o in objs:
        for M in sorted(o.summands, key=lambda u: u.name()):
            try:
                rep = check_pair(model, o.summands, M)
            except (InternalCheckError, WindowOverflow, ValueError) as exc:
                raised.add(f"{exc} at {_pair(report, o, M)}")
                continue
            size = len(rep.localised.prime_summands)
            if size != n - 1:
                short.add(
                    f"{size} localised summands, expected {n - 1}, "
                    f"at {_pair(report, o, M)}"
                )
            if not rep.ok:
                disagree.add(f"disagreement at {_pair(report, o, M)}")

    def details(kinds, passed):
        return "; ".join(f.summary(pairs, what) for f, what in kinds if f.count) or passed

    report.add(
        "localisation-sweep",
        not (raised.count or short.count),
        details(
            [(raised, "pairs failed"), (short, "localisations have the wrong size")],
            f"{pairs} localisations",
        ),
    )
    report.add(
        "factor-theorem-sweep",
        not (raised.count or disagree.count),
        details(
            [(raised, "pairs failed"), (disagree, "pairs disagree")],
            f"{pairs} pairs checked",
        ),
    )


def run_verify(
    quiver: Quiver,
    quiver_name: str,
    m: int,
    target: str = "all",
    max_cliques=None,
    source: str = "",
) -> VerificationReport:
    from .arquiver import knit_module_category

    start = stage_start = time.monotonic()
    report = VerificationReport(quiver=quiver_name, m=m, source=source)

    def stage_done(name):
        nonlocal stage_start
        now = time.monotonic()
        report.stages[name] = now - stage_start
        stage_start = now

    model = DerivedModel(knit_module_category(quiver), m)
    check_derived_invariants(model, report)
    stage_done("invariants")
    g = compatibility_graph(model)
    objs = enumerate_maximal_m_rigid(g, max_cliques=max_cliques)
    check_cluster_theorems(model, g, objs, report)
    stage_done("cluster")
    if target == "all":
        check_localisation_and_factor(model, objs, report)
        stage_done("localisation-and-factor")
    report.elapsed = time.monotonic() - start
    return report
