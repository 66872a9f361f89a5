"""The three workloads of the layer benchmark, their oracles and metrics.

Every workload is a closed loop: one caller issues the next operation once
the previous one has returned, and whole passes repeat until the time is
up.  Each pass knits and models its quivers afresh, so every cache the
program keeps on a model starts cold.  The benchmark only calls public
functions of `mcluster`, in the order `mcluster verify` uses them, and
times each call where it makes it.

Outputs are checked against oracles that share no code with the package:
Fuss-Catalan counts for the number of maximal m-rigid objects, the Euler
form for Hom dimensions, and the Tits form and root counts for the knitted
modules.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from spans import NullTracer, Tracer

# Each Dynkin diagram in the package's preset orientation, arrows as
# (tail, head), with its Coxeter number and exponents.
DIAGRAMS = {
    "A3": ([("1", "2"), ("2", "3")], 4, (1, 2, 3)),
    "A4": ([("1", "2"), ("2", "3"), ("3", "4")], 5, (1, 2, 3, 4)),
    "D4": ([("2", "1"), ("2", "3"), ("2", "4")], 6, (1, 3, 3, 5)),
    "D5": ([("2", "1"), ("3", "2"), ("3", "4"), ("3", "5")], 8, (1, 3, 4, 5, 7)),
    "E6": (
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "6")],
        12,
        (1, 4, 5, 7, 8, 11),
    ),
}

# (diagram, m) per workload; see README.md for why each was chosen.
GRIDS = {
    "cluster-enum": [("D5", 2), ("E6", 1)],
    "mesh-basis": [("D4", 1)],
    "local-factor": [("D4", 1), ("A4", 1)],
}

SETUP_REPS = 9
RESERVOIR_SIZE = 20000

SPAN_NAMES = (
    "arquiver.knit",
    "derived.model",
    "cluster.graph",
    "cluster.enumerate",
    "cluster.complements",
    "cluster.tilting_test",
    "cluster.normalize",
    "meshcat.space",
    "localise.perpendicular",
    "localise.localise",
    "endo.factor_theorem",
)

COUNTERS = (
    "arquiver.modules",
    "derived.window_vertices",
    "cluster.objects",
    "cluster.complement_calls",
    "cluster.tilting_tests",
    "meshcat.spaces",
    "meshcat.width_total",
    "meshcat.width_max",
    "meshcat.dim_total",
    "linalg.relation_rank_total",
    "localise.calls",
    "localise.failed",
    "endo.calls",
    "endo.failed",
)


# --- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One quiver of a workload: a diagram, an orientation and a value of m."""

    diagram: str
    m: int
    arrows: tuple[tuple[str, str], ...]
    opposite: bool

    @property
    def vertices(self) -> list[str]:
        return sorted({v for a in self.arrows for v in a})

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def label(self) -> str:
        arrows = ",".join(f"{s}->{t}" for s, t in self.arrows)
        return f"{self.diagram}{'^op' if self.opposite else ''} m={self.m} [{arrows}]"


def make_cases(grid, seed: int) -> list[Case]:
    """Seed 0 gives the preset orientations; any other seed gives each
    diagram the preset orientation or its opposite at random.

    Only these two are drawn because the opposite quiver has the same
    amount of work by duality, while other orientations of one diagram
    differ in work (D4 mesh bases: 33717 against 37479 paths), which would
    make the seed a size knob rather than a reshuffle of equal inputs.
    """
    rng = random.Random(seed)
    cases = []
    for diagram, m in grid:
        arrows = DIAGRAMS[diagram][0]
        opposite = seed != 0 and rng.random() < 0.5
        if opposite:
            arrows = [(t, s) for s, t in arrows]
        cases.append(Case(diagram, m, tuple(arrows), opposite))
    return cases


def shuffled(items, seed: int, case: Case, phase: str) -> list:
    """The order in which a pass issues operations that share no cache:
    the program's own order at seed 0, a seeded shuffle otherwise.  Every
    pass of a run uses the same order.

    Operations that fill a cache for later ones (Hom spaces, perpendicular
    algebras) keep the program's order at every seed: shuffling them moves
    work from one op to another, and the 90th-percentile latency of a
    mesh-basis pass then ranged from 0.33 to 0.44 of the pass time over
    five seeds.
    """
    items = list(items)
    if seed != 0:
        random.Random(f"{seed}/{case.label}/{phase}").shuffle(items)
    return items


# --- oracles ----------------------------------------------------------------


def fuss_catalan(case: Case) -> int:
    """Number of maximal m-rigid objects: prod (m h + e + 1) / (e + 1)."""
    _, h, exps = DIAGRAMS[case.diagram]
    out = Fraction(1)
    for e in exps:
        out *= Fraction(case.m * h + e + 1, e + 1)
    return int(out)


def euler(case: Case, a, b) -> int:
    """Euler form <a, b> of the quiver on dimension vectors in label order."""
    pos = {v: i for i, v in enumerate(case.vertices)}
    val = sum(x * y for x, y in zip(a, b))
    return val - sum(a[pos[s]] * b[pos[t]] for s, t in case.arrows)


def hom_oracle(case: Case, x, y) -> int:
    """dim Hom(x, y) in the derived category for a shift gap of 0 or 1.

    For indecomposables at most one of Hom and Ext^1 is nonzero (the module
    category is directed), so they are the positive and negative parts of
    the Euler form.
    """
    e = euler(case, x.module.dim, y.module.dim)
    return max(e, 0) if y.shift == x.shift else max(-e, 0)


def root_count(case: Case) -> int:
    _, h, exps = DIAGRAMS[case.diagram]
    return len(exps) * h // 2


# --- one pass -----------------------------------------------------------------


@dataclass
class Pass:
    """What one pass did: per-op latencies, failures and outputs."""

    workload: str
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    records: list[tuple] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))

    def fail(self, case: Case, obj: str, summand: str, why: str):
        self.failures.append(
            f"{self.workload} | {case.label} | object {obj} | summand {summand} | {why}"
        )

    def check(self, ok: bool, case: Case, what: str, obj: str | None = None,
              summand: str = "-"):
        """Record a wrong answer, which fails the correctness gate and, when
        it belongs to an op (an object is given), that op as well."""
        if not ok:
            self.wrong.append(f"{case.label}: {what}")
            if obj is not None:
                self.fail(case, obj, summand, f"wrong answer: {what}")
        return ok

    def digest(self) -> str:
        h = hashlib.sha256()
        for rec in sorted(self.records):
            h.update(repr(rec).encode())
            h.update(b"\n")
        return h.hexdigest()


def build(mc, case: Case, tr, out: Pass | None = None):
    """Make the quiver, knit it and build its window model."""
    q = mc.make_quiver(case.vertices, case.arrows)
    with tr.span("arquiver.knit"):
        ar = mc.knit_module_category(q)
    with tr.span("derived.model"):
        model = mc.DerivedModel(ar, case.m)
    if out is not None:
        out.counters["arquiver.modules"] += len(ar.vertices)
        out.counters["derived.window_vertices"] += len(model.vertices)
        dims = [v.dim for v in ar.vertices]
        out.check(
            len(set(dims)) == len(dims) == root_count(case)
            and all(euler(case, d, d) == 1 for d in dims),  # Tits form
            case, "knitted modules are not the positive roots",
        )
    return model


def _name(v) -> str:
    return v.name()


def enumerate_objects(mc, case: Case, model, tr, out: Pass):
    with tr.span("cluster.graph"):
        g = mc.compatibility_graph(model)
    with tr.span("cluster.enumerate"):
        objs = mc.enumerate_maximal_m_rigid(g)
    out.counters["cluster.objects"] += len(objs)
    out.check(
        len(objs) == fuss_catalan(case), case,
        f"{len(objs)} maximal m-rigid objects, Fuss-Catalan gives {fuss_catalan(case)}",
    )
    for o in objs:
        out.check(
            len(o.summands) == case.n, case,
            f"{o.name()} has {len(o.summands)} summands, expected {case.n}",
        )
    return g, objs


def pass_cluster_enum(mc, cases, seed, tr, out: Pass):
    """Complements of every almost complete object, then the cluster-tilting
    test of every maximal object."""
    errors = (mc.MClusterError, ValueError)
    op = 0
    for case in cases:
        model = build(mc, case, tr, out)
        g, objs = enumerate_objects(mc, case, model, tr, out)
        named = [(o, o.name()) for o in objs]
        deletions = [
            (o, oname, v) for o, oname in named for v in sorted(o.summands, key=_name)
        ]
        for o, oname, v in shuffled(deletions, seed, case, "complements"):
            op += 1
            out.attempted += 1
            out.counters["cluster.complement_calls"] += 1
            vname = v.name()
            t0 = perf_counter()
            try:
                with tr.span("cluster.complements", op):
                    cs = mc.complements(g, o.summands - {v})
            except errors as exc:
                out.fail(case, oname, vname, f"{type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - t0
            names = [c.name() for c in cs]
            out.records.append(("complements", case.label, oname, vname, tuple(names)))
            if out.check(
                len(cs) == case.m + 1 and vname in names, case,
                f"complements {names}, expected {case.m + 1} including {vname}",
                oname, vname,
            ):
                out.latencies.append(latency)
        for o, oname in shuffled(named, seed, case, "tilting"):
            op += 1
            out.attempted += 1
            out.counters["cluster.tilting_tests"] += 1
            t0 = perf_counter()
            try:
                with tr.span("cluster.tilting_test", op):
                    ok = mc.is_m_cluster_tilting(g, o.summands)
            except errors as exc:
                out.fail(case, oname, "-", f"{type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - t0
            out.records.append(("tilting", case.label, oname, ok))
            if out.check(ok is True, case, "maximal object is not cluster tilting", oname):
                out.latencies.append(latency)


def pass_mesh_basis(mc, cases, seed, tr, out: Pass):
    """Hom bases for every window pair with a shift gap of 0 or 1, cold."""
    errors = (mc.MClusterError, ValueError)
    op = 0
    for case in cases:
        model = build(mc, case, tr, out)
        mesh = model.mesh_category()
        pairs = []
        for x in model.vertices:
            for gap in (0, 1):
                for w in model.ar.vertices:
                    y = mc.DVertex(w, x.shift + gap)
                    if model.contains(y):
                        pairs.append((x, y))
        for x, y in pairs:
            op += 1
            out.attempted += 1
            t0 = perf_counter()
            try:
                with tr.span("meshcat.space", op):
                    sp = mesh.space(x, y)
            except errors as exc:
                out.fail(case, x.name(), y.name(), f"{type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - t0
            width = len(sp.zero())
            rank = len(sp.relations.pivots())
            c = out.counters
            c["meshcat.spaces"] += 1
            c["meshcat.width_total"] += width
            c["meshcat.width_max"] = max(c["meshcat.width_max"], width)
            c["meshcat.dim_total"] += sp.dim
            c["linalg.relation_rank_total"] += rank
            out.records.append(("space", case.label, x.name(), y.name(), sp.dim, width, rank))
            expected = hom_oracle(case, x, y)
            if out.check(
                sp.dim == expected, case,
                f"Hom basis of size {sp.dim}, Euler form gives {expected}",
                x.name(), y.name(),
            ):
                out.latencies.append(latency)


def pass_local_factor(mc, cases, seed, tr, out: Pass):
    """For every maximal object and summand M: localise at M and compare
    End(T)/(M) with the localised endomorphism data."""
    errors = (mc.MClusterError, ValueError)
    op = 0
    for case in cases:
        model = build(mc, case, tr, out)
        _, objs = enumerate_objects(mc, case, model, tr, out)
        for o in objs:
            oname = o.name()
            try:
                with tr.span("cluster.normalize"):
                    norm = mc.normalize_to_Dminus(model, o.summands)
            except errors as exc:
                for v in sorted(o.summands, key=_name):
                    out.attempted += 1
                    out.fail(case, oname, v.name(), f"normalize: {type(exc).__name__}: {exc}")
                continue
            original = {w: x.name() for x, w in norm.mapping.items()}
            summands = sorted(norm.summands, key=_name)
            for M in summands:
                op += 1
                out.attempted += 1
                mname = original[M]
                if M.name() != mname:
                    mname += f" (as {M.name()} over the normalizing slice)"
                out.counters["localise.calls"] += 1
                t0 = perf_counter()
                try:
                    stage = "localise"
                    with tr.span("localise.perpendicular", op):
                        mc.perpendicular_algebra(norm.world, M)
                    with tr.span("localise.localise", op):
                        loc = mc.localise_object(norm.world, norm.summands, M)
                    stage = "endo"
                    out.counters["endo.calls"] += 1
                    with tr.span("endo.factor_theorem", op):
                        rep = mc.verify_factor_theorem(norm.world, norm.summands, M)
                except errors as exc:
                    out.counters[f"{stage}.failed"] += 1
                    out.records.append(("failed", case.label, oname, mname, stage, type(exc).__name__))
                    out.fail(case, oname, mname, f"{stage}: {type(exc).__name__}: {exc}")
                    continue
                latency = perf_counter() - t0
                prime = tuple(sorted(v.name() for v in loc.prime_summands))
                out.records.append((
                    "pair", case.label, oname, mname, prime, rep.factor_matrix,
                    rep.localised_matrix, rep.factor_arrow_counts,
                    rep.localised_arrow_counts,
                ))
                if not out.check(
                    len(prime) == case.n - 1, case,
                    f"localisation has {len(prime)} prime summands, expected {case.n - 1}",
                    oname, mname,
                ):
                    out.counters["localise.failed"] += 1
                elif not out.check(rep.ok, case, "factor report is not ok", oname, mname):
                    out.counters["endo.failed"] += 1
                else:
                    out.latencies.append(latency)


PASSES = {
    "cluster-enum": pass_cluster_enum,
    "mesh-basis": pass_mesh_basis,
    "local-factor": pass_local_factor,
}


def run_pass(workload: str, mc, cases, seed: int, tr) -> Pass:
    out = Pass(workload)
    t0 = perf_counter()
    with tr.span("pass"):
        PASSES[workload](mc, cases, seed, tr, out)
    out.seconds = perf_counter() - t0
    # the next pass starts from a clean heap, as a fresh process would
    gc.collect()
    return out


# --- set-up and the measured run ------------------------------------------------


def setup(cases) -> tuple[object, float]:
    """Import the package afresh, make the quivers and build their models."""
    t0 = perf_counter()
    for name in [k for k in sys.modules if k == "mcluster" or k.startswith("mcluster.")]:
        del sys.modules[name]
    mc = importlib.import_module("mcluster")
    for case in cases:
        build(mc, case, NullTracer())
    return mc, perf_counter() - t0


@dataclass(frozen=True)
class Summary:
    """The numbers a run keeps of one pass."""

    seconds: float
    ops: int
    digest: str
    outcome: tuple
    wrong: bool

    @staticmethod
    def of(p: Pass) -> "Summary":
        return Summary(
            seconds=p.seconds,
            ops=len(p.latencies),
            digest=p.digest(),
            outcome=(p.attempted, tuple(p.failures)),
            wrong=bool(p.wrong),
        )


class Reservoir:
    """A uniform sample of at most `size` latencies from all passes of a run.

    Percentiles are taken over the ops of every pass together, since one
    pass's latency distribution can change shape from pass to pass; the
    fixed size keeps memory from growing with the number of passes.
    """

    def __init__(self, size: int, seed: int):
        self.size = size
        self.seen = 0
        self.sample: list[float] = []
        self._rng = random.Random(seed)

    def extend(self, values):
        for v in values:
            self.seen += 1
            if len(self.sample) < self.size:
                self.sample.append(v)
            else:
                j = self._rng.randrange(self.seen)
                if j < self.size:
                    self.sample[j] = v

    def percentile(self, q: int) -> float:
        if len(self.sample) < 2:
            return self.sample[0] if self.sample else 0.0
        return statistics.quantiles(self.sample, n=100)[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, grid=None,
        setup_reps: int = SETUP_REPS, trace_path: str | None = None):
    """Set up, run passes for `seconds`, check outputs.

    Returns (report lines, result), where result has the keys `correct`,
    `attempted`, `failed` and `metrics`.  A traced run alternates untraced
    and traced passes, so that the tracing overhead is measured in the same
    process; the per-layer numbers come from the traced passes only.
    """
    cases = make_cases(GRIDS[workload] if grid is None else grid, seed)
    setup_times = []
    for _ in range(setup_reps):
        mc, dt = setup(cases)
        setup_times.append(dt)
    gc.collect()

    # Only the first pass is kept whole; later ones are reduced to a few
    # numbers, so memory does not grow with the number of passes.
    tracer = Tracer()
    latencies = Reservoir(RESERVOIR_SIZE, seed)
    first = None
    plain: list[Summary] = []
    traced: list[Summary] = []
    # A pass starts only while it would end near `seconds` on average, so a
    # run measures about `seconds` whatever the length of one pass.
    start = perf_counter()
    while len(plain) + len(traced) < (2 if trace else 1) or (
        (perf_counter() - start) * (1 + 0.5 / (len(plain) + len(traced))) < seconds
    ):
        on = trace and len(plain) > len(traced)
        p = run_pass(workload, mc, cases, seed, tracer if on else NullTracer())
        first = first or p
        (traced if on else plain).append(Summary.of(p))
        if not on:
            latencies.extend(p.latencies)
    passes = plain + traced

    digests = {p.digest for p in passes}
    stable = len(digests) == 1 and len({p.outcome for p in passes}) == 1
    correct = stable and not any(p.wrong for p in passes)

    ops = sum(p.ops for p in plain)
    lines = [
        f"workload {workload}, seed {seed}: "
        + "; ".join(c.label for c in cases),
        f"passes {len(plain)} untraced, {len(traced)} traced; "
        f"{first.attempted} ops per pass, {ops} latency samples "
        f"({len(latencies.sample)} kept for percentiles)",
        f"digest sha256:{sorted(digests)[0]}"
        + ("" if len(digests) == 1 else f" (and {len(digests) - 1} other digests)"),
        f"failed {len(first.failures)} / {first.attempted} attempted per pass "
        f"({len(first.failures) / first.attempted:.2%})",
    ]
    lines += [f"  FAIL {f}" for f in first.failures]
    if not stable:
        lines.append("  passes of one run disagree: outputs are not deterministic")

    if not trace:
        metrics = {
            "ops_per_s": (ops / sum(p.seconds for p in plain), "1/s"),
            "op_p50_ms": (latencies.percentile(50) * 1e3, "ms"),
            "op_p97_ms": (latencies.percentile(97) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        n = len(traced)
        selfs = tracer.self_times()
        metrics = {f"{s}_s": (selfs.get(s, 0.0) / n, "s") for s in SPAN_NAMES}
        metrics["bench.unattributed_s"] = (selfs.get("pass", 0.0) / n, "s")
        metrics["bench.pass_s"] = (sum(p.seconds for p in traced) / n, "s")
        metrics.update({c: (first.counters[c], "count") for c in COUNTERS})
        plain_s = statistics.median(p.seconds for p in plain)
        metrics["trace.overhead"] = (
            statistics.median(p.seconds for p in traced) / plain_s - 1, "share")
        if trace_path is not None:
            tracer.write(trace_path)
            lines.append(f"{len(tracer.spans)} spans written to {trace_path}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": first.attempted,
        "failed": len(first.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result
