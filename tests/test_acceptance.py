"""Acceptance suite: every structural theorem checked exhaustively at desk
scale, with one printed pass/fail line per criterion (run with -s to see
them).  All tolerances are exact.
"""

import json
import re
import shlex
from dataclasses import replace

import pytest

from mcluster import cli, localise, verify
from mcluster.arquiver import knit_module_category
from mcluster.cluster import (
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
    is_m_cluster_tilting,
    tilting_modules,
)
from mcluster.derived import DerivedModel, DVertex
from mcluster import endo
from mcluster.endo import verify_factor_theorem
from mcluster.errors import InternalCheckError, WindowOverflow
from mcluster.localise import localise_object
from mcluster.meshcat import MeshCategory
from mcluster.quiver import euler_form, make_quiver, preset
from mcluster.verify import (
    VerificationReport,
    check_derived_invariants,
    check_localisation_and_factor,
    run_verify,
)

from oracles import (
    compatible,
    factor_arrows,
    factor_dims,
    fuss_catalan,
    naive_maximal_cliques,
)

GRID = (
    [(f"A{n}", m) for n in range(1, 5) for m in (1, 2, 3)]
    + [("D4", 1), ("D4", 2)]
)

ALL_PRESETS = [f"A{n}" for n in range(1, 9)] + ["D4", "D5", "D6", "E6"]

A3_ORIENTATIONS = [
    [("1", "2"), ("2", "3")],
    [("2", "1"), ("2", "3")],
    [("1", "2"), ("3", "2")],
    [("2", "1"), ("3", "2")],
]


def _report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def _objs(world, name, m):
    g = compatibility_graph(world(name, m))
    return g, enumerate_maximal_m_rigid(g)


def test_criterion_1_n_summands(world):
    checked = 0
    ok = True
    for name, m in GRID:
        g, objs = _objs(world, name, m)
        for o in objs:
            checked += 1
            if len(o.summands) != g.n:
                ok = False
    _report("criterion-1 n-summands", ok, f"{checked} maximal objects over {len(GRID)} grid points")


def test_criterion_2_complements(world):
    checked = 0
    ok = True
    for name, m in GRID:
        g, objs = _objs(world, name, m)
        for o in objs:
            for v in sorted(o.summands, key=lambda u: u.name()):
                checked += 1
                if len(complements(g, o.summands - {v})) != m + 1:
                    ok = False
    _report("criterion-2 complements", ok, f"{checked} almost complete objects")


def test_criterion_3_coincidence(world):
    checked = 0
    ok = True
    for name, m in GRID:
        g, objs = _objs(world, name, m)
        maximal = {o.summands for o in objs}
        seen = set()
        for o in objs:
            members = sorted(o.summands, key=lambda u: u.name())
            for mask in range(1 << len(members)):
                c = frozenset(
                    members[i] for i in range(len(members)) if mask >> i & 1
                )
                if c in seen:
                    continue
                seen.add(c)
                checked += 1
                if is_m_cluster_tilting(g, c) != (c in maximal):
                    ok = False
    _report(
        "criterion-3 maximal-m-rigid = m-cluster-tilting",
        ok,
        f"{checked} m-rigid objects compared",
    )


FIXTURES = [
    ("A2", 1, 5),
    ("A2", 2, 12),
    ("A2", 3, 22),
    ("A3", 1, 14),
    ("A3", 2, 55),
    ("D4", 1, 50),
]


def test_criterion_4_counts(world):
    ok = True
    details = []
    for name, m, expected in FIXTURES:
        g, objs = _objs(world, name, m)
        naive = naive_maximal_cliques(g.nodes, compatible(world(name, m)))
        formula = fuss_catalan(name, m)
        agree = len(objs) == expected == len(naive) == formula
        details.append(f"{name},m={m}:{len(objs)}")
        if not agree or {o.summands for o in objs} != naive:
            ok = False
    _report("criterion-4 enumeration counts", ok, " ".join(details))


def test_criterion_5_tilting_embedding(world):
    ok = True
    checked = 0
    orientations = {
        "A2": [[("1", "2")], [("2", "1")]],
        "A3": A3_ORIENTATIONS,
    }
    linear_counts = {"A2": 2, "A3": 5}
    for name, opts in orientations.items():
        labels = ["1", "2", "3"][: int(name[1])]
        for idx, arrows in enumerate(opts):
            q = make_quiver(labels, arrows)
            ar = knit_module_category(q)
            tms = tilting_modules(ar)
            if idx == 0 and len(tms) != linear_counts[name]:
                ok = False
            for m in (1, 2, 3):
                model = DerivedModel(ar, m)
                g = compatibility_graph(model)
                maximal = {o.summands for o in enumerate_maximal_m_rigid(g)}
                for t in tms:
                    checked += 1
                    emb = frozenset(DVertex(v, 0) for v in t)
                    if emb not in maximal or not is_m_cluster_tilting(g, emb):
                        ok = False
    _report(
        "criterion-5 tilting modules induce maximal m-rigid objects",
        ok,
        f"{checked} embeddings over all orientations of A2 and A3",
    )


_LOCAL_MODELS = {}


def _local_grid(world, presets):
    """Models of the given presets, of A4 and D4 at m = 1, and of the three
    other orientations of A3 at m <= 2."""
    for name, m in list(presets) + [("A4", 1), ("D4", 1)]:
        yield world(name, m)
    for idx, arrows in enumerate(A3_ORIENTATIONS[1:]):
        for m in (1, 2):
            if (idx, m) not in _LOCAL_MODELS:
                q = make_quiver(["1", "2", "3"], arrows)
                _LOCAL_MODELS[idx, m] = DerivedModel(knit_module_category(q), m)
            yield _LOCAL_MODELS[idx, m]


def _pairs(mod):
    """Every (object, summand) pair of the maximal objects, as enumerated."""
    for o in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        for M in sorted(o.summands, key=lambda u: u.name()):
            yield o.summands, M


def test_criterion_6_localisation(world):
    ok = True
    runs = 0
    for mod in _local_grid(world, [("A3", 1), ("A3", 2)]):
        for t, M in _pairs(mod):
            # localise_object itself asserts: images indecomposable and
            # distinct, inside the H' fundamental domain, and maximal
            # m-rigid against the independently built H' graph
            loc = localise_object(mod, t, M)
            runs += 1
            if len(loc.prime_summands) != mod.quiver.n - 1:
                ok = False
    _report(
        "criterion-6 localisation suite",
        ok,
        f"{runs} localisations on A3 (all orientations, m <= 2), A4 and D4 (m = 1)",
    )


def test_criterion_7_factor_theorem(world):
    ok = True
    runs = 0
    presets = [(name, m) for name in ("A2", "A3") for m in (1, 2)]
    for mod in _local_grid(world, presets):
        for t, M in _pairs(mod):
            rep = verify_factor_theorem(mod, t, M)
            runs += 1
            if (rep.factor_matrix, rep.factor_arrow_counts) != (
                rep.localised_matrix, rep.localised_arrow_counts
            ):
                ok = False
    _report(
        "criterion-7 factor theorem",
        ok,
        f"{runs} (object, summand) pairs on A2/A3 (all A3 orientations), "
        "m <= 2, and A4/D4, m = 1",
    )


def test_factor_algebras_match_the_span_oracles(world):
    # End(T)/(M) read off End(T) equals the spans built afresh per summand
    presets = [(name, m) for name in ("A2", "A3") for m in (1, 2)]
    for mod in _local_grid(world, presets):
        for t, M in _pairs(mod):
            rep = verify_factor_theorem(mod, t, M)
            assert rep.factor_matrix == factor_dims(mod, t, M)
            assert rep.factor_arrow_counts == factor_arrows(mod, t, M)


def test_criterion_8_invariant_suites(world):
    ok = True
    pairs = 0
    # window-pair suites over the acceptance grid and every preset at m = 1,
    # including the mesh-basis versus hammock dimension agreement (asserted
    # inside space())
    for name, m in GRID + [(p, 1) for p in ALL_PRESETS if (p, 1) not in GRID]:
        mod = world(name, m)
        mesh = mod.mesh_category()
        for x in mod.vertices:
            for gap in (0, 1):
                for w in mod.ar.vertices:
                    y = DVertex(w, x.shift + gap)
                    if mod.contains(y):
                        mesh.space(x, y)
                        pairs += 1
        fd = fundamental_domain(mod)
        for x in fd:
            for y in fd:
                for k in range(0, m + 1):
                    mod.hom_orbit(x, y, k)  # asserts far-orbit vanishing
                    if m >= 2:
                        t0 = mod.hom(x, DVertex(y.module, y.shift + k))
                        z = mod.g_raw(y, 1)
                        t1 = mod.hom(x, DVertex(z.module, z.shift + k))
                        if t0 and t1:
                            ok = False
    # module-level suites over every built-in preset
    for name in ALL_PRESETS:
        mod = world(name, 1)
        ar, q = mod.ar, mod.quiver
        for x in ar.vertices:
            if ar.hom(x, x) != 1:
                ok = False
            for y in ar.vertices:
                pairs += 1
                if ar.hom(x, y) - ar.ext(x, y) != euler_form(q, x.dim, y.dim):
                    ok = False
                tx = ar.tau.get(x)
                if ar.ext(x, y) != (ar.hom(y, tx) if tx is not None else 0):
                    ok = False
                if x is not y and ar.hom(x, y) and ar.hom(y, x):
                    ok = False
        for start, mids, end in ar.meshes:
            s = tuple(sum(w.dim[i] for w in mids) for i in range(q.n))
            if tuple(a + b for a, b in zip(start.dim, end.dim)) != s:
                ok = False
    _report(
        "criterion-8 numerical invariant suites",
        ok,
        f"{pairs} pairs over the grid and {len(ALL_PRESETS)} presets",
    )


@pytest.mark.parametrize("name,target", [("E6", "cluster"), ("D5", "all")])
def test_verify_passes_on_the_largest_presets(name, target):
    rep = run_verify(preset(name), name, 1, target)
    failed = [check for check, ok, _ in rep.checks if not ok]
    _report(
        f"verify {target} {name} m=1", rep.ok,
        "failed: " + ", ".join(failed) if failed else f"{len(rep.checks)} checks",
    )


@pytest.mark.parametrize("name,m", [("A2", 4), ("A2", 5)])
def test_verify_all_passes_past_m_3(name, m):
    # the window grows with m; the old fixed margin ran out at m = 4
    rep = run_verify(preset(name), name, m, "all")
    _report(f"verify all {name} m={m}", rep.ok, f"{len(rep.checks)} checks")


def _sweeps(rep):
    return {name: (ok, details) for name, ok, details in rep.checks if name.endswith("-sweep")}


def test_a_factor_disagreement_fails_only_the_factor_sweep(monkeypatch):
    # End(a) of dimension 2 for each summand a in the model of A3 itself: the
    # diagonal of each factor algebra is off by one, while the arrows,
    # End(T') in the H' models of rank 2 and every localisation check are not
    read = endo.endo_dims

    def bumped(model, t):
        ed = read(model, t)
        if model.quiver.n == 2:
            return ed
        hom = ed.hom_dims
        return replace(ed, hom_dims=tuple(
            tuple(d + (i == j) for j, d in enumerate(row)) for i, row in enumerate(hom)
        ))

    monkeypatch.setattr(endo, "endo_dims", bumped)
    sweeps = _sweeps(run_verify(preset("A3"), "A3", 1, "all"))
    assert sweeps["localisation-sweep"] == (True, "42 localisations")
    ok, details = sweeps["factor-theorem-sweep"]
    assert not ok and details.startswith("disagreement at ")
    assert details.endswith("; 42 of 42 pairs disagree")


def test_a_value_error_in_the_factor_step_fails_both_sweeps(monkeypatch):
    def broken(*args):
        raise ValueError("broken factor step")

    monkeypatch.setattr(endo, "endo_dims", broken)
    rep = run_verify(preset("A3"), "A3", 1, "all")
    assert not rep.ok
    # every pair is tried and counted; the first is named with its command
    first = (
        "broken factor step at 001[0] in 001[0] + 011[0] + 111[0], A3 m=1 "
        '(reproduce: mcluster endo A3 --m 1 --object "001[0],011[0],111[0]" '
        '--factor-at "001[0]"); 42 of 42 pairs failed'
    )
    assert _sweeps(rep) == {
        "localisation-sweep": (False, first),
        "factor-theorem-sweep": (False, first),
    }


def test_the_sweep_counts_every_failing_pair_and_prints_a_reproducer(monkeypatch):
    failed = []

    def flaky(model, t, M):
        # a broken factor step at every projective summand in degree 0
        if M.shift == 0 and M.module.projective_of is not None:
            failed.append(M)
            raise InternalCheckError(f"broken at {M}")
        return verify_factor_theorem(model, t, M)

    _patch_factor_step(monkeypatch, flaky)
    sweeps = _sweeps(run_verify(preset("A3"), "A3", 1, "all"))
    ok, details = sweeps["factor-theorem-sweep"]
    assert not ok and sweeps["localisation-sweep"] == (False, details)
    assert 1 < len(failed) < 42
    assert details.startswith(f"broken at {failed[0]} at ")
    assert details.endswith(f"; {len(failed)} of 42 pairs failed")
    line = details.split("(reproduce: ")[1].split(")")[0]
    assert line.startswith("mcluster endo A3 --m 1 --object ")
    assert line.endswith(f' --factor-at "{failed[0]}"')
    argv = shlex.split(line)[1:]
    assert cli.main(argv) == 1
    monkeypatch.undo()
    assert cli.main(argv) == 0


def test_a_cluster_tilting_disagreement_fails_its_check(monkeypatch):
    is_tilting, flipped = verify._is_tilting_mask, []

    def flaky(g, mask):
        # the wrong answer on the first non-maximal face asked about
        if not flipped and bin(mask).count("1") < g.n:
            flipped.append(mask)
            return not is_tilting(g, mask)
        return is_tilting(g, mask)

    monkeypatch.setattr(verify, "_is_tilting_mask", flaky)
    rep = run_verify(preset("A3"), "A3", 1, "cluster")
    checks = {name: ok for name, ok, _ in rep.checks}
    assert len(flipped) == 1 and not rep.ok
    assert [name for name, ok in checks.items() if not ok] == [
        "maximal-equals-cluster-tilting"
    ]


def _patch_factor_step(monkeypatch, step):
    """Patch the one pair check that the sweep and `endo --factor-at` share."""
    assert cli.verify_factor_theorem is verify.verify_factor_theorem
    monkeypatch.setattr(verify, "verify_factor_theorem", step)
    monkeypatch.setattr(cli, "verify_factor_theorem", step)


def _fail_once(monkeypatch, exc):
    """Make the factor step raise exc at the first pair it is called on."""
    calls = []

    def flaky(model, t, M):
        calls.append(M)
        if len(calls) == 1:
            raise exc
        return verify_factor_theorem(model, t, M)

    _patch_factor_step(monkeypatch, flaky)


def test_a_window_overflow_fails_one_pair(monkeypatch, capsys):
    # a step out of the window is a bug, counted like any other failed pair
    _fail_once(monkeypatch, WindowOverflow("G-image outside the window"))
    assert cli.main(["verify", "all", "A3", "--m", "1"]) == 1
    out = capsys.readouterr()
    sweeps = [ln for ln in out.out.splitlines() if "-sweep:" in ln]
    assert len(sweeps) == 2
    for line in sweeps:
        assert line.lstrip().startswith("[FAIL] ")
        assert ": G-image outside the window at " in line
        assert line.endswith("; 1 of 42 pairs failed")
    assert out.err == ""


def test_the_reproducer_names_a_quiver_file_by_its_absolute_path(
    monkeypatch, capsys, tmp_path
):
    folder = tmp_path / "my quivers"
    folder.mkdir()
    (folder / "a3.json").write_text(
        '{"vertices": ["1", "2", "3"], "arrows": [["1", "2"], ["2", "3"]]}'
    )
    monkeypatch.chdir(folder)
    _fail_once(monkeypatch, InternalCheckError("broken factor step"))
    assert cli.main(["verify", "all", "a3.json", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["quiver"] == "a3.json"
    details = next(c["details"] for c in data["checks"] if c["name"] == "localisation-sweep")
    assert ", a3.json m=1 (reproduce: " in details
    line = details.split("(reproduce: ")[1].split(")")[0]
    assert line.startswith(f"mcluster endo {shlex.quote(str(folder / 'a3.json'))} --m 1 ")
    # the line reproduces the failure from another directory
    monkeypatch.chdir(tmp_path)
    _fail_once(monkeypatch, InternalCheckError("broken factor step"))
    assert cli.main(shlex.split(line)[1:]) == 1
    monkeypatch.undo()
    assert cli.main(shlex.split(line)[1:]) == 0


def test_the_invariant_loops_count_every_failure(monkeypatch):
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    clean = VerificationReport("A3", 2)
    check_derived_invariants(model, clean)  # also fills the mesh cache
    assert clean.ok
    fd = fundamental_domain(model)
    bad_orbit = [(fd[0], fd[1], 0), (fd[2], fd[0], 1), (fd[3], fd[3], 2)]
    bad_space = [(x, x) for x in model.vertices[:4]]
    hom_orbit, space = DerivedModel.hom_orbit, MeshCategory.space

    def flaky_orbit(self, x, y, k):
        if (x, y, k) in bad_orbit:
            raise InternalCheckError("broken orbit sum")
        return hom_orbit(self, x, y, k)

    def flaky_space(self, x, y):
        # every space is cached, so a failure cannot spread to another pair
        if (x, y) in bad_space:
            raise InternalCheckError("broken basis")
        return space(self, x, y)

    monkeypatch.setattr(DerivedModel, "hom_orbit", flaky_orbit)
    monkeypatch.setattr(MeshCategory, "space", flaky_space)
    report = VerificationReport("A3", 2)
    check_derived_invariants(model, report)
    checks = {name: (ok, details) for name, ok, details in report.checks}
    before = {name: details for name, _, details in clean.checks}
    n = len(fd)
    assert checks["orbit-window-vanishing"] == (
        False,
        f"{before['orbit-window-vanishing']}; broken orbit sum; "
        f"3 of {3 * n * n} (x, y, k) triples failed",
    )
    pairs = int(before["mesh-basis-agreement"].split()[0])
    x = model.vertices[0]
    assert checks["mesh-basis-agreement"] == (
        False,
        f"{pairs} window pairs; broken basis at ({x}, {x}); 4 of {pairs} pairs failed",
    )


def test_serre_duality_reads_the_inverse_translate():
    # ext is D Hom(Y, tau X); the check reads the other AR formula, D Hom(tau^-1
    # Y, X), so a tau^-1 that disagrees with tau fails it
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    ar = model.ar
    v = next(v for v in ar.vertices if v in ar.tau_inv)
    ar.tau_inv[v] = v
    report = VerificationReport("A3", 2)
    check_derived_invariants(model, report)
    checks = {name: (ok, details) for name, ok, details in report.checks}
    assert checks["serre-duality"] == (False, "Ext^1(X,Y) = Hom(Y, tau X)")


def test_a_localisation_of_the_wrong_size_fails_only_its_sweep(monkeypatch):
    short = []

    def flaky(model, t, M):
        # one H' summand dropped from the first pair checked
        rep = verify_factor_theorem(model, t, M)
        if not short:
            short.append(M)
            loc = rep.localised
            loc.prime_summands -= {next(iter(loc.prime_summands))}
        return rep

    _patch_factor_step(monkeypatch, flaky)
    sweeps = _sweeps(run_verify(preset("A3"), "A3", 1, "all"))
    assert sweeps["factor-theorem-sweep"] == (True, "42 pairs checked")
    assert sweeps["localisation-sweep"] == (
        False,
        "1 localised summands, expected 2, at 001[0] in 001[0] + 011[0] + 111[0], "
        'A3 m=1 (reproduce: mcluster endo A3 --m 1 --object "001[0],011[0],111[0]" '
        '--factor-at "001[0]"); 1 of 42 localisations have the wrong size',
    )


def _a3_m2_failure_counts():
    """The failure counts of the two sweeps over A3 m=2, as its details give them."""
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    report = VerificationReport("A3", 2)
    objs = enumerate_maximal_m_rigid(compatibility_graph(model))
    check_localisation_and_factor(model, objs, report)
    return {name: re.findall(r"\d+ of 165 [a-z ]+", d) for name, _, d in report.checks}


def test_the_localisation_memos_hide_no_failure(monkeypatch):
    # a summand's localisation and each localised Hom entry are checked once
    # per module of M and kept only once they pass, so one that fails fails
    # every pair that reads it, at every shift of M: the counts below are
    # those of a sweep that checks them afresh for every pair
    triangle = localise.approximation_triangle

    def broken_triangle(model, x, pd):
        # 001[2] by the shifts of 010, read by 6 pairs at 010[0] and 010[1]
        if (x.name(), pd.base_module.name) == ("001[2]", "010"):
            raise InternalCheckError("broken triangle")
        return triangle(model, x, pd)

    monkeypatch.setattr(localise, "approximation_triangle", broken_triangle)
    failed = ["6 of 165 pairs failed"]
    expected = {"localisation-sweep": failed, "factor-theorem-sweep": failed}
    assert _a3_m2_failure_counts() == expected
    monkeypatch.undo()

    hom = DerivedModel.hom

    def broken_hom(model, a, b):
        # 111[4] is the D0 image of G(100[1]) at 010 and of G(110[1]) at 100,
        # so the entries (111[0], 100[1]) and (111[0], 110[1]) fail, each read
        # by two pairs; Hom_C(111[0], 100[1]) in End(T) reads it too, so
        # three pairs disagree
        return hom(model, a, b) + ((a.name(), b.name()) == ("111[0]", "111[4]"))

    monkeypatch.setattr(DerivedModel, "hom", broken_hom)
    failed = ["4 of 165 pairs failed"]
    assert _a3_m2_failure_counts() == {
        "localisation-sweep": failed,
        "factor-theorem-sweep": failed + ["3 of 165 pairs disagree"],
    }


def test_two_summands_with_one_image_fail_their_pair(monkeypatch):
    # the cone of one summand handed to another at the module of M: the
    # localisation refuses the object, and verify all counts the pair, the
    # first it checks, among the pairs failed
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    o = enumerate_maximal_m_rigid(compatibility_graph(model))[0]
    M, x, y = sorted(o.summands, key=lambda u: u.name())
    triangle = localise.approximation_triangle

    def merged(model, v, pd):
        if (v.name(), pd.base_module.name) == (y.name(), M.module.name):
            v = DVertex(model.ar.by_dim[x.module.dim], x.shift)
        return triangle(model, v, pd)

    monkeypatch.setattr(localise, "approximation_triangle", merged)
    collapsed = "two summands collapsed under localisation"
    with pytest.raises(InternalCheckError, match=collapsed):
        localise_object(model, o.summands, M)
    failed = (
        f"{collapsed} at 001[0] in 001[0] + 011[0] + 111[0], A3 m=2 (reproduce: "
        'mcluster endo A3 --m 2 --object "001[0],011[0],111[0]" --factor-at "001[0]"); '
        "3 of 165 pairs failed"
    )
    assert _sweeps(run_verify(preset("A3"), "A3", 2, "all")) == {
        "localisation-sweep": (False, failed),
        "factor-theorem-sweep": (False, failed),
    }


def test_two_nonzero_orbit_terms_fail_one_triple(monkeypatch):
    # at m >= 2 at most one of the terms t = 0, 1 of an orbit Hom is nonzero;
    # a map y -> G(y) makes both terms of (y, y, k=0) nonzero, and no other
    # triple of the domain reads that Hom as its t = 1 term
    model = DerivedModel(knit_module_category(preset("A3")), 2)
    fd = fundamental_domain(model)
    y = next(v for v in fd if v.shift == 0)
    gy, hom = model.g_raw(y), model.hom
    monkeypatch.setattr(model, "hom", lambda a, b: 1 if (a, b) == (y, gy) else hom(a, b))
    report = VerificationReport("A3", 2)
    check_derived_invariants(model, report)
    checks = {name: (ok, details) for name, ok, details in report.checks}
    assert [name for name, (ok, _) in checks.items() if not ok] == ["orbit-window-vanishing"]
    assert checks["orbit-window-vanishing"] == (
        False,
        f"{len(fd) ** 2} domain pairs, k <= 2; "
        f"two orbit terms are nonzero for ({y}, {y}, k=0); "
        "1 of 675 (x, y, k) triples failed",
    )
