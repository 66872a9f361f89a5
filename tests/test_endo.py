import re
from itertools import permutations

import pytest

from mcluster import endo, localise
from mcluster.arquiver import knit_module_category
from mcluster.cluster import compatibility_graph, enumerate_maximal_m_rigid
from mcluster.derived import DerivedModel, DVertex, _vkey
from mcluster.endo import endo_dims, verify_factor_theorem
from mcluster.errors import InternalCheckError
from mcluster.meshcat import MeshCategory
from mcluster.quiver import preset

import oracles


def V(model, dim, shift=0):
    return DVertex(model.ar.by_dim[dim], shift)


def test_endo_a1(world):
    mod = world("A1", 1)
    ed = endo_dims(mod, [V(mod, (1,))])
    assert ed.total_dim == 1
    assert ed.arrows == ((0,),)


def test_endo_a2_projectives(world):
    mod = world("A2", 1)
    ed = endo_dims(mod, [V(mod, (1, 1)), V(mod, (0, 1))])
    assert ed.total_dim == 3
    assert sum(sum(r) for r in ed.arrows) == 1
    assert all(ed.hom_dims[i][i] == 1 for i in range(2))


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1)])
def test_endo_diagonal_is_one(world, name, m):
    mod = world(name, m)
    g = compatibility_graph(mod)
    for o in enumerate_maximal_m_rigid(g):
        ed = endo_dims(mod, o.summands)
        for i in range(len(ed.summands)):
            assert ed.hom_dims[i][i] == 1
            assert ed.arrows[i][i] == 0
        for i in range(len(ed.summands)):
            for j in range(len(ed.summands)):
                # rad^2 is Hom_C minus the arrows off the diagonal, and a
                # subspace of the radical
                rad_sq = ed.hom_dims[i][j] - (i == j) - ed.arrows[i][j]
                assert 0 <= rad_sq <= ed.hom_dims[i][j] - (i == j)


def test_factor_dims_a2(world):
    mod = world("A2", 1)
    t = frozenset([V(mod, (1, 1)), V(mod, (0, 1))])
    mat = verify_factor_theorem(mod, t, V(mod, (1, 1))).factor_matrix
    assert mat == ((1,),)


def test_factor_keeps_diagonal(world):
    mod = world("A3", 1)
    g = compatibility_graph(mod)
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            mat = verify_factor_theorem(mod, o.summands, M).factor_matrix
            for i in range(len(mat)):
                assert mat[i][i] >= 1


def test_factor_isolated_summand_equals_restriction(world):
    # A1 x A1-like situation inside A2, m=2: pick an object where M has no
    # maps to or from the other summand, then the factor is the restriction
    mod = world("A2", 2)
    g = compatibility_graph(mod)
    found = False
    for o in enumerate_maximal_m_rigid(g):
        ed = endo_dims(mod, o.summands)
        for idx, M in enumerate(ed.summands):
            if all(
                ed.hom_dims[idx][j] == (idx == j) and ed.hom_dims[j][idx] == (idx == j)
                for j in range(len(ed.summands))
            ):
                rest = [v for v in ed.summands if v != M]
                mat = verify_factor_theorem(mod, o.summands, M).factor_matrix
                expect = tuple(
                    tuple(
                        ed.hom_dims[ed.summands.index(a)][ed.summands.index(b)]
                        for b in rest
                    )
                    for a in rest
                )
                assert mat == expect
                found = True
    assert found


def test_factor_theorem_a1_base_case(world):
    mod = world("A1", 1)
    s = V(mod, (1,))
    rep = verify_factor_theorem(mod, frozenset([s]), s)
    assert rep.ok
    assert rep.factor_matrix == ()
    assert rep.localised_matrix == ()


@pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2)])
def test_factor_theorem_sweep(world, name, m):
    mod = world(name, m)
    g = compatibility_graph(mod)
    for o in enumerate_maximal_m_rigid(g):
        for M in sorted(o.summands, key=lambda v: v.name()):
            rep = verify_factor_theorem(mod, o.summands, M)
            assert rep.factor_matrix == rep.localised_matrix, (o.name(), M.name())
            assert rep.factor_arrow_counts == rep.localised_arrow_counts, (o.name(), M.name())


def test_factor_additivity_of_quotient(world):
    # quotient dims plus the through-M contribution recover the Hom matrix
    mod = world("A3", 1)
    g = compatibility_graph(mod)
    o = enumerate_maximal_m_rigid(g)[0]
    order = sorted(o.summands, key=lambda v: v.name())
    for M in order:
        rest = [v for v in order if v != M]
        mat = verify_factor_theorem(mod, o.summands, M).factor_matrix
        for i, a in enumerate(rest):
            for j, b in enumerate(rest):
                sb, _ = oracles.orbit_span(mod, a, b, [M])
                assert sb.width == mod.hom(a, b) + mod.hom(a, mod.g_raw(b))
                assert mat[i][j] + sb.rank == sb.width


def test_factor_algebras_are_read_off_one_end_t(monkeypatch):
    # End(T) is built once per object, with at most one composite bit per
    # triple of summands; the factor theorem at a second summand, its factor
    # algebra included, computes no further bit over T's model
    bits = []
    composite = endo._composite

    def counted(model, *args):
        bits.append(model)
        return composite(model, *args)

    monkeypatch.setattr(endo, "_composite", counted)
    mod = DerivedModel(knit_module_category(preset("A3")), 1)
    o = enumerate_maximal_m_rigid(compatibility_graph(mod))[0]
    t = o.summands
    first, second = sorted(t, key=_vkey)[:2]

    def computed():
        return sum(model is mod for model in bits)

    verify_factor_theorem(mod, t, first)
    bits_of_t = computed()
    assert 0 < bits_of_t <= len(t) ** 3
    assert verify_factor_theorem(mod, t, second).factor_matrix
    assert computed() == bits_of_t


def test_the_factor_theorem_reads_each_end_once(world, monkeypatch):
    # with End(T) and End(T') cached, one pair reads each once: End(T) in
    # the model of T, End(T') in the H' model
    mod = world("D4", 2)
    o = enumerate_maximal_m_rigid(compatibility_graph(mod))[0]
    M = min(o.summands, key=_vkey)
    verify_factor_theorem(mod, o.summands, M)
    reads = []
    read = endo.endo_dims

    def counted(model, t):
        reads.append(model)
        return read(model, t)

    monkeypatch.setattr(endo, "endo_dims", counted)
    rep = verify_factor_theorem(mod, o.summands, M)
    assert rep.ok
    assert len(reads) == 2
    assert reads[0] is mod and reads[1] is rep.localised.pd.prime_model


def test_localisation_checks_run_once_per_module_of_m(monkeypatch):
    # over every pair of D4 m=2, the approximation triangle runs once per
    # (summand, module of M) and the fingerprint once per (image, image,
    # module of M), however many objects and shifts X[0..m] of M read them
    triangles, entries = [], []
    triangle, fingerprint = localise.approximation_triangle, endo._fingerprint

    def counted_triangle(model, x, pd):
        triangles.append((x, pd.base_module))
        return triangle(model, x, pd)

    def counted_fingerprint(model, ya, yb, pd):
        entries.append((ya, yb, pd.base_module))
        return fingerprint(model, ya, yb, pd)

    monkeypatch.setattr(localise, "approximation_triangle", counted_triangle)
    monkeypatch.setattr(endo, "_fingerprint", counted_fingerprint)
    mod = DerivedModel(knit_module_category(preset("D4")), 2)
    objs = enumerate_maximal_m_rigid(compatibility_graph(mod))
    for o in objs:
        for M in o.summands:
            assert verify_factor_theorem(mod, o.summands, M).ok
    assert len(set(triangles)) == len(triangles)
    assert len(set(entries)) == len(entries)
    # the memos are read: checking every pair afresh would run 3 triangles
    # and 9 entries at each of the 4 summands of each object
    assert 0 < 5 * len(triangles) < 3 * 4 * len(objs)
    assert 0 < 5 * len(entries) < 9 * 4 * len(objs)


def _chain(world):
    """The shared A3 m=1 model and its object 001[0] + 011[0] + 111[0]."""
    shared = world("A3", 1)
    name = "001[0] + 011[0] + 111[0]"
    return shared, next(
        o for o in enumerate_maximal_m_rigid(compatibility_graph(shared)) if o.name() == name
    )


def _factor_expected(ref, through, M):
    """End(T)/(M) from the oracle: Hom_C minus the rank of the maps through M."""
    k = ref.summands.index(M)
    keep = [i for i in range(len(ref.summands)) if i != k]
    return tuple(tuple(ref.hom_dims[i][j] - through[i][j][k] for j in keep) for i in keep)


def test_end_t_reads_the_composite_not_the_dimensions(world, monkeypatch):
    # no composite of summands with three nonzero Hom spaces was ever seen to
    # vanish, so one is forced to zero here: End(T) must follow the
    # composition table, as the span oracle does, not the Hom dimensions
    shared, o = _chain(world)
    a, c, b = o.sorted_summands()
    assert shared.hom(a, c) and shared.hom(c, b) and shared.hom(a, b)
    assert endo_dims(shared, o.summands).arrows[0][2] == 0  # a -> b lies in rad^2
    compositions = MeshCategory.compositions

    def vanishing(self, x, y, z):
        return [[0]] if (x, y, z) == (a, c, b) else compositions(self, x, y, z)

    monkeypatch.setattr(MeshCategory, "compositions", vanishing)
    mod = DerivedModel(shared.ar, 1)  # the same vertices, no cached bits
    ed = endo_dims(mod, o.summands)
    assert ed.arrows[0][2] == 1  # now an arrow
    ref, through = oracles.endo_dims(mod, o.summands)
    assert ed == ref
    # and the maps through c follow the table too: a -> b survives in End(T)/(c)
    assert verify_factor_theorem(mod, o.summands, c).factor_matrix[0][1] == 1
    for M in ref.summands:
        rep = verify_factor_theorem(mod, o.summands, M)
        assert rep.factor_matrix == _factor_expected(ref, through, M), M.name()


@pytest.mark.parametrize("broken", ["wide", "two blocks", "coordinate"])
def test_end_t_outside_the_0_1_claim_is_an_internal_error(world, monkeypatch, broken):
    # End(T) is read as a 0/1 algebra; a Hom_C of dimension 2 between
    # summands, two nonzero blocks or a composite of coordinate 2 breaks that
    shared, o = _chain(world)
    a, c, b = o.sorted_summands()
    mod = DerivedModel(shared.ar, 1)
    hom, compositions = mod.hom, MeshCategory.compositions
    if broken == "wide":
        monkeypatch.setattr(mod, "hom", lambda x, y: 2 if (x, y) == (a, b) else hom(x, y))
        match = f"Hom_C({a}, {b}) has dimension 2, above 1"
    elif broken == "two blocks":
        gb = mod.g_raw(b)
        monkeypatch.setattr(mod, "hom", lambda x, y: 1 if (x, y) == (a, gb) else hom(x, y))
        match = f"both blocks of Hom_C({a}, {b}) are nonzero"
    else:
        monkeypatch.setattr(
            MeshCategory, "compositions",
            lambda self, x, y, z: [[2]] if (x, y, z) == (a, c, b) else compositions(self, x, y, z),
        )
        match = "has coordinate 2, not 0 or +-1"
    with pytest.raises(InternalCheckError, match=re.escape(match)):
        endo_dims(mod, o.summands)


@pytest.mark.parametrize(
    "name,m",
    [("A3", 1), ("A3", 2), ("D4", 1), ("D4", 2), ("A4", 2), ("D5", 1), ("E6", 1), ("D5", 2)],
)
def test_skipped_spans_change_no_field_of_end_t(world, name, m):
    # End(T) and, for every summand M, End(T)/(M): Hom_C minus the rank of
    # the maps through M alone, read off the oracle's End(T) spans
    mod = world(name, m)
    for o in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        ref, through = oracles.endo_dims(mod, o.summands)
        assert endo_dims(mod, o.summands) == ref, o.name()
        for M in ref.summands:
            expect = _factor_expected(ref, through, M)
            rep = verify_factor_theorem(mod, o.summands, M)
            assert rep.factor_matrix == expect, (o.name(), M.name())


@pytest.mark.parametrize("name,m", [("E6", 1), ("D5", 2)])
def test_end_t_composes_no_zero_block(monkeypatch, name, m):
    # a block is composed only when its three Hom spaces are nonzero, so no
    # composition table End(T) asks for is empty or has zero-width rows
    compositions = MeshCategory.compositions
    calls, zero = [], []

    def checked(self, x, y, z):
        rows = compositions(self, x, y, z)
        calls.append((x, y, z))
        if not rows or not all(rows):
            zero.append((x, y, z))
        return rows

    monkeypatch.setattr(MeshCategory, "compositions", checked)
    mod = DerivedModel(knit_module_category(preset(name)), m)
    for o in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        endo_dims(mod, o.summands)
    assert calls
    assert not zero, zero[:5]


def test_a_nonzero_g2_component_is_an_internal_error(monkeypatch):
    # Hom(a, Gc) and Hom(c, Gb) both nonzero give composites a -> Gc -> G^2 b,
    # which the span drops because Hom(a, G^2 b) vanishes; E6 m=1 has such
    # triples (A3, D4, A4 and D5 at small m have none)
    mod = DerivedModel(knit_module_category(preset("E6")), 1)

    def h1(x, y):
        return mod.hom(x, mod.g_raw(y))

    for o in enumerate_maximal_m_rigid(compatibility_graph(mod)):
        t = o.sorted_summands()
        meets = [(a, b) for a, c, b in permutations(t, 3) if h1(a, c) and h1(c, b)]
        if meets:
            break
    quiet = [(a, b) for a, b in permutations(t, 2) if (a, b) not in meets]
    assert quiet
    hom = mod.hom

    def nonzero_g2(a, b):
        g2b = mod.g_raw(b, 2)
        monkeypatch.setattr(mod, "hom", lambda x, y: 1 if (x, y) == (a, g2b) else hom(x, y))

    nonzero_g2(*meets[0])
    with pytest.raises(InternalCheckError, match="nonzero G\\^2 component"):
        endo_dims(mod, t)
    # the check reads Hom(a, G^2 b) only for a pair that has such a triple
    nonzero_g2(*quiet[0])
    assert endo_dims(mod, t).summands == t
