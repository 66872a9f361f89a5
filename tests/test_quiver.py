import json

import pytest

from mcluster.errors import (
    CyclicQuiver,
    DimensionMismatch,
    DisconnectedQuiver,
    MalformedInput,
    NotDynkin,
)
from mcluster.quiver import (
    dim_str,
    dynkin_type,
    euler_form,
    make_quiver,
    parse_dim_str,
    parse_quiver,
    positive_roots,
    preset,
)

from oracles import brute_positive_roots


def q_text(vertices, arrows):
    return json.dumps({"vertices": vertices, "arrows": arrows})


def test_parse_a2():
    q = parse_quiver(q_text(["1", "2"], [["1", "2"]]))
    assert q.vertices == ("1", "2")
    assert q.arrows == (("1", "2"),)
    assert dynkin_type(q) == "A2"


def test_parse_a1():
    q = parse_quiver(q_text(["1"], []))
    assert q.n == 1 and dynkin_type(q) == "A1"


def test_parse_cycle_rejected():
    with pytest.raises(CyclicQuiver):
        parse_quiver(q_text(["1", "2"], [["1", "2"], ["2", "1"]]))


def test_parse_loop_rejected():
    with pytest.raises(CyclicQuiver):
        parse_quiver(q_text(["1"], [["1", "1"]]))


def test_parse_long_cycle_rejected():
    with pytest.raises(CyclicQuiver):
        parse_quiver(q_text(["1", "2", "3"], [["1", "2"], ["2", "3"], ["3", "1"]]))


def test_empty_quiver_rejected():
    # the component count refuses an empty quiver, and so does the parser
    with pytest.raises(DisconnectedQuiver):
        make_quiver([], [])
    with pytest.raises(MalformedInput):
        parse_quiver(q_text([], []))


def test_parse_disconnected_rejected():
    with pytest.raises(DisconnectedQuiver):
        parse_quiver(q_text(["1", "2", "3"], [["1", "2"]]))


def test_parse_non_dynkin_rejected():
    # 4-cycle as an undirected graph, acyclically oriented
    with pytest.raises(NotDynkin):
        parse_quiver(
            q_text(
                ["1", "2", "3", "4"],
                [["1", "2"], ["2", "3"], ["1", "4"], ["4", "3"]],
            )
        )
    # star with four branches
    with pytest.raises(NotDynkin):
        parse_quiver(
            q_text(
                ["0", "1", "2", "3", "4"],
                [["0", "1"], ["0", "2"], ["0", "3"], ["0", "4"]],
            )
        )


def test_parse_malformed():
    with pytest.raises(MalformedInput):
        parse_quiver("not json")
    with pytest.raises(MalformedInput):
        parse_quiver('{"vertices": ["1"], "arrows": [], "extra": 1}')
    with pytest.raises(MalformedInput):
        parse_quiver('{"vertices": ["1"]}')
    with pytest.raises(MalformedInput):
        parse_quiver(q_text(["1", "1"], []))
    with pytest.raises(MalformedInput):
        parse_quiver(q_text(["1"], [["1", "9"]]))


def test_presets_classify():
    for name in ["A1", "A4", "A8", "D4", "D5", "D6", "E6"]:
        assert dynkin_type(preset(name)) == name


def test_euler_form_examples():
    a2 = preset("A2")
    assert euler_form(a2, (1, 0), (0, 1)) == -1
    assert euler_form(a2, (1, 0), (1, 0)) == 1
    assert euler_form(a2, (0, 1), (0, 1)) == 1
    assert euler_form(a2, (1, 1), (1, 1)) == 1
    with pytest.raises(DimensionMismatch):
        euler_form(a2, (1, 0, 0), (0, 1))


def test_positive_roots_counts():
    assert positive_roots(preset("A1")) == [(1,)]
    assert sorted(positive_roots(preset("A2"))) == [(0, 1), (1, 0), (1, 1)]
    assert len(positive_roots(preset("A3"))) == 6
    assert len(positive_roots(preset("D4"))) == 12
    for n in range(1, 9):
        assert len(positive_roots(preset(f"A{n}"))) == n * (n + 1) // 2
    for n in range(4, 7):
        assert len(positive_roots(preset(f"D{n}"))) == n * (n - 1)
    assert len(positive_roots(preset("E6"))) == 36


def test_positive_roots_against_brute_force():
    for name in ["A2", "A3", "A4", "D4"]:
        q = preset(name)
        assert positive_roots(q) == brute_positive_roots(q)


def test_roots_real_and_orientation_independent():
    q = preset("A3")
    for r in positive_roots(q):
        assert euler_form(q, r, r) == 1
    flipped = parse_quiver(
        q_text(["1", "2", "3"], [["2", "1"], ["2", "3"]])
    )
    assert positive_roots(q) == positive_roots(flipped)


def test_dim_printing():
    assert dim_str((1, 1, 0)) == "110"
    assert dim_str((1, 10, 2)) == "(1,10,2)"
    a3 = preset("A3")
    assert parse_dim_str(a3, "110") == (1, 1, 0)
    assert parse_dim_str(a3, "(1,1,0)") == (1, 1, 0)
    with pytest.raises(DimensionMismatch):
        parse_dim_str(a3, "11")
