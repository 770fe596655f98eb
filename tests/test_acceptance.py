"""Acceptance suite: one test per headline claim, exact tolerances.

Each test prints a single pass line; pytest -v adds its own verdict per
criterion. Frozen numbers were produced by the first verified run and
cross-checked against brute-force enumeration where noted.
"""

import re
import time

import pytest

from grigcube.checks import (
    check_bound,
    check_commensuration,
    check_faithful,
    check_prefix,
    faithfulness_witnesses,
)
from grigcube.cubes import act, base_vertex, orbit_growth
from grigcube.elements import (
    GroupElement,
    canonical_key,
    decompose,
    element_order,
    enumerate_ball,
)
from grigcube.gamma import Ray, ball, ball_edges, line_coordinate
from grigcube.omega import OmegaSequence, fixing_letter
from grigcube.stabilizers import (
    _PUNCTURED,
    fixed_vertex_for_subgroup,
    stabilizer_in_ball,
    subgroup_closure,
    verify_restriction_lemma,
)

OMEGA_TEXTS = (":012", ":01", ":02", ":12", "2:01")
OMEGAS = [OmegaSequence.parse(t) for t in OMEGA_TEXTS]


def passed(n, name):
    print(f"[criterion {n:02d}] {name}: PASS")


def test_c01_half_line_stabilizer_is_d8():
    for om in OMEGAS:
        started = time.monotonic()
        [table] = stabilizer_in_ball(om, [base_vertex()], 10)
        assert table.order == 8, f"{om}: order {table.order}"
        assert table.recognized_type == "D8", f"{om}: {table.recognized_type}"
        u = GroupElement.from_word(om, fixing_letter(om, 1))
        a = GroupElement.from_word(om, "a")
        generated = {canonical_key(g) for g in subgroup_closure([a, u])}
        assert {canonical_key(g) for g in table.elements} == generated
        assert element_order(a * u) == 4
        assert time.monotonic() - started < 60, f"{om}: too slow"
    passed(1, "half-line stabilizer is D8 generated by a and the fixing letter")


def test_c02_punctured_stabilizer_is_klein_four():
    for om in OMEGAS:
        [table] = stabilizer_in_ball(om, [_PUNCTURED], 10)
        assert {g.word for g in table.elements} == {"", "b", "c", "d"}
        assert table.recognized_type == "Z2xZ2"
        for g in table.elements:
            if g.length:
                assert element_order(g) == 2
    passed(2, "punctured half-line stabilizer is {1,b,c,d}")


def test_c03_prefix_bullets_exhaustive():
    started = time.monotonic()
    reports = check_prefix(OMEGAS[0])
    assert all(r.status == "pass" for r in reports), reports
    assert time.monotonic() - started < 5
    passed(3, "all seven prefix bullets hold for every ray with <= 12 digits")


def test_c04_reduction_lemma_on_ball():
    for om in OMEGAS:
        for g in enumerate_ball(om, 12):
            if g.length < 2:
                continue
            swap, g0, g1 = decompose(g)
            if swap:
                continue
            assert 2 * g0.length <= g.length + 1, (str(om), g.word)
            assert 2 * g1.length <= g.length + 1, (str(om), g.word)
    passed(4, "restrictions contract: 2*l(g_i) <= l(g)+1 on the length-12 ball")


def test_c05_restriction_cases_on_ball():
    for om in OMEGAS:
        report = verify_restriction_lemma(om, 10)
        assert report.violations == (), (str(om), report.violations[:3])
    passed(5, "stabilizer restriction cases hold on the length-10 ball")


def test_c06_commensuration_and_action_law():
    for om in OMEGAS:
        reports = check_commensuration(om)
        for r in reports:
            assert r.status == "pass", (str(om), r.check, r.counterexample)
    passed(6, "1000 random commensuration deltas stay in the word ball; "
              "action law holds on 200 triples")


# first verified run, heads confirmed by brute-force word enumeration
FROZEN_ORBIT = {
    ":012": [0, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8, 8],
    ":01": [0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12],
}


def test_c07_orbit_growth_frozen():
    for text, expected in FROZEN_ORBIT.items():
        om = OmegaSequence.parse(text)
        rows = orbit_growth(om, base_vertex(), 12)
        got = [r.max_distance for r in rows]
        assert got == expected, (text, got)
        assert all(x <= y for x, y in zip(got, got[1:]))
        assert got[12] > got[4]
        for row in rows:
            g = GroupElement.from_word(om, row.witness_word)
            assert g.length <= row.length
            from grigcube.cubes import distance
            assert distance(base_vertex(), act(g, base_vertex())) == row.max_distance
    passed(7, "orbit growth matches frozen table, monotone, and grows past length 4")


def test_c08_faithful_on_witnesses():
    for om in OMEGAS:
        reports = check_faithful(om, max_len=8)
        assert all(r.status == "pass" for r in reports), (str(om), reports)
    witnesses = faithfulness_witnesses()
    assert [v.text() for v in witnesses] == ["∅", "0inf", "0inf,101"]
    passed(8, "every nontrivial element of length <= 8 moves a witness vertex")


def test_c09_stabilizer_order_bound():
    for om in OMEGAS:
        reports = check_bound(om)
        assert all(r.status == "pass" for r in reports), (str(om), reports)
    passed(9, "ball stabilizer orders respect 8*4*4^n for 50 random vertices")


def test_c10_fixed_vertex_for_finite_subgroups():
    for om in OMEGAS:
        a = GroupElement.from_word(om, "a")
        b = GroupElement.from_word(om, "b")
        d = GroupElement.from_word(om, "d")
        c = GroupElement.from_word(om, "c")
        u = GroupElement.from_word(om, fixing_letter(om, 1))
        subgroups = [
            subgroup_closure([a]),
            subgroup_closure([b]),
            subgroup_closure([d]),
            subgroup_closure([a, u]),
            subgroup_closure([b, c]),
        ]
        assert {g.word for g in subgroups[-1]} == {"", "b", "c", "d"}
        for subgroup in subgroups:
            v = fixed_vertex_for_subgroup(subgroup)
            for h in subgroup:
                assert act(h, v) == v, (str(om), h.word, v.text())
    passed(10, "each small subgroup fixes the vertex found for it")


# figure window: line coordinates -3..2 around the all-zero ray.
# loops and double edges transcribed from the drawing; a-edges cross
# between even and odd coordinates inside the window.
FIGURE_LOOPS = {
    ":012": {-3: "b", -2: "b", -1: "d", 0: "d", 1: "c", 2: "c"},
    ":01": {-3: "d", -2: "d", -1: "d", 0: "d", 1: "c", 2: "c"},
}
FIGURE_DOUBLES = {
    ":012": {(-3, -2): {"c", "d"}, (-1, 0): {"b", "c"}, (1, 2): {"b", "d"}},
    ":01": {(-3, -2): {"b", "c"}, (-1, 0): {"b", "c"}, (1, 2): {"b", "d"}},
}
FIGURE_A_EDGES = {(-2, -1), (0, 1)}

DOT_EDGE = re.compile(r'"([^"]+)" -- "([^"]+)" \[label="([a-d])"')


def dot_edges_via_cli(text, radius, capsys):
    from grigcube.cli import main

    assert main(["schreier", "--omega", text, "--radius", str(radius)]) == 0
    out = capsys.readouterr().out
    return DOT_EDGE.findall(out)


def test_c11_schreier_figure_fixture(capsys):
    for text in (":012", ":01"):
        coord = lambda s: line_coordinate(Ray.parse(s))
        edges = dot_edges_via_cli(text, 3, capsys)
        window = set(range(-3, 3))

        loops, doubles, a_edges, outside = {}, {}, set(), []
        for s, t, label in edges:
            cs, ct = coord(s), coord(t)
            if not {cs, ct} <= window:
                outside.append((cs, ct, label))
                continue
            if cs == ct:
                assert cs not in loops, f"{text}: two loops at {cs}"
                loops[cs] = label
            elif label == "a":
                a_edges.add((min(cs, ct), max(cs, ct)))
            else:
                doubles.setdefault((min(cs, ct), max(cs, ct)), set()).add(label)

        assert loops == FIGURE_LOOPS[text], (text, loops)
        assert doubles == FIGURE_DOUBLES[text], (text, doubles)
        assert a_edges == FIGURE_A_EDGES, (text, a_edges)
        # the radius-3 ball extends one vertex past the drawn window on
        # the right and no further
        assert sorted(outside) == [(2, 3, "a"), (3, 3, "d")], (text, outside)
    passed(11, "radius-3 graph output reproduces the labelled figure exactly")


def test_c12_unlabelled_balls_agree():
    def shape(om, radius):
        return sorted(
            tuple(sorted((line_coordinate(e.source), line_coordinate(e.target))))
            for e in ball_edges(om, radius)
        )

    reference = shape(OMEGAS[0], 20)
    for om in OMEGAS[1:]:
        assert shape(om, 20) == reference, str(om)
    assert len(ball(20)) == 41
    passed(12, "radius-20 balls are identical as unlabelled graphs")
