from itertools import combinations
from random import Random

import pytest

import grigcube.cubes
import grigcube.stabilizers
from grigcube.checks import BOUND_VERTICES, _random_vertex, check_projections
from grigcube.cubes import CubeVertex, act, base_vertex, commensuration_delta
from grigcube.elements import (
    GroupElement,
    OmegaMismatchError,
    apply,
    canonical_key,
    decompose,
    element_order,
    enumerate_ball,
    is_trivial,
)
from grigcube.gamma import (
    Ray,
    ZERO_RAY,
    ball,
    in_gamma_plus,
    in_gamma_plus_tilde,
    line_coordinate,
    ray_at,
)
from grigcube.omega import OmegaSequence, fixing_letter
from grigcube.stabilizers import (
    _PUNCTURED,
    _small_group_table,
    _validate_table,
    fixed_vertex_for_subgroup,
    stabilizer_bound_check,
    stabilizer_in_ball,
    stabilizes_gamma_plus,
    stabilizes_gamma_plus_tilde,
    subgroup_closure,
    verify_restriction_lemma,
)

from oracles import (
    oracle_commensuration,
    oracle_fixed_delta,
    oracle_stabilizer_order,
    oracle_stabilizes_gamma_plus_tilde,
)

OM = OmegaSequence.parse(":012")
ALL_OMEGAS = [OmegaSequence.parse(t) for t in (":012", ":01", ":02", ":12", "2:01")]


def element(word, om=OM):
    return GroupElement.from_word(om, word)


class TestPointwisePredicates:
    def test_generators(self):
        assert stabilizes_gamma_plus(element("a"))
        assert stabilizes_gamma_plus(element("d"))
        assert not stabilizes_gamma_plus(element("b"))
        assert not stabilizes_gamma_plus(element("c"))

        assert stabilizes_gamma_plus_tilde(element("b"))
        assert stabilizes_gamma_plus_tilde(element("c"))
        assert stabilizes_gamma_plus_tilde(element("d"))
        assert not stabilizes_gamma_plus_tilde(element("a"))

    def test_predicates_match_direct_scan(self):
        for g in enumerate_ball(OM, 6):
            scan = ball(g.length + 3)
            plus = all(
                in_gamma_plus(apply(g, x)) == in_gamma_plus(x) for x in scan
            )
            tilde = all(
                in_gamma_plus_tilde(apply(g, x)) == in_gamma_plus_tilde(x)
                for x in scan
            )
            assert stabilizes_gamma_plus(g) == plus
            assert stabilizes_gamma_plus_tilde(g) == tilde

    def test_plus_stabilizer_fixes_base_vertex(self):
        v0 = base_vertex()
        for g in enumerate_ball(OM, 6):
            assert stabilizes_gamma_plus(g) == (act(g, v0) == v0)


class TestHalfLineStabilizer:
    def test_dihedral_of_order_eight(self):
        for om in ALL_OMEGAS:
            [table] = stabilizer_in_ball(om, [base_vertex()], 10)
            assert table.order == 8
            assert table.recognized_type == "D8"
            words = {g.word for g in table.elements}
            u = fixing_letter(om, 1)
            assert "a" in words and u in words

    def test_generated_by_a_and_fixing_letter(self):
        for om in ALL_OMEGAS:
            u = element(fixing_letter(om, 1), om)
            a = element("a", om)
            generated = subgroup_closure([a, u])
            assert len(generated) == 8
            [table] = stabilizer_in_ball(om, [base_vertex()], 10)
            assert {canonical_key(g) for g in generated} == {
                canonical_key(g) for g in table.elements
            }

    def test_rotation_has_order_four(self):
        for om in ALL_OMEGAS:
            u = element(fixing_letter(om, 1), om)
            assert element_order(element("a", om) * u) == 4

    def test_all_elements_short(self):
        [table] = stabilizer_in_ball(OM, [base_vertex()], 10)
        assert max(g.length for g in table.elements) <= 4


class TestPuncturedStabilizer:
    def test_klein_four(self):
        for om in ALL_OMEGAS:
            [table] = stabilizer_in_ball(om, [_PUNCTURED], 10)
            assert table.order == 4
            assert table.recognized_type == "Z2xZ2"
            assert {g.word for g in table.elements} == {"", "b", "c", "d"}

    def test_intersection_with_half_line(self):
        for om in ALL_OMEGAS:
            plus, tilde = stabilizer_in_ball(om, [base_vertex(), _PUNCTURED], 10)
            plus_keys = {canonical_key(g) for g in plus.elements}
            both = {
                g.word for g in tilde.elements if canonical_key(g) in plus_keys
            }
            assert both == {"", fixing_letter(om, 1)}


def _picked(*words):
    return lambda g: g.word in words


@pytest.mark.parametrize("member, unbounded, expected", [
    (_picked(""), None, "trivial"),
    (_picked("", "a"), None, "Z2"),
    (_picked("", "ad", "adad", "da"), None, "Z4"),
    (_picked("", "b", "c", "d"), None, "Z2xZ2"),
    (stabilizes_gamma_plus, None, "D8"),
    (_picked("", "b", "c", "d"), "b", "other(4)"),
], ids=["trivial", "Z2", "Z4", "Z2xZ2", "half-line", "order-past-64"])
def test_recognized_type_of_a_subset(monkeypatch, member, unbounded, expected):
    # each named type from its exact order multiset; unbounded names an
    # element whose order element_order reports as past 64, which leaves
    # a closed subset of four unnamed
    if unbounded is not None:
        monkeypatch.setattr(
            grigcube.stabilizers, "element_order",
            lambda g: None if g.word == unbounded else element_order(g))
    subset = tuple(g for g in enumerate_ball(OM, 6) if member(g))
    assert _small_group_table(subset).recognized_type == expected


def test_table_with_permutation_rows_that_is_not_associative():
    # x∘y = 2x + y mod 3 is a Latin square, so the row test passes it,
    # but (1∘1)∘0 = 0 and 1∘(1∘0) = 1
    table = tuple(tuple((2 * x + y) % 3 for y in range(3)) for x in range(3))
    assert all(sorted(row) == [0, 1, 2] for row in table)
    with pytest.raises(AssertionError, match="not associative"):
        _validate_table(table)


def test_associativity_is_checked_on_every_triple():
    # the addition table of Z/64 with two entries of row 17 swapped: each
    # row is still a permutation, and 498 of the 262,144 triples break
    # associativity, which a sample of 200 triples from Random(0) misses
    rows = [[(x + y) % 64 for y in range(64)] for x in range(64)]
    rows[17][3], rows[17][9] = rows[17][9], rows[17][3]
    table = tuple(tuple(row) for row in rows)
    assert all(sorted(row) == list(range(64)) for row in table)
    with pytest.raises(AssertionError, match="not associative"):
        _validate_table(table)


class TestVertexStabilizer:
    def test_base_vertex_table_is_half_line_table(self):
        # the half-line is the base vertex, so no separate target is needed
        [direct] = stabilizer_in_ball(OM, [base_vertex()], 8)
        plus = {g.word for g in enumerate_ball(OM, 8) if stabilizes_gamma_plus(g)}
        assert {g.word for g in direct.elements} == plus
        assert direct.recognized_type == "D8"

    def test_moved_vertex_has_smaller_ball_stabilizer(self):
        v = base_vertex().flip(ZERO_RAY)
        [table] = stabilizer_in_ball(OM, [v], 6)
        assert all(act(g, v) == v for g in table.elements)

    @pytest.mark.parametrize("om", ALL_OMEGAS, ids=str)
    def test_orders_agree_with_the_bound_check(self, om):
        # the 50 vertices that check_bound draws at seed 0, both ways
        rng = Random(0)
        vertices = [_random_vertex(rng, max_depth=4) for _ in range(BOUND_VERTICES)]
        tables = stabilizer_in_ball(om, vertices, 8)
        checks = stabilizer_bound_check(om, vertices, 8)
        assert [t.order for t in tables] == [c.order for c in checks]
        assert len(tables) == BOUND_VERTICES

    def test_fixed_vertex_stabilizer_holds_the_subgroup(self):
        # every finite closure of at most two elements of ball(2) whose
        # elements all lie in ball(8) lies in the ball(8) stabilizer of
        # the vertex that fixed_vertex_for_subgroup gives it; a closure
        # with longer elements, such as <ab> over :012, is left out
        checked = 0
        for om in ALL_OMEGAS:
            small = enumerate_ball(om, 2)
            subgroups = []
            for gens in [*combinations(small, 1), *combinations(small, 2)]:
                try:
                    subgroup = subgroup_closure(gens)
                except ValueError:
                    continue
                if max(h.length for h in subgroup) <= 8:
                    subgroups.append(subgroup)
            vertices = [fixed_vertex_for_subgroup(h) for h in subgroups]
            for subgroup, table in zip(subgroups, stabilizer_in_ball(om, vertices, 8)):
                keys = {canonical_key(g) for g in table.elements}
                assert {canonical_key(h) for h in subgroup} <= keys
            checked += len(subgroups)
        assert checked == 130


class TestSubgroupClosure:
    def test_klein_four_from_two_letters(self):
        got = subgroup_closure([element("b"), element("c")])
        assert {g.word for g in got} == {"", "b", "c", "d"}

    def test_involution(self):
        got = subgroup_closure([element("a")])
        assert {g.word for g in got} == {"", "a"}

    def test_respects_cap(self):
        # ⟨a, b, c⟩ is the whole group, which is infinite
        with pytest.raises(ValueError):
            subgroup_closure([element("a"), element("b"), element("c")])

    def test_needs_a_generator(self):
        with pytest.raises(ValueError, match="at least one generator"):
            subgroup_closure([])


class TestFixedVertex:
    def test_single_letter_subgroups(self):
        # b and c move the base vertex but fix a vertex two flips away
        for letter in ("b", "c"):
            subgroup = subgroup_closure([element(letter)])
            v = fixed_vertex_for_subgroup(subgroup)
            assert all(act(g, v) == v for g in subgroup)
            assert v == CubeVertex.parse("01")

    def test_letters_fixing_base(self):
        for letter in ("a", "d"):
            subgroup = subgroup_closure([element(letter)])
            v = fixed_vertex_for_subgroup(subgroup)
            assert v == base_vertex()

    def test_klein_four(self):
        subgroup = subgroup_closure([element("b"), element("c")])
        v = fixed_vertex_for_subgroup(subgroup)
        assert all(act(g, v) == v for g in subgroup)

    def test_sequence_mismatch(self):
        # the closure check multiplies elements over the two sequences
        subgroup = subgroup_closure([element("b")]) + subgroup_closure(
            [element("b", OmegaSequence.parse(":01"))]
        )
        with pytest.raises(OmegaMismatchError):
            fixed_vertex_for_subgroup(subgroup)

    def test_not_a_subgroup(self):
        with pytest.raises(ValueError):
            fixed_vertex_for_subgroup([element("b")])  # identity missing
        with pytest.raises(ValueError):
            fixed_vertex_for_subgroup(
                [GroupElement.identity(OM), element("b"), element("c")]
            )

    def test_empty_is_not_a_subgroup(self):
        # the empty set is closed under products, yet holds no identity
        with pytest.raises(ValueError):
            fixed_vertex_for_subgroup([])

    def test_unfixed_candidate_raises(self, monkeypatch):
        # the candidate is fixed by construction, so only a fault in the
        # fixing test reaches the check; it names the first element moved
        monkeypatch.setattr(grigcube.stabilizers, "fixes", lambda g, v: False)
        with pytest.raises(AssertionError, match="candidate vertex moved by ''"):
            fixed_vertex_for_subgroup(subgroup_closure([element("b")]))


class TestBound:
    def test_base_vertex(self):
        [result] = stabilizer_bound_check(OM, [base_vertex()], 8)
        assert result.order == 8
        assert result.bound == 32
        assert result.ok

    def test_deep_vertex(self):
        v = CubeVertex.parse("101,1")
        [result] = stabilizer_bound_check(OM, [v], 8)
        assert result.bound == 8 * 4 * 4 ** 4
        assert result.ok

    def test_all_small_vertices(self):
        vertices = [CubeVertex.parse(Ray.from_digits(digits).text())
                    for digits in ("", "1", "01", "11")]
        results = stabilizer_bound_check(OM, vertices, 8)
        assert len(results) == 4
        assert all(result.ok for result in results)

    def test_no_vertices(self):
        assert stabilizer_bound_check(OM, [], 8) == []

    @pytest.mark.parametrize(
        "text", [":012", ":01", ":02", ":12", "2:01", "0:12", "21:0102"]
    )
    def test_grouped_order_against_one_test_per_element(self, text):
        # the orders of one pass over the ball against one fixes call
        # per element, on the vertices the bound suite draws, a repeated
        # vertex among them
        om = OmegaSequence.parse(text)
        rng = Random(0)
        vertices = [_random_vertex(rng, max_depth=4) for _ in range(50)]
        vertices.append(vertices[7])
        orders = [r.order for r in stabilizer_bound_check(om, vertices, 8)]
        assert orders == [oracle_stabilizer_order(om, v, 8) for v in vertices]
        # the identity alone fixes all 51; more pairs must pass
        assert sum(orders) > 51

    def test_far_vertex_takes_the_push(self):
        # past the byte reach the definition answers: fixes, which pushes
        # the points through each word
        v = CubeVertex(frozenset({-1, 0, 130, 2**20}))
        [result] = stabilizer_bound_check(OM, [v], 6)
        assert result.order == oracle_stabilizer_order(OM, v, 6)

    @pytest.mark.parametrize("text", [":012", "2:01"])
    def test_vertices_at_the_byte_reach(self, monkeypatch, text):
        # over ball(8) a point at |t| = 118 lies within the byte reach,
        # 118 + 8 = 126, and the walk's tables answer with no push and no
        # act; at |t| = 119 each request is answered by the definition,
        # one enumerate_ball each; both orders are those of one fixes
        # call per element
        om = OmegaSequence.parse(text)
        calls = []
        for name in ("_push", "act", "enumerate_ball"):
            true = getattr(grigcube.cubes, name)
            monkeypatch.setattr(grigcube.cubes, name, lambda *args, _name=name, _true=true, **kw:
                                calls.append(_name) or _true(*args, **kw))
        for reach, far in ((118, False), (119, True)):
            vertices = [CubeVertex(frozenset(points)) for points in (
                {reach - 1, reach}, {-reach, 1 - reach}, {-1, 0, reach - 1, reach}, {-reach})]
            del calls[:]
            orders = [r.order for r in stabilizer_bound_check(om, vertices, 8)]
            assert calls.count("enumerate_ball") == (len(vertices) if far else 0)
            assert bool(calls) == far
            assert orders == [oracle_stabilizer_order(om, v, 8) for v in vertices]
            assert sum(orders) > len(vertices)


class TestRestrictionCases:
    def test_no_violations_anywhere(self):
        for om in ALL_OMEGAS:
            report = verify_restriction_lemma(om, 8)
            assert report.violations == ()
            assert len(enumerate_ball(om, 8)) > 200

    def test_case_counts(self):
        report = verify_restriction_lemma(OM, 8)
        assert report.case_counts["half_line"] == 4
        assert report.case_counts["punctured"] == 4
        assert report.case_counts["swapping"] == 0

    def test_wrong_left_restriction_faults_half_line_only(self, monkeypatch):
        # a stabilizes Γ₊ but not Γ̃₊, so as g0 it breaks the half_line
        # case of the four level-fixing elements of S₊ in ball(8), and
        # leaves the punctured case, which asks g0 to stabilize Γ₊
        true_decompose = grigcube.stabilizers.decompose

        def left_is_a(g):
            swap, g0, g1 = true_decompose(g)
            return swap, GroupElement(g0.omega, "a"), g1

        monkeypatch.setattr(grigcube.stabilizers, "decompose", left_is_a)
        report = verify_restriction_lemma(OM, 8)
        assert report.case_counts == {"half_line": 4, "punctured": 4, "swapping": 0}
        assert report.violations == (
            "1: half_line", "d: half_line", "ada: half_line", "adad: half_line")
        record = check_projections(OM, 8)[0]
        assert record.status == "fail"
        assert record.counterexample == list(report.violations)

    def test_wrong_left_restriction_faults_punctured_only(self, monkeypatch):
        # over the shifted sequence :120, b stabilizes Γ̃₊ but not Γ₊, so
        # as g0 it breaks the punctured case of the four level-fixing
        # elements of S̃ in ball(8), and leaves the half_line case, which
        # asks g0 to stabilize Γ̃₊
        true_decompose = grigcube.stabilizers.decompose

        def left_is_b(g):
            swap, g0, g1 = true_decompose(g)
            return swap, GroupElement(g0.omega, "b"), g1

        monkeypatch.setattr(grigcube.stabilizers, "decompose", left_is_b)
        report = verify_restriction_lemma(OM, 8)
        assert report.case_counts == {"half_line": 4, "punctured": 4, "swapping": 0}
        assert report.violations == (
            "1: punctured", "b: punctured", "c: punctured", "d: punctured")
        record = check_projections(OM, 8)[0]
        assert record.status == "fail"
        assert record.counterexample == list(report.violations)

    def test_swap_everywhere_faults_swapping_only(self, monkeypatch):
        # each element of S̃ in ball(8) then counts as swapping, and no
        # element reaches the two level-fixing cases
        true_decompose = grigcube.stabilizers.decompose
        monkeypatch.setattr(grigcube.stabilizers, "decompose",
                            lambda g: (True, *true_decompose(g)[1:]))
        report = verify_restriction_lemma(OM, 8)
        assert report.case_counts == {"half_line": 0, "punctured": 0, "swapping": 4}
        assert report.violations == (
            "1: swapping", "b: swapping", "c: swapping", "d: swapping")

    def test_no_swapping_element_stabilizes_punctured(self):
        # a swapping g in the punctured stabilizer would have δ(g0) = {0},
        # of odd size, and every δ has even size
        for om in ALL_OMEGAS:
            for g in enumerate_ball(om, 10):
                if decompose(g)[0]:
                    assert not stabilizes_gamma_plus_tilde(g)

    def test_right_restriction_can_leave_half_line_stabilizer(self):
        # the letter fixing level one of (012)^inf stabilizes both
        # half-lines, yet its right restriction moves the all-zero ray:
        # membership of both restrictions in the plain stabilizer over
        # the shifted sequence would be too strong a conclusion
        d = element("d")
        assert stabilizes_gamma_plus(d)
        assert stabilizes_gamma_plus_tilde(d)
        from grigcube.elements import decompose

        _, _, d1 = decompose(d)
        assert d1.omega == OM.shift()
        assert d1.word == "d"
        assert apply(d1, ZERO_RAY) != ZERO_RAY
        assert not stabilizes_gamma_plus(d1)
        assert stabilizes_gamma_plus_tilde(d1)


@pytest.mark.parametrize("text", [":012", "2:01"])
class TestIntegerScansAgainstRays:
    """Each predicate read off the cocycle δ against a ray scan of a window."""

    def test_commensuration(self, text):
        om = OmegaSequence.parse(text)
        for g in enumerate_ball(om, 8):
            delta = commensuration_delta(g)
            assert frozenset(ray_at(t) for t in delta) == oracle_commensuration(om, g)

    def test_punctured(self, text):
        # the restriction lemma asks this of g's restrictions as well
        om = OmegaSequence.parse(text)
        for g in enumerate_ball(om, 8):
            _, g0, g1 = decompose(g)
            for h in (g, g0, g1):
                o = h.omega
                assert stabilizes_gamma_plus_tilde(h) == oracle_stabilizes_gamma_plus_tilde(o, h)

    def test_fixed_vertex(self, text):
        om = OmegaSequence.parse(text)
        # the cyclic subgroups of order at most 4
        subgroups = [
            subgroup_closure([g]) for g in enumerate_ball(om, 8)
            if any(is_trivial(GroupElement.from_word(om, g.word * k)) for k in range(1, 5))
        ]
        subgroups.append(subgroup_closure([element("a", om), element(fixing_letter(om, 1), om)]))
        subgroups.append(subgroup_closure([element("b", om), element("c", om)]))
        assert len(subgroups) > 50
        for subgroup in subgroups:
            vertex = fixed_vertex_for_subgroup(subgroup)
            expected = {line_coordinate(x) for x in oracle_fixed_delta(om, subgroup)}
            assert vertex.delta == expected
