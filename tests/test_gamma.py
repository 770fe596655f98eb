from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grigcube.gamma
from grigcube.elements import GroupElement, _append, apply
from grigcube.gamma import (
    _OFFSET,
    _REACH,
    _SIGNS,
    Ray,
    ZERO_RAY,
    _coordinate,
    _push,
    _window_signs,
    ball,
    ball_edges,
    edge_records,
    in_gamma_plus,
    in_gamma_plus_tilde,
    line_apply,
    line_coordinate,
    neighbors,
    prepend,
    ray_at,
    to_dot,
)
from grigcube.omega import OmegaSequence

from oracles import (
    _apply_letter,
    _extensions,
    oracle_act,
    oracle_apply,
    oracle_ball,
    oracle_ball_edges,
    oracle_letter,
    oracle_cocycle,
    oracle_line_coordinates,
    oracle_push_bytes,
    oracle_word,
)

OM = OmegaSequence.parse(":012")
OM01 = OmegaSequence.parse(":01")
ALL_OMEGAS = [OmegaSequence.parse(t) for t in (":012", ":01", ":02", ":12", "2:01")]

rays = st.text(alphabet="01", max_size=8).map(Ray.from_digits)


class TestHalfLines:
    def test_membership_examples(self):
        assert in_gamma_plus(ZERO_RAY)
        assert in_gamma_plus(Ray.parse("1"))
        assert not in_gamma_plus(Ray.parse("01"))
        assert not in_gamma_plus(Ray.parse("11"))
        assert in_gamma_plus(Ray.parse("101"))
        assert not in_gamma_plus_tilde(ZERO_RAY)
        assert in_gamma_plus_tilde(Ray.parse("1"))
        assert not in_gamma_plus_tilde(Ray.parse("01"))

    @given(rays)
    def test_tilde_is_punctured_half_line(self, x):
        assert in_gamma_plus_tilde(x) == (in_gamma_plus(x) and x != ZERO_RAY)

    @given(rays)
    def test_prefix_relations(self, x):
        zero, one = prepend("0", x), prepend("1", x)
        assert in_gamma_plus(x) == (not in_gamma_plus_tilde(zero))
        assert in_gamma_plus_tilde(x) == (not in_gamma_plus(zero))
        assert in_gamma_plus_tilde(x) == (not in_gamma_plus_tilde(one))
        if not in_gamma_plus(x):
            assert in_gamma_plus_tilde(one)

    def test_prepend(self):
        assert prepend("0", ZERO_RAY) == ZERO_RAY
        assert prepend("1", ZERO_RAY).text() == "1"
        assert prepend("0", Ray.parse("1")).text() == "01"
        assert prepend("1", Ray.parse("01")).text() == "101"

    def test_prepend_rejects_a_foreign_digit(self):
        with pytest.raises(ValueError, match="invalid digit '2'"):
            prepend("2", ZERO_RAY)


class TestNeighbors:
    def test_degree_four_with_labels(self):
        for om in ALL_OMEGAS:
            for x in ball(6):
                edges = neighbors(om, x)
                assert sorted(e.label for e in edges) == ["a", "b", "c", "d"]
                assert all(e.source == x for e in edges)

    def test_neighbor_targets_match_action(self):
        for om in ALL_OMEGAS:
            for x in ball(5):
                for e in neighbors(om, x):
                    g = GroupElement.from_word(om, e.label)
                    assert oracle_apply(g, x) == e.target

    def test_each_vertex_has_one_loop(self):
        # one fixed letter, one letter matching the a-edge, and a
        # double edge from the remaining two letters
        for om in ALL_OMEGAS:
            for x in ball(8):
                targets = {}
                for e in neighbors(om, x):
                    targets.setdefault(e.target, []).append(e.label)
                loops = targets.get(x, [])
                assert len(loops) == 1
                others = [labels for t, labels in targets.items() if t != x]
                assert sorted(len(v) for v in others) == [1, 2]


class TestBall:
    def test_two_ended_line_sizes(self):
        for radius in (0, 1, 2, 3, 10, 40):
            assert len(ball(radius)) == 2 * radius + 1

    def test_ball_membership(self):
        b2 = {x.text() for x in ball(2)}
        assert b2 == {"0inf", "1", "01", "101", "11"}


class TestLineCoordinate:
    def test_examples(self):
        assert line_coordinate(ZERO_RAY) == 0
        assert line_coordinate(Ray.parse("1")) == 1
        assert line_coordinate(Ray.parse("101")) == 2
        assert line_coordinate(Ray.parse("01")) == -1
        assert line_coordinate(Ray.parse("11")) == -2

    def test_sign_tracks_half_line(self):
        for x in ball(12):
            coordinate = line_coordinate(x)
            assert (coordinate >= 0) == in_gamma_plus(x)
            assert (coordinate > 0) == in_gamma_plus_tilde(x)

    def test_bijective_onto_interval(self):
        coords = sorted(line_coordinate(x) for x in ball(9))
        assert coords == list(range(-9, 10))

    def test_a_edge_crosses_origin(self):
        a = GroupElement.from_word(OM, "a")
        assert line_coordinate(apply(a, ZERO_RAY)) == 1

    def test_neighbors_are_adjacent_coordinates(self):
        for om in ALL_OMEGAS:
            for x in ball(10):
                c = line_coordinate(x)
                for e in neighbors(om, x):
                    assert abs(line_coordinate(e.target) - c) <= 1


# sequences with and without repetition: the line model needs neither
ORACLE_OMEGAS = [
    OmegaSequence.parse(t)
    for t in (":012", ":01", "2:01", ":0", "1:12", "00:12", "2:2201", ":0112")
]


@pytest.fixture(scope="module", params=ORACLE_OMEGAS, ids=str)
def searched(request):
    """A sequence with the search coordinates of its radius-401 ball."""
    return request.param, oracle_line_coordinates(request.param, 401)


class TestClosedFormAgainstOracle:
    def test_coordinates_and_ball_at_radius_200(self, searched):
        om, coordinates = searched
        near = {x for x, t in coordinates.items() if abs(t) <= 200}
        assert ball(200) == near == oracle_ball(om, 200)
        for x in near:
            assert line_coordinate(x) == coordinates[x]
            assert ray_at(coordinates[x]) == x

    def test_ball_edges(self, searched):
        # every interval pushed through each letter at once against the
        # digit-scan neighbours of each ray
        om, coordinates = searched
        for radius in (60, 7):
            edges = ball_edges(om, radius)
            assert {(frozenset((e.source, e.target)), e.label) for e in edges} == (
                oracle_ball_edges(om, radius))
            keys = [(coordinates[e.source], coordinates[e.target], e.label) for e in edges]
            assert keys == sorted(set(keys)) and all(s <= t for s, t, _ in keys)

    def test_letters_per_coordinate(self, searched):
        om, coordinates = searched
        rays = {t: x for x, t in coordinates.items()}
        for t in range(-400, 401):
            digits = rays[t].digits
            for letter in "abcd":
                image = line_apply(om, letter, t)
                assert rays[image].digits == _apply_letter(letter, om, digits)
                padded = oracle_letter(letter, om, digits + "00")
                assert rays[image] == Ray.from_digits(padded)

    @given(st.integers(min_value=-(2**41), max_value=2**41))
    def test_ray_at_inverts_the_coordinate(self, t):
        assert line_coordinate(ray_at(t)) == t

    @given(st.text(alphabet="01", max_size=40).map(Ray.from_digits))
    def test_coordinate_inverts_ray_at(self, x):
        assert ray_at(line_coordinate(x)) == x

    def test_half_lines_are_signs(self):
        for t in range(-300, 301):
            assert in_gamma_plus(ray_at(t)) == (t >= 0)
            assert in_gamma_plus_tilde(ray_at(t)) == (t >= 1)

    @given(st.text(alphabet="abcd", max_size=12), st.integers(-10**6, 10**6))
    def test_words_act_letter_by_letter(self, word, t):
        g = GroupElement.from_word(OM, word)
        assert line_apply(OM, word, t) == line_apply(OM, g.word, t)
        assert line_coordinate(oracle_apply(g, ray_at(t))) == line_apply(OM, g.word, t)

    def test_negative_radius_is_empty(self):
        assert ball(-1) == set()


class TestUnlabelledShape:
    def test_same_shape_for_all_sequences(self):
        # forgetting labels, the ball looks identical for every sequence:
        # compare edges through line coordinates
        def shape(om, radius):
            return sorted(
                (
                    min(line_coordinate(e.source), line_coordinate(e.target)),
                    max(line_coordinate(e.source), line_coordinate(e.target)),
                )
                for e in ball_edges(om, radius)
            )

        reference = shape(ALL_OMEGAS[0], 12)
        for om in ALL_OMEGAS[1:]:
            assert shape(om, 12) == reference

    def test_labels_do_differ(self):
        def labelled(om):
            return sorted(
                (line_coordinate(e.source), line_coordinate(e.target), e.label)
                for e in ball_edges(om, 4)
            )

        assert labelled(OM) != labelled(OM01)


class TestFigureFixtures:
    # loops and double edges in the radius-3 ball around the all-zero ray

    def expect_loops(self, om, expected):
        for text, letter in expected.items():
            x = Ray.parse(text)
            loops = [e.label for e in neighbors(om, x) if e.target == x]
            assert loops == [letter], f"{om} loop at {text}"

    def test_loops_012(self):
        self.expect_loops(OM, {
            "0inf": "d", "1": "c", "01": "d",
            "11": "b", "101": "c", "1101": "b",
        })

    def test_loops_01(self):
        self.expect_loops(OM01, {
            "0inf": "d", "1": "c", "01": "d",
            "11": "d", "101": "c", "1101": "d",
        })

    def expect_doubles(self, om, expected):
        for (s, t), labels in expected.items():
            x = Ray.parse(s)
            found = {e.label for e in neighbors(om, x) if e.target == Ray.parse(t)}
            assert found == labels, f"{om} double {s}--{t}"

    def test_doubles_012(self):
        self.expect_doubles(OM, {
            ("0inf", "01"): {"b", "c"},
            ("1", "101"): {"b", "d"},
            ("11", "1101"): {"c", "d"},
        })

    def test_doubles_01(self):
        self.expect_doubles(OM01, {
            ("0inf", "01"): {"b", "c"},
            ("1", "101"): {"b", "d"},
            ("11", "1101"): {"b", "c"},
        })

    def test_a_edges(self):
        for om in (OM, OM01):
            a = GroupElement.from_word(om, "a")
            assert apply(a, ZERO_RAY).text() == "1"
            assert apply(a, Ray.parse("01")).text() == "11"
            assert apply(a, Ray.parse("101")).text() == "001"
            assert apply(a, Ray.parse("1101")).text() == "0101"


class TestEdgeRecordsAndDot:
    def test_records_have_both_endpoints_inside(self):
        inside = {x.text() for x in ball(3)}
        for record in edge_records(OM, 3):
            assert record["source"] in inside
            assert record["target"] in inside

    def test_deterministic(self):
        assert to_dot(OM, 3) == to_dot(OM, 3)
        assert edge_records(OM, 3) == edge_records(OM, 3)

    def test_dot_structure(self):
        dot = to_dot(OM, 2)
        assert dot.startswith("graph schreier {")
        assert dot.rstrip().endswith("}")
        assert '"0inf" -- "1" [label="a", color="red"];' in dot
        assert '"01" -- "0inf" [label="b", color="blue"];' in dot
        assert 'color="orange"' in dot

    def test_dot_differs_between_sequences(self):
        assert to_dot(OM, 3) != to_dot(OM01, 3)

    def test_sequences_share_the_coordinate_table(self, cold_coordinate_table):
        # the coordinate of a ray reads no sequence, so two sequences'
        # balls of radius 20 fill one table of 41 rays
        to_dot(OM, 20)
        to_dot(OM01, 20)
        assert line_coordinate.cache_info().currsize == 41


@pytest.fixture
def cold_coordinate_table():
    line_coordinate.cache_clear()
    yield
    line_coordinate.cache_clear()


coordinates = st.integers(min_value=-(2**41), max_value=2**41)


@pytest.mark.parametrize("om", ORACLE_OMEGAS, ids=str)
class TestPushAgainstRayOracle:
    """The push moves many coordinates through a word at once, keeping
    their order; the digit scan moves each ray alone.  Preperiods of 0,
    1 and 2 symbols send levels to both strings of the sequence."""

    @given(st.text(alphabet="abcd", max_size=14), st.lists(coordinates, max_size=6))
    @settings(max_examples=60)
    def test_images_in_order(self, om, word, points):
        g = GroupElement.from_word(om, word)
        expected = [line_coordinate(oracle_apply(g, ray_at(t))) for t in points]
        assert _push(om, word, points) == expected

    @given(st.text(alphabet="abcd", max_size=14), coordinates)
    @settings(max_examples=60)
    def test_line_apply_is_the_push_of_one_point(self, om, word, t):
        g = GroupElement.from_word(om, word)
        assert line_apply(om, word, t) == line_coordinate(oracle_apply(g, ray_at(t)))


@pytest.mark.parametrize("om", [
    OmegaSequence.parse(t)
    for t in (":012", ":01", "2:01", "00:12", "2:2201", ":0112", "1:12")
], ids=str)
def test_push_at_every_level_up_to_60(om):
    # the ray 1^(L−1) 0 x 1 is a point of a pair at level L; a uniform
    # draw reaches level L with probability about 2^−L, so the level is
    # picked first and the push is held to the recursive definition there
    rng = Random(0)
    for level in range(1, 61):
        for _ in range(4):
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            digits = "1" * (level - 1) + "0" + x + "1"
            for letter in "abcd":
                expected = _coordinate(oracle_word(letter, om, digits + "00"))
                assert line_apply(om, letter, _coordinate(digits)) == expected, (
                    level, digits, letter)


# within ±140 and up to 20 letters, a draw falls on either side of the
# byte bound of _push, max|t| + len(word) <= _REACH = 126
near_points = st.integers(min_value=-140, max_value=140)
long_words = st.text(alphabet="abcd", max_size=20)


def _rays(points) -> set[Ray]:
    return {ray_at(t) for t in points}


@pytest.mark.parametrize("om", ORACLE_OMEGAS, ids=str)
class TestPushOnBothSidesOfTheByteBound:
    """_push translates bytes when every point stays within ±126 and
    runs the level rule otherwise; both against the ray oracles."""

    @given(long_words, st.lists(near_points, max_size=6))
    @settings(max_examples=60)
    def test_images_in_order(self, om, word, points):
        g = GroupElement.from_word(om, word)
        expected = [line_coordinate(oracle_apply(g, ray_at(t))) for t in points]
        assert _push(om, word, points) == expected

    @given(long_words, st.frozensets(near_points, max_size=4))
    @settings(max_examples=60)
    def test_cocycle(self, om, word, delta):
        assert frozenset(_push(om, word, (), cocycle=True)) == oracle_cocycle(om, word)
        g = GroupElement.from_word(om, word)
        image = _push(om, word, delta, cocycle=True)
        assert len(image) == len(set(image))
        assert _rays(image) == oracle_act(om, g, frozenset(_rays(delta)))


def _alternating_words(max_len: int) -> list[str]:
    words = layer = [""]
    for _ in range(max_len):
        layer = [w + s for w in layer for s in _extensions(w)]
        words = words + layer
    return words


SHORT_WORDS = _alternating_words(8)

# the four cases of a cocycle letter that swaps the boundary pair, by
# whether the set it meets holds −1 and whether it holds 0
BOUNDARY_CASES = {
    (False, False): "neither of −1, 0",
    (True, False): "−1 alone",
    (False, True): "0 alone",
    (True, True): "both of −1, 0",
}


@pytest.mark.parametrize("om", ORACLE_OMEGAS, ids=str)
def test_cocycle_push_in_each_boundary_case(om):
    # every alternating word of at most 8 letters, pushed from sets in
    # each boundary case and from one whose far point sits at the byte
    # reach; the cocycle needs no hypothesis on ω, so the sequences with
    # repetition are held to it too.  The set a word's first letter
    # meets is the oracle's push through the rest of the word, so that
    # letter is checked alone first, and a failure names its case
    assert len(set(SHORT_WORDS)) == 401
    reached = {}
    for word in SHORT_WORDS:
        g = GroupElement(om, word)
        for start in ((), (-1,), (0,), (-1, 0), (-1, 0, 3), (0, _REACH - len(word))):
            start = frozenset(start)
            before = reached.get((word[1:], start))
            if before is None:
                before = oracle_cocycle(om, word[1:], start)
            expected = reached[word, start] = oracle_cocycle(om, word[:1], before)
            step = _push(om, word[:1], before, cocycle=True)
            case = BOUNDARY_CASES[-1 in before, 0 in before]
            assert len(step) == len(set(step)), (case, word[:1], sorted(before))
            assert frozenset(step) == expected, (case, word[:1], sorted(before))
            image = _push(om, word, start, cocycle=True)
            assert len(image) == len(set(image)), (word, sorted(start))
            assert frozenset(image) == expected, (word, sorted(start))
            assert _rays(image) == oracle_act(om, g, frozenset(_rays(start))), word
            spliced = oracle_push_bytes(om, word, bytes([t + _OFFSET for t in start]), True)
            assert frozenset(image) == {byte - _OFFSET for byte in spliced}, word


# the rewrites of _append: a letter twice cancels, and two distinct
# letters of b, c, d merge into the third
REWRITES = {"aa": "", "bb": "", "cc": "", "dd": "",
            "bc": "d", "cb": "d", "cd": "b", "dc": "b", "bd": "c", "db": "c"}


@pytest.mark.parametrize("om", ORACLE_OMEGAS, ids=str)
def test_each_rewrite_keeps_the_push_and_delta(om):
    # each side of a rewrite moves every point of the window alike and
    # has the same δ, so a word rewritten by _append keeps both, over
    # sequences with repetition too.  Two letters from |t| <= _REACH - 2
    # stay within the byte reach, so both sides take the byte tables
    pairs = {x + y for x in "abcd" for y in "abcd"}
    assert {pair for pair in pairs if _append(pair[0], pair[1]) != pair} == set(REWRITES)
    window = range(2 - _REACH, _REACH - 1)
    for pair, single in REWRITES.items():
        assert _append(pair[0], pair[1]) == single
        assert _push(om, pair, window) == _push(om, single, window), pair
        assert (set(_push(om, pair, (), cocycle=True))
                == set(_push(om, single, (), cocycle=True))), pair


def _outward_word(om: OmegaSequence, t: int, length: int) -> str:
    """A word whose letters, right to left, each carry t one step further
    from 0, chosen by the digit scan."""
    letters = []
    for _ in range(length):
        for s in "abcd":
            image = line_coordinate(oracle_apply(GroupElement(om, s), ray_at(t)))
            if abs(image) > abs(t):
                letters.append(s)
                t = image
                break
    return "".join(reversed(letters))


@pytest.mark.parametrize("om", ORACLE_OMEGAS, ids=str)
@pytest.mark.parametrize("reach", [_REACH, _REACH + 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_push_at_the_byte_bound(om, reach, sign, monkeypatch):
    # ten letters carry the far point out to ±reach: at _REACH the byte
    # tables hold every step, one further the level rule takes the call
    start = sign * (reach - 10)
    word = _outward_word(om, start, 10)
    points = [start, 3, -1, 0]
    g = GroupElement.from_word(om, word)
    expected = [line_coordinate(oracle_apply(g, ray_at(t))) for t in points]
    assert abs(expected[0]) == reach
    grigcube.gamma._byte_tables(om)  # built before the spy, which then sees pushes only
    rule_calls = []
    rule = grigcube.gamma._rule_push

    def counted(*args):
        rule_calls.append(args)
        return rule(*args)

    monkeypatch.setattr(grigcube.gamma, "_rule_push", counted)
    assert _push(om, word, points) == expected
    image = _push(om, word, points, cocycle=True)
    assert _rays(image) == oracle_act(om, g, frozenset(_rays(points)))
    assert len(rule_calls) == (0 if reach == _REACH else 2)


def test_sign_table_marks_the_bytes_of_the_half_line():
    # byte t + _OFFSET reads 1 exactly when t >= 0
    assert _SIGNS == bytes(byte >= _OFFSET for byte in range(256))


@pytest.mark.parametrize("om", ORACLE_OMEGAS, ids=str)
@pytest.mark.parametrize("reach", [_REACH - 1, _REACH, _REACH + 1])
def test_window_signs_on_both_sides_of_the_byte_bound(om, reach, monkeypatch):
    # radius + len(word) <= _REACH translates bytes; one further the
    # level rule takes the window
    word = "".join(Random(reach).choice("bcd") + "a" for _ in range(20))
    radius = reach - len(word)
    window = range(-radius, radius + 1)
    g = GroupElement.from_word(om, word)
    expected = bytes(line_coordinate(oracle_apply(g, ray_at(t))) >= 0 for t in window)
    grigcube.gamma._byte_tables(om)
    rule_calls = []
    rule = grigcube.gamma._rule_push
    monkeypatch.setattr(grigcube.gamma, "_rule_push",
                        lambda *args: rule_calls.append(args) or rule(*args))
    assert _window_signs(om, word, radius) == expected
    assert len(rule_calls) == (reach > _REACH)
