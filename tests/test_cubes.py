from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grigcube.cubes
from grigcube.cubes import (
    CubeVertex,
    _ball_fixers,
    _commensuration,
    act,
    ball_action,
    base_vertex,
    commensuration_delta,
    distance,
    fixes,
    orbit_growth,
)
from grigcube.checks import _random_vertex
from grigcube.elements import (
    GroupElement,
    apply,
    enumerate_ball,
    is_trivial,
    reduce_word,
)
from grigcube.gamma import (
    Ray,
    ZERO_RAY,
    _push,
    ball,
    in_gamma_plus,
    line_apply,
    line_coordinate,
    ray_at,
)
from grigcube.omega import OmegaSequence

from oracles import (
    oracle_act,
    oracle_apply,
    oracle_color,
    oracle_cocycle,
    oracle_commensuration,
    oracle_commensuration_window,
    oracle_inverse,
)

OM = OmegaSequence.parse(":012")
DEFAULT_OMEGAS = (":012", ":01", ":02", ":12", "2:01")
# with and without repetition: the cocycle needs no hypothesis on ω
LINE_OMEGAS = (":012", ":01", "2:01", ":0", "1:12", "00:12", "2:2201", ":0112")



def vertex_of(rays):
    """The cube vertex whose delta is the given rays, through its text form."""
    return CubeVertex.parse(",".join(x.text() for x in rays))


def rays_of(delta):
    return frozenset(ray_at(t) for t in delta)


rays = st.text(alphabet="01", max_size=5).map(Ray.from_digits)
vertices = st.frozensets(rays, max_size=4).map(vertex_of)
alternating_words = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), max_size=8
).map(lambda parts: reduce_word("".join(parts)))


def element(word):
    return GroupElement.from_word(OM, word)


def random_elements(omega, count, max_len=20, seed=0):
    rng = Random(seed)
    return [
        GroupElement.from_word(
            omega, "".join(rng.choice("abcd") for _ in range(rng.randint(0, max_len)))
        )
        for _ in range(count)
    ]


class TestCubeVertex:
    def test_base_vertex_colors(self):
        v0 = base_vertex()
        assert oracle_color(v0, ZERO_RAY)
        assert oracle_color(v0, Ray.parse("1"))
        assert not oracle_color(v0, Ray.parse("01"))

    def test_flip(self):
        v = base_vertex().flip(ZERO_RAY)
        assert not oracle_color(v, ZERO_RAY)
        assert oracle_color(v, Ray.parse("1"))
        assert v.flip(ZERO_RAY) == base_vertex()

    def test_text(self):
        assert base_vertex().text() == "∅"
        # the delta holds line coordinates; the text lists their rays by digits
        v = CubeVertex(frozenset({0, -1}))
        assert v.text() == "0inf,01"
        w = CubeVertex(frozenset({-2, -1}))
        assert w.text() == "01,11"

    def test_parse(self):
        assert CubeVertex.parse("∅") == base_vertex()
        assert CubeVertex.parse("") == base_vertex()
        assert CubeVertex.parse("0inf,01").delta == frozenset({0, -1})
        assert CubeVertex.parse(CubeVertex.parse("1,11,0inf").text()).text() == "0inf,1,11"

    @given(vertices)
    def test_text_roundtrip(self, v):
        assert CubeVertex.parse(v.text()) == v

    @given(vertices, rays)
    def test_color_flips_only_at_flip(self, v, x):
        w = v.flip(x)
        assert oracle_color(w, x) != oracle_color(v, x)
        other = Ray.parse("1" * 7)
        if other != x:
            assert oracle_color(w, other) == oracle_color(v, other)


class TestCommensuration:
    def test_generator_deltas(self):
        assert commensuration_delta(element("a")) == frozenset()
        assert commensuration_delta(element("d")) == frozenset()
        expected = frozenset({-1, 0})  # the rays 01 and 0inf
        assert commensuration_delta(element("b")) == expected
        assert commensuration_delta(element("c")) == expected

    def test_identity(self):
        assert commensuration_delta(GroupElement.identity(OM)) == frozenset()

    @given(alternating_words)
    @settings(max_examples=60)
    def test_matches_wider_scan(self, word):
        g = element(word)
        g_inv = oracle_inverse(g)
        wide = {
            line_coordinate(x)
            for x in ball(g.length + 4)
            if in_gamma_plus(x) != in_gamma_plus(apply(g_inv, x))
        }
        assert wide == set(commensuration_delta(g))

    @given(alternating_words, alternating_words)
    @settings(max_examples=60)
    def test_cocycle_rule(self, v, w):
        g, h = element(v), element(w)
        left = commensuration_delta(g * h)
        right = commensuration_delta(g) ^ frozenset(
            line_apply(OM, g.word, t) for t in commensuration_delta(h)
        )
        assert left == right


@pytest.mark.parametrize("text", LINE_OMEGAS)
class TestCocycleAgainstScans:
    """δ built letter by letter from its cocycle against the window scans."""

    def test_against_integer_window(self, text):
        om = OmegaSequence.parse(text)
        for g in random_elements(om, 1000):
            assert _commensuration(om, g.word) == oracle_commensuration_window(om, g)

    def test_against_point_by_point_cocycle(self, text):
        om = OmegaSequence.parse(text)
        for g in random_elements(om, 1000, max_len=24, seed=2):
            assert _commensuration(om, g.word) == oracle_cocycle(om, g.word)

    def test_act_is_the_cocycle_from_the_vertex(self, text):
        # δ(g) Δ g·v.delta, with g·v.delta from the digit scan on rays
        om = OmegaSequence.parse(text)
        rng = Random(7)
        for g in random_elements(om, 300, seed=3):
            v = _random_vertex(rng)
            image = oracle_cocycle(om, g.word) ^ {
                line_coordinate(oracle_apply(g, ray_at(t))) for t in v.delta
            }
            assert act(g, v).delta == image

    def test_against_ray_scan(self, text):
        om = OmegaSequence.parse(text)
        for g in random_elements(om, 300, seed=1):
            assert rays_of(commensuration_delta(g)) == oracle_commensuration(om, g)

    def test_act_against_ray_oracle(self, text):
        # the integer action on vertices against δ and the images of the
        # rays, both found by scanning rays with the digit-scan action
        om = OmegaSequence.parse(text)
        rng = Random(2)
        for g in random_elements(om, 300, max_len=16, seed=3):
            delta = frozenset(
                Ray.from_digits("".join(rng.choice("01") for _ in range(rng.randint(0, 6))))
                for _ in range(rng.randint(0, 4))
            )
            v = vertex_of(delta)
            assert act(g, v).text() == vertex_of(oracle_act(om, g, delta)).text()


ORACLE_OMEGAS = (":012", ":01", ":02", ":12", "2:01", "0:12", "21:0102")


class TestBallAction:
    """δ and line images grown along the ball from each parent's."""

    @pytest.mark.parametrize("text", ORACLE_OMEGAS)
    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_against_cocycle_and_push(self, text, n):
        om = OmegaSequence.parse(text)
        walked = list(ball_action(om, n))
        assert [word for word, _, _ in walked] == [g.word for g in enumerate_ball(om, n)]
        for word, delta, images in walked:
            assert delta == oracle_cocycle(om, word), word
            reach = 126 - len(word)
            span = range(-reach, reach + 1)
            assert [images[t + 127] - 127 for t in span] == _push(om, word, span), word

    def test_keeps_two_spheres(self):
        # after each element of length n, the kept states are those of
        # lengths n - 1 and n, and of n - 1 only the full sphere
        walk = ball_action(OM, 10)
        sizes = {}
        for word, _, _ in walk:
            n = len(word)
            sizes[n] = sizes.get(n, 0) + 1
            state = walk.gi_frame.f_locals
            kept = {len(held) for held in (*state["parents"], *state["current"])}
            assert kept <= {n - 1, n}, word
            if n:
                assert len(state["parents"]) == sizes[n - 1]

    def test_negative_length_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            next(ball_action(OM, -1))

    @pytest.mark.parametrize("text", [":012", "2:01"])
    def test_far_vertex_takes_the_push(self, monkeypatch, text):
        # at the byte reach the table answers; one point past it the
        # last sphere's words are pushed, and far out every word is; the
        # push runs only past the size test, and every answer of
        # _ball_fixers agrees with fixes
        om = OmegaSequence.parse(text)
        cases = []
        for n in range(7):
            reach = 126 - n
            walked = [(GroupElement(om, word), delta) for word, delta, _ in ball_action(om, n)]
            # point sets with the least length of a word that is pushed
            # for them; each element's own δ below 0 is a vertex it fixes
            least = {frozenset({reach, -1}): n + 1, frozenset({reach + 1, 0}): n,
                     frozenset({-reach - 1}): n, frozenset({2**20, -3}): 0}
            least.update((frozenset(t for t in delta if t < 0), n + 1) for _, delta in walked)
            vertices = [CubeVertex(points) for points in least]
            expected = sorted(
                g.word for g, delta in walked for v in vertices
                if len(delta ^ v.delta) == len(v.delta) and g.length >= least[v.delta])
            cases.append((n, walked, vertices, expected))
        pushed = []
        monkeypatch.setattr(grigcube.cubes, "_push",
                            lambda *args, **kw: pushed.append(args[1]) or _push(*args, **kw))
        fixed = ran = 0
        for n, walked, vertices, expected in cases:
            del pushed[:]
            found = _ball_fixers(om, vertices, n)
            assert sorted(pushed) == expected, n
            ran += len(pushed)
            for v, fixers in zip(vertices, found):
                assert [g.word for g in fixers] == [g.word for g, _ in walked if fixes(g, v)], \
                    (n, sorted(v.delta))
                fixed += len(fixers)
        assert fixed > 0 and ran > 0

    def test_long_words_take_the_level_rule(self):
        # the δ table pushes words past 126 letters by the level rule
        for g in random_elements(OM, 40, max_len=200, seed=9):
            assert _commensuration(OM, g.word) == oracle_cocycle(OM, g.word)

    def test_delta_table_is_bounded(self):
        assert _commensuration.cache_info().maxsize is not None


class TestDeltaParity:
    """Every δ(s) has 0 or 2 points, so the cocycle keeps |δ(g)| even."""

    @pytest.mark.parametrize("text", DEFAULT_OMEGAS)
    def test_even_on_ball(self, text):
        om = OmegaSequence.parse(text)
        assert all(len(commensuration_delta(g)) % 2 == 0 for g in enumerate_ball(om, 10))

    @pytest.mark.parametrize("text", [":0", "00:12"])
    def test_even_with_repetition(self, text):
        om = OmegaSequence.parse(text)
        assert all(len(commensuration_delta(g)) % 2 == 0 for g in random_elements(om, 400))


class TestAction:
    def test_base_vertex_examples(self):
        v0 = base_vertex()
        assert act(element("b"), v0).text() == "0inf,01"
        assert act(element("a"), v0) == v0
        assert act(element("d"), v0) == v0
        assert distance(v0, act(element("b"), v0)) == 2

    def test_action_law_on_examples(self):
        v0 = base_vertex()
        for v, w in product(["a", "b", "ab", "ad", "bab"], repeat=2):
            g, h = element(v), element(w)
            assert act(g * h, v0) == act(g, act(h, v0))

    @given(alternating_words, alternating_words, vertices)
    @settings(max_examples=60)
    def test_action_law(self, vw, ww, vertex):
        g, h = element(vw), element(ww)
        assert act(g * h, vertex) == act(g, act(h, vertex))

    @given(alternating_words, vertices, vertices)
    @settings(max_examples=60)
    def test_isometry(self, word, v, w):
        g = element(word)
        assert distance(act(g, v), act(g, w)) == distance(v, w)

    @given(alternating_words, vertices)
    @settings(max_examples=60)
    def test_color_equivariance(self, word, v):
        g = element(word)
        image = act(g, v)
        for x in ball(g.length + 2):
            assert oracle_color(image, oracle_apply(g, x)) == oracle_color(v, x)

    @given(alternating_words, vertices)
    @settings(max_examples=40)
    def test_inverse_undoes(self, word, v):
        g = element(word)
        assert act(oracle_inverse(g), act(g, v)) == v

    def test_orbit_leaves_zero_coordinates(self):
        # b keeps flipping the pair around the origin: powers of ab
        # push the base vertex arbitrarily far
        v = base_vertex()
        g = element("ab")
        seen = {v.text()}
        for _ in range(6):
            v = act(g, v)
            assert v.text() not in seen
            seen.add(v.text())


class TestFixes:
    """_ball_fixers, which runs the size rule, against the definition
    that fixes is: v compared with act(g, v)."""

    @pytest.mark.parametrize("text", DEFAULT_OMEGAS)
    def test_on_ball(self, text):
        om = OmegaSequence.parse(text)
        rng = Random(4)
        draws = [_random_vertex(rng) for _ in range(50)]
        fixers = _ball_fixers(om, draws, 8)
        fixed = 0
        for v, found in zip(draws, fixers):
            expected = [g for g in enumerate_ball(om, 8) if act(g, v) == v]
            assert found == expected, v.text()
            fixed += len(found)
        # the identity alone fixes all 50; more pairs must pass the size test
        assert fixed > 50

    @pytest.mark.parametrize("text", [":0", "00:12", "1:12"])
    def test_on_long_words(self, text):
        # random vertices far out, and for each involution u x u^-1 the
        # vertex made of the t < 0 part of its δ, which it fixes
        om = OmegaSequence.parse(text)
        rng = Random(5)
        fixed = 0
        for g in random_elements(om, 500, max_len=16, seed=6):
            u = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 7)))
            h = GroupElement.from_word(om, u + rng.choice("abcd") + u[::-1])
            near = frozenset(rng.randint(-20, 20) for _ in range(rng.randint(0, 6)))
            far = frozenset(rng.randint(-2**20, 2**20) for _ in range(rng.randint(0, 6)))
            own = frozenset(t for t in commensuration_delta(h) if t < 0)
            for k, delta in ((g, near), (g, far), (h, own), (h, near)):
                fixed += fixes(k, CubeVertex(delta))
        # each of the 500 involutions fixes its own vertex
        assert fixed >= 500


class TestDistance:
    def test_symmetric_difference(self):
        v = CubeVertex.parse("0inf")
        w = CubeVertex.parse("0inf,1")
        assert distance(v, w) == 1
        assert distance(v, v) == 0
        assert distance(base_vertex(), w) == 2

    @given(vertices, vertices, vertices)
    def test_triangle_inequality(self, u, v, w):
        assert distance(u, w) <= distance(u, v) + distance(v, w)


class TestOrbitGrowth:
    def test_rows_are_cumulative(self):
        rows = orbit_growth(OM, base_vertex(), 8)
        assert [r.length for r in rows] == list(range(9))
        assert all(a.max_distance <= b.max_distance for a, b in zip(rows, rows[1:]))

    def test_against_raw_enumeration(self):
        # cross-check small lengths against plain words, no dedup
        for max_len in range(5):
            best = 0
            stack = [""]
            words = set()
            for _ in range(max_len):
                stack = [w + x for w in stack for x in "abcd"] + stack
            for w in set(stack) | {""}:
                g = GroupElement.from_word(OM, w)
                if g.length <= max_len:
                    words.add(g.word)
            for w in words:
                best = max(best, distance(base_vertex(), act(element(w), base_vertex())))
            rows = orbit_growth(OM, base_vertex(), max_len)
            assert rows[-1].max_distance == best

    def test_witness_is_honest(self):
        rows = orbit_growth(OM, base_vertex(), 8)
        for row in rows:
            g = element(row.witness_word)
            assert g.length <= row.length
            assert distance(base_vertex(), act(g, base_vertex())) == row.max_distance

    def test_growth_is_substantial(self):
        rows = orbit_growth(OM, base_vertex(), 8)
        assert rows[-1].max_distance >= 6
