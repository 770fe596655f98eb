import gc
import json
import pickle
import sys
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grigcube.checks
import grigcube.elements
from grigcube.checks import DEFAULT_OMEGAS
from grigcube.cli import main
from grigcube.elements import (
    _NOT_REDUCED,
    _ball_words,
    _canonical_key,
    _extend,
    _grow_ball,
    _level,
    _longest,
    _sections,
    GroupElement,
    OmegaMismatchError,
    UnsupportedOmegaError,
    apply,
    ball_sections,
    canonical_key,
    decompose,
    element_order,
    enumerate_ball,
    is_trivial,
    reduce_word,
)
from grigcube.cubes import CubeVertex
from grigcube.gamma import Ray, ZERO_RAY, line_apply
from grigcube.omega import OmegaSequence

from oracles import (
    _extensions,
    all_strings,
    oracle_action_ball,
    oracle_grow_ball,
    oracle_ball_words,
    oracle_inverse,
    oracle_is_trivial,
    oracle_key,
    oracle_reduce_word,
    oracle_sections,
    oracle_sphere_ball,
    oracle_word,
    word_is_trivial_on_level,
    words_agree_on_level,
)

OM = OmegaSequence.parse(":012")
OM01 = OmegaSequence.parse(":01")

ORACLE_OMEGAS = (":012", ":01", ":02", ":12", "2:01", "0:12", "21:0102")


# strategy for arbitrary (unreduced) generator words
raw_words = st.text(alphabet="abcd", max_size=10)

# reduced words: built as alternations so reduce_word is not needed
def _alternating(parts):
    out = []
    for p in parts:
        if out and (out[-1] == "a") == (p == "a"):
            continue
        out.append(p)
    return "".join(out)

alternating_words = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), max_size=12
).map(_alternating)


class TestRay:
    def test_canonical(self):
        assert Ray.from_digits("1000").digits == "1"
        assert Ray.from_digits("").digits == ""
        assert Ray.from_digits("0101").digits == "0101"

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            Ray("10")
        with pytest.raises(ValueError):
            Ray("2")

    @pytest.mark.parametrize("digits", ["10", "0x1", "2", "1 1", "01\n1", "x"])
    def test_rejection_names_the_digits(self, digits):
        with pytest.raises(ValueError, match="not a canonical ray"):
            Ray(digits)

    @given(st.text(alphabet="012x", max_size=8))
    def test_validation_is_the_set_test(self, digits):
        canonical = not digits or (set(digits) <= {"0", "1"} and digits.endswith("1"))
        try:
            Ray(digits)
        except ValueError:
            assert not canonical
        else:
            assert canonical

    def test_text_roundtrip(self):
        for text in ("0inf", "1", "01", "1101"):
            assert Ray.parse(text).text() == text

    def test_zero_ray(self):
        assert ZERO_RAY.text() == "0inf"
        assert Ray.parse("0inf") == ZERO_RAY


class TestReduce:
    def test_two_letter_merges(self):
        # [DERIVED from the level-12 oracle below]
        assert reduce_word("bc") == "d"
        assert reduce_word("cb") == "d"
        assert reduce_word("cd") == "b"
        assert reduce_word("dc") == "b"
        assert reduce_word("bd") == "c"
        assert reduce_word("db") == "c"

    def test_merges_agree_with_oracle(self):
        for pair, single in [("bc", "d"), ("cd", "b"), ("db", "c")]:
            assert words_agree_on_level(pair, single, OM, 12)
            assert words_agree_on_level(pair[::-1], single, OM, 12)

    def test_squares_vanish(self):
        for letter in "abcd":
            assert reduce_word(letter * 2) == ""
            assert word_is_trivial_on_level(letter * 2, OM, 12)

    def test_bcd_is_trivial(self):
        assert reduce_word("bcd") == ""
        assert word_is_trivial_on_level("bcd", OM, 12)

    def test_cascading(self):
        assert reduce_word("abccba") == ""
        assert reduce_word("abcd") == "a"
        assert reduce_word("ababaa") == "abab"

    def test_invalid_letter(self):
        with pytest.raises(ValueError, match="invalid generator 'e'"):
            reduce_word("abe")
        with pytest.raises(ValueError, match="invalid generator 'x'"):
            reduce_word("bbxe")

    @given(raw_words)
    def test_result_alternates(self, word):
        reduced = reduce_word(word)
        assert "aa" not in reduced
        for x, y in zip(reduced, reduced[1:]):
            assert "a" in (x, y)

    @given(raw_words)
    def test_idempotent(self, word):
        reduced = reduce_word(word)
        assert reduce_word(reduced) == reduced

    @given(raw_words)
    @settings(max_examples=40)
    def test_reduction_preserves_action(self, word):
        reduced = reduce_word(word)
        assert words_agree_on_level(word, reduced, OM, 8)

    @given(st.text(alphabet="abcd", max_size=60))
    def test_matches_oracle(self, word):
        assert reduce_word(word) == oracle_reduce_word(word)

    def test_long_word_matches_oracle(self):
        # the stack rewrites only its top, so a word of 10^5 letters is
        # cheap; the oracle copies its reduced prefix at every letter
        rng = Random(23)
        word = "".join(rng.choice("abcd") for _ in range(10 ** 5))
        assert reduce_word(word) == oracle_reduce_word(word)


# one value of each immutable type of the package, built by its constructor
VALUES = (
    OmegaSequence("0", "120"),
    Ray("101"),
    GroupElement.from_word(OM, "abacad"),
    CubeVertex(frozenset({0, 3})),
)


class TestSlots:
    """Values are tuples: no instance dictionary, frozen, hashable and
    picklable."""

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
        assert type(copy) is type(value) and tuple(copy) == tuple(value)

    def test_sequence_unpickles_normalised(self):
        copy = pickle.loads(pickle.dumps(OmegaSequence("0", "120")))
        assert str(copy) == ":012" and copy == OM

    def test_equality_and_hash_by_reduced_word(self):
        g = GroupElement.from_word(OM, "abbacd")
        h = GroupElement.from_word(OM, "b")
        assert g == h and hash(g) == hash(h)
        assert len({g, h, GroupElement(OM, "b")}) == 1
        assert GroupElement(OM, "b") != GroupElement(OM01, "b")
        assert GroupElement(OM, "b") != GroupElement(OM, "c")


class TestProduct:
    @given(alternating_words, alternating_words)
    def test_join_at_the_seam_matches_reduce_word(self, u, v):
        g, h = GroupElement(OM, u), GroupElement(OM, v)
        # the inverse of g cancels all of g, and g^-1 h cancels part of it
        rest = GroupElement.from_word(OM, u[::-1] + v)
        for right in (h, oracle_inverse(g), rest):
            assert g * right == GroupElement.from_word(OM, g.word + right.word)
        assert (g * oracle_inverse(g)).word == ""

    def test_every_pair_of_short_words_matches_reduce_word(self):
        # every alternating word of at most 6 letters times every other:
        # the product rewrites by _append alone, and the rewriting reads
        # no sequence, so one sequence covers them all
        words = sphere = [""]
        for _ in range(6):
            sphere = [w + s for w in sphere for s in _extensions(w)]
            words = words + sphere
        assert len(words) == 131
        elements = [GroupElement(OM, w) for w in words]
        for g in elements:
            for h in elements:
                assert (g * h).word == reduce_word(g.word + h.word), (g.word, h.word)


class TestElementValidation:
    @given(st.text(alphabet="abcdx", max_size=10))
    def test_search_agrees_with_reduce_word(self, word):
        try:
            reduced = reduce_word(word) == word
        except ValueError:
            reduced = False
        assert (_NOT_REDUCED.search(word) is None) == reduced

    def test_messages(self):
        with pytest.raises(ValueError, match="invalid generator 'x'"):
            GroupElement(OM, "axb")
        with pytest.raises(ValueError, match="is not reduced"):
            GroupElement(OM, "abca")
        assert GroupElement(OM, "abacad").word == "abacad"


class TestApply:
    def test_a_flips_first_digit(self):
        a = GroupElement.from_word(OM, "a")
        assert apply(a, ZERO_RAY).text() == "1"
        assert apply(a, Ray.parse("1")).text() == "0inf"
        assert apply(a, Ray.parse("01")).text() == "11"

    def test_letter_examples(self):
        # over (012)^inf: omega_1 = 0, omega_2 = 1, omega_3 = 2
        b = GroupElement.from_word(OM, "b")
        c = GroupElement.from_word(OM, "c")
        d = GroupElement.from_word(OM, "d")
        assert apply(d, ZERO_RAY) == ZERO_RAY
        assert apply(b, ZERO_RAY).text() == "01"
        assert apply(c, ZERO_RAY).text() == "01"
        assert apply(c, Ray.parse("1")).text() == "1"
        assert apply(b, Ray.parse("1")).text() == "101"
        assert apply(d, Ray.parse("1")).text() == "101"
        assert apply(b, Ray.parse("11")).text() == "11"
        assert apply(c, Ray.parse("11")).text() == "1101"

    def test_letter_moving_deep_ray_back(self):
        # the letter fixing nothing at depth 2 sends 1010^inf to 10^inf
        # whenever omega_2 is not its own symbol
        for text in (":012", ":01", ":02", ":12"):
            om = OmegaSequence.parse(text)
            d = GroupElement.from_word(om, "d")
            if om.at(2) != "0":
                assert apply(d, Ray.parse("101")).text() == "1"
        om = OmegaSequence.parse("2:01")
        assert om.at(2) == "0"
        assert apply(GroupElement.from_word(om, "d"), Ray.parse("101")).text() == "101"

    @given(alternating_words, st.text(alphabet="01", max_size=6))
    @settings(max_examples=150)
    def test_agrees_with_recursive_oracle(self, word, digits):
        g = GroupElement.from_word(OM, word)
        ray = Ray.from_digits(digits)
        level = len(digits) + 2 * len(word) + 4
        padded = ray.digits.ljust(level, "0")
        expect = oracle_word(g.word, OM, padded)
        assert apply(g, ray) == Ray.from_digits(expect)

    @given(alternating_words, st.text(alphabet="01", max_size=6))
    @settings(max_examples=60)
    def test_action_is_a_homomorphism(self, word, digits):
        g = GroupElement.from_word(OM, word)
        h = GroupElement.from_word(OM, word[::-1])
        x = Ray.from_digits(digits)
        assert apply(g * h, x) == apply(g, apply(h, x))

    @given(alternating_words, st.text(alphabet="01", max_size=6))
    @settings(max_examples=60)
    def test_inverse_undoes(self, word, digits):
        g = GroupElement.from_word(OM, word)
        x = Ray.from_digits(digits)
        assert apply(oracle_inverse(g), apply(g, x)) == x

    def test_omega_mismatch(self):
        g = GroupElement.from_word(OM, "ab")
        h = GroupElement.from_word(OM01, "ab")
        with pytest.raises(OmegaMismatchError):
            g * h
        with pytest.raises(OmegaMismatchError):
            h * g


class TestDecompose:
    def test_generator_table(self):
        # over (012)^inf the first symbol is 0, so d is passive
        cases = {
            "a": (True, "", ""),
            "b": (False, "a", "b"),
            "c": (False, "a", "c"),
            "d": (False, "", "d"),
        }
        for word, (swap, left, right) in cases.items():
            s, g0, g1 = decompose(GroupElement.from_word(OM, word))
            assert (s, g0.word, g1.word) == (swap, left, right)
            assert g0.omega == OM.shift() and g1.omega == OM.shift()

    def test_ad_example(self):
        s, g0, g1 = decompose(GroupElement.from_word(OM, "ad"))
        assert (s, g0.word, g1.word) == (True, "", "d")

    @given(alternating_words, st.text(alphabet="01", min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_consistent_with_action(self, word, digits):
        g = GroupElement.from_word(OM, word)
        swap, g0, g1 = decompose(g)
        x = Ray.from_digits(digits[1:])
        first = digits[0]
        image = apply(g, Ray.from_digits(first + x.digits.ljust(len(digits) - 1, "0")))
        piece = apply((g0, g1)[int(first)], x)
        flipped = str(1 - int(first)) if swap else first
        assert image == Ray.from_digits(flipped + piece.digits.ljust(max(len(digits) - 1, len(piece.digits)), "0"))

    def test_restriction_addresses(self):
        # the restriction at a vertex u, by repeated decompose along u,
        # acts below u as g does: g(u + x) = g(u) + g_u(x)
        for word in ("abab", "adacab", "bacada"):
            for u in ("", "0", "1", "00", "01", "10", "11"):
                g_u = GroupElement.from_word(OM, word)
                for bit in u:
                    g_u = decompose(g_u)[1 + int(bit)]
                image = oracle_word(word, OM, u)
                for x in all_strings(5):
                    assert oracle_word(word, OM, u + x) == (
                        image + oracle_word(g_u.word, g_u.omega, x))

    def test_swap_matches_a_parity(self):
        for g in enumerate_ball(OM, 7):
            assert decompose(g)[0] == (g.word.count("a") % 2 == 1)


class TestContraction:
    def test_exhaustive_small(self):
        for g in enumerate_ball(OM, 13):
            if g.length < 2:
                continue
            _, g0, g1 = decompose(g)
            assert 2 * g0.length <= g.length + 1
            assert 2 * g1.length <= g.length + 1

    @given(st.integers(min_value=14, max_value=20), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_sampled_long_words(self, length, rng):
        word = []
        for i in range(length):
            word.append(rng.choice("bcd") if i % 2 else "a")
        g = GroupElement.from_word(OM, "".join(word))
        if g.length < 2:
            return
        _, g0, g1 = decompose(g)
        assert 2 * g0.length <= g.length + 1
        assert 2 * g1.length <= g.length + 1


class TestTriviality:
    def test_known_trivial_words(self):
        # [DERIVED] (ad)^4 = 1 over (012)^inf; checked on level 16
        assert word_is_trivial_on_level("adadadad", OM, 16)
        assert is_trivial(GroupElement.from_word(OM, "adadadad"))
        assert not is_trivial(GroupElement.from_word(OM, "adad"))
        assert not is_trivial(GroupElement.from_word(OM, "ad"))

    def test_not_abelian(self):
        # [DERIVED] ad != da over (012)^inf; they differ on level 12
        assert not words_agree_on_level("ad", "da", OM, 12)
        g = GroupElement.from_word(OM, "ad")
        h = GroupElement.from_word(OM, "da")
        assert not is_trivial(g * oracle_inverse(h))

    def test_identity(self):
        assert is_trivial(GroupElement.identity(OM))

    @given(alternating_words)
    @settings(max_examples=60)
    def test_matches_oracle_on_level_10(self, word):
        g = GroupElement.from_word(OM, word)
        if is_trivial(g):
            assert word_is_trivial_on_level(g.word, OM, 10)

    @given(alternating_words)
    @settings(max_examples=60)
    def test_conjugation_preserves_triviality(self, word):
        g = GroupElement.from_word(OM, word)
        a = GroupElement.from_word(OM, "a")
        assert is_trivial(g) == is_trivial(a * g * a)

    def test_element_order(self):
        assert element_order(GroupElement.identity(OM)) == 1
        assert element_order(GroupElement.from_word(OM, "a")) == 2
        assert element_order(GroupElement.from_word(OM, "ad")) == 4
        assert element_order(GroupElement.from_word(OM, "ab")) == 16

    def test_element_order_is_none_past_64(self):
        # over :0 the letter d is trivial and b equals c, and ab has
        # infinite order
        om = OmegaSequence.parse(":0")
        assert element_order(GroupElement.from_word(om, "ab")) is None


class TestTrivialLetters:
    """Over ``:s`` the letter whose symbol is s is the identity."""

    def test_facts_over_constant_sequence(self):
        om = OmegaSequence.parse(":0")
        d, b, c = (GroupElement(om, x) for x in "dbc")
        assert all(line_apply(om, "d", t) == t for t in range(-5000, 5001))
        assert is_trivial(d)
        assert all(line_apply(om, "b", t) == line_apply(om, "c", t)
                   for t in range(-5000, 5001))
        assert is_trivial(b * oracle_inverse(c))
        assert element_order(GroupElement(om, "ad")) == 2

    def test_only_the_constant_letter(self):
        for text, letter in ((":0", "d"), (":1", "c"), (":2", "b")):
            om = OmegaSequence.parse(text)
            assert [x for x in "abcd" if is_trivial(GroupElement(om, x))] == [letter]
            assert [x for x in "abcd" if _canonical_key(om, x) == "1"] == [letter]
        for text in ("1:0", "0:1", ":01", ":012"):
            om = OmegaSequence.parse(text)
            assert not any(is_trivial(GroupElement(om, x)) for x in "abcd")
            assert not any(_canonical_key(om, x) == "1" for x in "abcd")

    @pytest.mark.parametrize(
        "text", (":0", ":1", ":2", "1:0", "0:1", ":001", ":0011", "00:12") + ORACLE_OMEGAS
    )
    def test_trivial_exactly_when_action_is(self, text):
        # trivial words fix the window and level 10; a word that fixes
        # the window is trivial on these samples
        om = OmegaSequence.parse(text)
        rng = Random(0)
        for _ in range(300):
            word = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            g = GroupElement.from_word(om, word)
            on_window = all(line_apply(om, g.word, t) == t for t in range(-512, 513))
            if is_trivial(g):
                assert on_window and word_is_trivial_on_level(g.word, om, 10), g.word
            else:
                assert not on_window, g.word
            assert is_trivial(g) == oracle_is_trivial(om, g.word), g.word
        # reduced words of up to 40 letters and their powers, about a
        # quarter of them trivial, against the oracle's own recursion
        for _ in range(300):
            root = _alternating(rng.choice("abcd") for _ in range(rng.randint(1, 80)))
            for k in (1, 2, 4, 8):
                word = reduce_word(root[:40] * k)
                if len(word) > 40:
                    break
                assert is_trivial(GroupElement(om, word)) == oracle_is_trivial(om, word), word


class TestCanonicalKey:
    def test_identity_and_letters(self):
        assert canonical_key(GroupElement.identity(OM)) == "1"
        for letter in "bcd":
            assert canonical_key(GroupElement.from_word(OM, letter)) == letter

    def test_key_of_a(self):
        assert canonical_key(GroupElement.from_word(OM, "a")) == (True, "1", "1")

    def test_long_word_equal_to_letter(self):
        # adadada acts as d over (012)^inf because (ad)^4 = 1
        assert words_agree_on_level("adadada", "d", OM, 12)
        assert canonical_key(GroupElement.from_word(OM, "adadada")) == "d"

    @given(alternating_words, alternating_words)
    @settings(max_examples=80)
    def test_key_collision_is_equality(self, v, w):
        g = GroupElement.from_word(OM, v)
        h = GroupElement.from_word(OM, w)
        same = oracle_is_trivial(OM, (g * oracle_inverse(h)).word)
        assert (canonical_key(g) == canonical_key(h)) == same

    def test_requires_repetition_free(self):
        om = OmegaSequence.parse(":0")
        with pytest.raises(UnsupportedOmegaError):
            canonical_key(GroupElement.from_word(om, "ab"))
        with pytest.raises(UnsupportedOmegaError):
            enumerate_ball(om, 4)


class TestBall:
    def test_small_counts(self):
        # [DERIVED] distinct elements by canonical word length, frozen
        # after cross-checking pairwise inequality on level 10
        assert len(enumerate_ball(OM, 0)) == 1
        assert len(enumerate_ball(OM, 1)) == 5
        assert len(enumerate_ball(OM, 2)) == 11
        assert len(enumerate_ball(OM, 3)) == 23

    def test_ball_distinct_on_level(self):
        ball = enumerate_ball(OM, 3)
        words = [g.word for g in ball]
        for i, v in enumerate(words):
            for w in words[i + 1:]:
                assert not words_agree_on_level(v, w, OM, 10)

    def test_inverse_closed(self):
        ball = enumerate_ball(OM, 8)
        keys = {canonical_key(g) for g in ball}
        for g in ball:
            assert canonical_key(oracle_inverse(g)) in keys

    def test_nested(self):
        small = {g.word for g in enumerate_ball(OM, 4)}
        big = {g.word for g in enumerate_ball(OM, 6)}
        assert small <= big


class TestAgainstOracle:
    """Sphere growth with syntactic keys against the word-BFS ball and the
    semantic keys of tests/oracles.py."""

    @pytest.mark.parametrize("text", ORACLE_OMEGAS)
    @pytest.mark.parametrize("n", (0, 1, 2, 5, 9, 13, 15))
    def test_ball_words_match_oracle(self, text, n):
        om = OmegaSequence.parse(text)
        words = tuple(g.word for g in enumerate_ball(om, n))
        # the ball builds its elements without the constructor's check
        assert not any(_NOT_REDUCED.search(word) for word in words)
        for oracle in (oracle_ball_words, oracle_sphere_ball):
            assert words == oracle(om, n), oracle.__name__

    @pytest.mark.parametrize("text", ORACLE_OMEGAS)
    @pytest.mark.parametrize("n", (0, 1, 5, 9, 12))
    def test_ball_words_match_action(self, text, n):
        # dedupe by the action on level 10 shares no code with the key
        om = OmegaSequence.parse(text)
        words = tuple(g.word for g in enumerate_ball(om, n))
        assert words == oracle_action_ball(om, n)

    @pytest.mark.parametrize("text", ORACLE_OMEGAS)
    def test_only_the_first_element_is_trivial(self, text):
        # the faithful suite skips the identity by its position
        om = OmegaSequence.parse(text)
        ball = enumerate_ball(om, 9)
        assert [i for i, g in enumerate(ball) if oracle_is_trivial(om, g.word)] == [0]

    @pytest.mark.parametrize("text", (":001", ":0112", "1:12", ":0011", "00:12"))
    def test_ungated_key_matches_action_on_two_symbol_periods(self, text):
        # where the gate could be relaxed: each period holds two symbols
        om = OmegaSequence.parse(text)
        assert oracle_ball_words(om, 9, key=_canonical_key) == oracle_action_ball(om, 9)

    @pytest.mark.parametrize("text, action, key", [
        (":0", 19, 154),
        ("1:0", 179, 342),
        ("0:1", 179, 342),
    ])
    def test_ungated_key_splits_elements_on_constant_tails(self, text, action, key):
        # on an eventually constant sequence b and c coincide deep down,
        # and the key, which reads its leaves off the syntax, tells apart
        # words of one automorphism
        om = OmegaSequence.parse(text)
        assert len(oracle_action_ball(om, 9)) == action
        assert len(oracle_ball_words(om, 9, key=_canonical_key)) == key

    @pytest.mark.parametrize("text", (":012", "2:01"))
    def test_product_keys_match_oracle_and_equality(self, text):
        om = OmegaSequence.parse(text)
        ball = enumerate_ball(om, 6)
        products = [g * h for g in ball for h in ball]
        by_key: dict = {}
        by_oracle: dict = {}
        for i, p in enumerate(products):
            by_key.setdefault(canonical_key(p), []).append(i)
            by_oracle.setdefault(oracle_key(om, p.word), []).append(i)
        assert sorted(by_key.values()) == sorted(by_oracle.values())
        # the oracle word problem against the first product of the same
        # class and of another class picked by a fixed stride
        first = {i: members[0] for members in by_key.values() for i in members}
        heads = [members[0] for members in by_key.values()]
        for i, p in enumerate(products):
            for j in (first[i], heads[i * 7919 % len(heads)]):
                q = products[j]
                same_key = canonical_key(p) == canonical_key(q)
                assert same_key == (oracle_key(om, p.word) == oracle_key(om, q.word))
                assert same_key == oracle_is_trivial(om, (p * oracle_inverse(q)).word)


def _repetition_free(symbols):
    """preperiod:period from a first symbol, a rotation step per later
    symbol and the length of the preperiod; adjacent symbols differ, and
    a sequence whose period repeats across its wrap is filtered out."""
    first, turns, cut = symbols
    digits = [first]
    for turn in turns:
        digits.append((digits[-1] + turn) % 3)
    text = "".join(map(str, digits))
    return OmegaSequence(text[:min(cut, len(text) - 2)], text[min(cut, len(text) - 2):])


repetition_free_omegas = st.tuples(
    st.integers(0, 2), st.lists(st.sampled_from((1, 2)), min_size=1, max_size=6), st.integers(0, 3),
).map(_repetition_free).filter(OmegaSequence.is_repetition_free)


def _assert_grows_as_oracle(om, n):
    """_grow_ball's words, sphere strings and spans against
    oracle_grow_ball: the k-letter pieces of sphere k are the words of
    that sphere's oracle elements, in order."""
    words, spheres, spans = _grow_ball(om, n)
    elements, ends, oracle_spans = oracle_grow_ball(om, n)
    assert words == [g.word for g in elements]
    assert spans == oracle_spans
    assert len(spheres) == len(ends) == n + 1
    for k, (sphere, start, end) in enumerate(zip(spheres, (0, *ends), ends)):
        oracle_words = [g.word for g in elements[start:end]]
        pieces = [sphere[i:i + k] for i in range(0, len(sphere), k)] if k else [sphere]
        assert pieces == oracle_words, k


class TestGrowBall:
    """The ball grown on interned restriction words against the growth
    that keys every candidate's restriction words and combines the keys."""

    @pytest.mark.parametrize("text", ORACLE_OMEGAS)
    @pytest.mark.parametrize("n", (0, 1, 2, 5, 9, 13))
    def test_matches_oracle_growth(self, text, n, cold_key_table):
        _assert_grows_as_oracle(OmegaSequence.parse(text), n)

    @given(om=repetition_free_omegas, n=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_growth_on_any_sequence(self, om, n):
        _canonical_key.cache_clear()
        _assert_grows_as_oracle(om, n)

    def test_spheres_are_small(self, cold_key_table):
        # one string per sphere: 65,548 bytes for ball(15) over :012 when
        # this was written, where one string per word took 308,441
        words, spheres, _ = _grow_ball(OM, 15)
        assert "".join(spheres) == "".join(words)
        assert sum(map(sys.getsizeof, spheres)) <= 70_000

    def test_leaves_no_cyclic_garbage(self, cold_key_table):
        # the tables of a grow are freed by reference counting when it
        # returns; index tables that pointed at each other would wait for
        # the collector
        gc.collect()
        gc.disable()
        try:
            for text in (":012", ":01", "2:01"):
                _grow_ball(OmegaSequence.parse(text), 12)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSectionsStep:
    """The state that enumerate_ball carries for a word, extended by one
    letter, against the wreath recursion that reduces each restriction
    word once, over sequences with and without repetition."""

    @pytest.mark.parametrize("text", ORACLE_OMEGAS + (":0", "1:0"))
    @given(
        word=st.lists(st.sampled_from("abcd"), max_size=20).map(_alternating),
        letter=st.sampled_from("abcd"),
    )
    @settings(max_examples=60)
    def test_extend_matches_oracle_sections(self, text, word, letter):
        om = OmegaSequence.parse(text)
        swap, _, left, right = _sections(om, word)
        assert (swap, left, right) == oracle_sections(om, word)
        extended = _extend(_level(om)[1], swap, left, right, letter)
        assert extended == oracle_sections(om, word + letter)


class TestBallSections:
    """The spans recorded while the ball grows against the wreath
    recursion that reduces each restriction word once."""

    @pytest.mark.parametrize("text", ORACLE_OMEGAS)
    @pytest.mark.parametrize("n", (0, 1, 5, 9, 13))
    def test_matches_ball_and_oracle_sections(self, text, n):
        om = OmegaSequence.parse(text)
        rows = list(ball_sections(om, n))
        assert tuple(g for g, _ in rows) == enumerate_ball(om, n)
        for g, span in rows:
            swap, left, right = oracle_sections(om, g.word)
            assert span == (0 if swap else max(len(left), len(right))), g.word

    @pytest.mark.parametrize("text", DEFAULT_OMEGAS)
    def test_shorter_spans_are_cold_spans(self, text, cold_key_table):
        # read after ball(12), the spans of each ball(n) are those of the
        # cold ball(n)
        om = OmegaSequence.parse(text)
        enumerate_ball(om, 12)
        shorter = [list(ball_sections(om, n)) for n in range(13)]
        assert shorter == [_cold_sections(om, n) for n in range(13)]

    def test_requires_repetition_free(self):
        with pytest.raises(UnsupportedOmegaError):
            next(ball_sections(OmegaSequence.parse(":0"), 3))


def test_warm_keys_read_no_symbol(monkeypatch):
    # the repetition-free gate is decided on construction, so a key that
    # the table already holds reads no symbol of the sequence
    ball = enumerate_ball(OM, 8)
    for g in ball:
        canonical_key(g)
    calls = []
    at = OmegaSequence.at
    monkeypatch.setattr(OmegaSequence, "at", lambda self, i: calls.append(i) or at(self, i))
    keys = {canonical_key(g) for g in ball}
    assert len(keys) == len(ball)
    assert calls == []


@pytest.fixture
def cold_key_table():
    # the kept longest balls too, or a shorter ball would be a slice of
    # one that an earlier test enumerated
    _longest.clear()
    _canonical_key.cache_clear()
    yield
    _longest.clear()
    _canonical_key.cache_clear()


def test_candidate_keys_not_memoised(cold_key_table):
    # only restriction words enter the key table, not one entry per
    # candidate: 165 entries for 1,487 elements when this was written
    ball = enumerate_ball(OM, 12)
    assert _canonical_key.cache_info().currsize < len(ball)


def _cold_ball(om, n):
    _longest.clear()
    return enumerate_ball(om, n)


def _cold_sections(om, n):
    _longest.clear()
    return list(ball_sections(om, n))


@pytest.mark.parametrize("text", DEFAULT_OMEGAS)
def test_shorter_balls_are_cold_balls(text, cold_key_table):
    # read after ball(12), each ball(n) is the cold ball(n), word for
    # word and in order
    om = OmegaSequence.parse(text)
    enumerate_ball(om, 12)
    shorter = [enumerate_ball(om, n) for n in range(13)]
    assert shorter == [_cold_ball(om, n) for n in range(13)]


@pytest.mark.parametrize("length", [-1, -2])
def test_negative_ball_length_is_rejected(length, cold_key_table):
    # cold, the sphere ends were an IndexError; warm, a slice of them
    # read the ball from its end
    with pytest.raises(ValueError, match="negative"):
        enumerate_ball(OM01, length)
    enumerate_ball(OM, 3)
    with pytest.raises(ValueError, match="negative"):
        enumerate_ball(OM, length)
    assert len(enumerate_ball(OM, 3)) == 23


@pytest.mark.parametrize("text", ORACLE_OMEGAS)
def test_warm_reads_are_cold_reads(text, cold_key_table):
    # the read that grows a ball returns the grower's words; a later
    # read slices the same words out of the sphere strings
    om = OmegaSequence.parse(text)
    cold = _ball_words(om, 15)
    assert _ball_words(om, 15) == cold
    assert enumerate_ball(om, 15) == tuple(GroupElement(om, word) for word in cold)


def test_a_longer_ball_after_a_shorter_one_is_cold(cold_key_table):
    enumerate_ball(OM, 8)
    assert enumerate_ball(OM, 12) == _cold_ball(OM, 12)


def test_default_check_enumerates_one_ball_per_sequence(
        monkeypatch, capsys, cold_key_table):
    # the suites ask for lengths 12, 10 and 8; only the first enumerates
    grown = []
    grow = grigcube.elements._grow_ball

    def counted(omega, max_len):
        grown.append((str(omega), max_len))
        return grow(omega, max_len)

    monkeypatch.setattr(grigcube.elements, "_grow_ball", counted)
    assert main(["check"]) == 0
    capsys.readouterr()
    assert sorted(grown) == sorted((text, 12) for text in DEFAULT_OMEGAS)


def test_reduction_suite_walks_one_ball(monkeypatch, capsys, cold_key_table):
    # a passing reduction suite enumerates one ball, grows it once and
    # decomposes no element: the spans come with the ball
    calls = []

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(name) or original(*args))

    for name in ("enumerate_ball", "_grow_ball", "decompose"):
        count(grigcube.elements, name)
    count(grigcube.checks, "decompose")
    assert main(["check", "--suite", "reduction", "--omega", ":012", "--max-len", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert sorted(calls) == ["_grow_ball", "enumerate_ball"]


def test_ball_table_keeps_no_element(capsys, cold_key_table):
    # the ball table holds one string per sphere: a reduction suite
    # grows the balls and a faithful suite walks them, and no element
    # outlives the runs for the collector to track and the exit to free
    gc.collect()
    before = sum(type(o) is GroupElement for o in gc.get_objects())
    assert main(["check", "--suite", "reduction", "--max-len", "12"]) == 0
    assert main(["check", "--suite", "faithful"]) == 0
    capsys.readouterr()
    gc.collect()
    after = sum(type(o) is GroupElement for o in gc.get_objects())
    assert after - before == 0
    # each value is one str per sphere 0 to 12 and the bytes of the spans
    assert len(_longest) == len(DEFAULT_OMEGAS)
    for om, (spheres, spans) in _longest.items():
        assert type(spheres) is tuple and len(spheres) == 13, om
        assert all(type(sphere) is str for sphere in spheres), om
        assert type(spans) is bytes
        assert len(spans) == 1 + sum(len(spheres[k]) // k for k in range(1, 13)), om
