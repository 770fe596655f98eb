import pickle

import pytest
from hypothesis import given, strategies as st

from grigcube.cubes import _commensuration
from grigcube.omega import (
    OmegaParseError,
    OmegaSequence,
    fixing_letter,
    passive_letter,
)


def test_parse_roundtrip():
    om = OmegaSequence.parse("2:01")
    assert om.preperiod == "2"
    assert om.period == "01"
    assert str(om) == "2:01"


def test_parse_requires_colon():
    with pytest.raises(OmegaParseError):
        OmegaSequence.parse("012")


def test_parse_rejects_bad_symbols():
    with pytest.raises(OmegaParseError):
        OmegaSequence.parse(":013")
    with pytest.raises(OmegaParseError):
        OmegaSequence.parse("x:01")
    with pytest.raises(OmegaParseError):
        OmegaSequence.parse(":")


def test_primitive_period():
    assert str(OmegaSequence.parse(":012012")) == ":012"
    assert str(OmegaSequence.parse(":000")) == ":0"
    assert str(OmegaSequence.parse(":0101")) == ":01"


def test_preperiod_absorbed_into_period():
    # 0(120)^inf and (012)^inf are the same sequence
    assert str(OmegaSequence.parse("0:120")) == ":012"
    assert str(OmegaSequence.parse("01:201")) == ":012"
    assert str(OmegaSequence.parse("2:012")) == ":201"
    assert str(OmegaSequence.parse("2:01")) == "2:01"


def test_equal_descriptions_hash_equal_and_share_cache_entries():
    first, second = OmegaSequence.parse("0:120"), OmegaSequence.parse(":012")
    assert first == second and hash(first) == hash(second)
    copied = pickle.loads(pickle.dumps(first))
    assert copied == second and hash(copied) == hash(second)
    # a table keyed by a sequence answers a freshly parsed equal one
    word = "abacabadab"
    _commensuration(first, word)
    before = _commensuration.cache_info()
    _commensuration(OmegaSequence.parse(":012"), word)
    after = _commensuration.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_at_is_one_based():
    om = OmegaSequence.parse("2:01")
    assert [om.at(i) for i in range(1, 6)] == ["2", "0", "1", "0", "1"]
    with pytest.raises(IndexError):
        om.at(0)


def test_shift():
    om = OmegaSequence.parse("2:01")
    assert str(om.shift()) == ":01"
    assert str(om.shift().shift()) == ":10"
    assert str(OmegaSequence.parse(":012").shift()) == ":120"


def test_shift_agrees_with_at():
    for text in (":012", "2:01", "10:2", ":0"):
        om = OmegaSequence.parse(text)
        shifted = om.shift()
        assert all(shifted.at(i) == om.at(i + 1) for i in range(1, 12))


def test_repetition_free():
    assert OmegaSequence.parse(":012").is_repetition_free()
    assert OmegaSequence.parse(":01").is_repetition_free()
    assert OmegaSequence.parse("2:01").is_repetition_free()
    assert not OmegaSequence.parse(":0").is_repetition_free()
    assert not OmegaSequence.parse(":0012").is_repetition_free()
    assert not OmegaSequence.parse("00:12").is_repetition_free()


def test_passive_letter():
    om = OmegaSequence.parse(":012")
    # omega_1 = 0 fixes d and lets b, c act as the flip
    assert passive_letter(om, "d") == "1"
    assert passive_letter(om, "b") == "a"
    assert passive_letter(om, "c") == "a"
    with pytest.raises(ValueError):
        passive_letter(om, "a")


def test_fixing_letter():
    om = OmegaSequence.parse(":012")
    assert fixing_letter(om, 1) == "d"
    assert fixing_letter(om, 2) == "c"
    assert fixing_letter(om, 3) == "b"
    assert fixing_letter(om, 4) == "d"


omega_texts = st.builds(
    lambda pre, per: f"{pre}:{per}",
    st.text(alphabet="012", max_size=4),
    st.text(alphabet="012", min_size=1, max_size=4),
)


@given(omega_texts)
def test_canonical_form_is_stable(text):
    om = OmegaSequence.parse(text)
    again = OmegaSequence.parse(str(om))
    assert om == again


@given(omega_texts, st.integers(min_value=1, max_value=30))
def test_canonicalization_preserves_symbols(text, i):
    pre, per = text.split(":")
    raw = pre[i - 1] if i <= len(pre) else per[(i - len(pre) - 1) % len(per)]
    assert OmegaSequence.parse(text).at(i) == raw


@given(omega_texts, st.integers(min_value=1, max_value=20))
def test_shift_iterates_correctly(text, steps):
    om = OmegaSequence.parse(text)
    shifted = om
    for _ in range(steps):
        shifted = shifted.shift()
    assert all(shifted.at(i) == om.at(i + steps) for i in range(1, 10))
