"""Eventually periodic sequences over {0, 1, 2} that parametrise the groups.

A sequence is written ``preperiod:period`` in text form, so ``:012`` is
(012)(012)... and ``2:01`` is 2(01)(01)...  Each of the generator letters
b, c, d owns one symbol: the letter is inactive on the left subtree at a
level exactly when the sequence carries its symbol there.
"""

from __future__ import annotations

from collections import namedtuple

ALPHABET = "012"

LETTER_SYMBOL = {"b": "2", "c": "1", "d": "0"}
SYMBOL_LETTER = {symbol: letter for letter, symbol in LETTER_SYMBOL.items()}

# the sequences that ``check`` runs when none is given
DEFAULT_OMEGAS = (":012", ":01", ":02", ":12", "2:01")

# the suites of checks, in the order ``check --suite all`` runs them;
# defined here so that the CLI parser offers them without loading checks
SUITE_NAMES = ("prefix", "reduction", "projections", "stab", "commensuration",
               "faithful", "bound")


class OmegaParseError(ValueError):
    """Raised for malformed sequence descriptions."""


class UnsupportedOmegaError(ValueError):
    """Raised where distinct letters must be distinct automorphisms, which
    needs a repetition-free sequence; elements._require_distinct_letters
    is the one place that raises it."""


def _primitive_root(period: str) -> str:
    for d in range(1, len(period)):
        if len(period) % d == 0 and period == period[:d] * (len(period) // d):
            return period[:d]
    return period


class OmegaSequence(namedtuple("OmegaSequence", "preperiod period")):
    """An eventually periodic sequence ``preperiod + period * infinity``.

    Instances normalise themselves on construction: the period is made
    primitive and any preperiod tail that already matches the period is
    absorbed into a rotation, so two descriptions of the same sequence
    compare equal (``0:120`` becomes ``:012``).  A sequence is the pair
    of its two strings, so it hashes and compares as that tuple, and
    unpickling normalises again.
    """

    __slots__ = ()

    def __new__(cls, preperiod: str, period: str) -> "OmegaSequence":
        if not period:
            raise OmegaParseError("period must be non-empty")
        for ch in preperiod + period:
            if ch not in ALPHABET:
                raise OmegaParseError(f"invalid symbol {ch!r}, expected one of 0, 1, 2")
        period = _primitive_root(period)
        while preperiod and preperiod[-1] == period[-1]:
            preperiod = preperiod[:-1]
            period = period[-1] + period[:-1]
        return super().__new__(cls, preperiod, period)

    @classmethod
    def parse(cls, text: str) -> "OmegaSequence":
        if ":" not in text:
            raise OmegaParseError(f"expected 'preperiod:period', got {text!r}")
        preperiod, _, period = text.partition(":")
        return cls(preperiod, period)

    def __str__(self) -> str:
        return f"{self.preperiod}:{self.period}"

    def at(self, i: int) -> str:
        """Symbol at 1-based position i."""
        if i < 1:
            raise IndexError("sequence positions are 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def shift(self) -> "OmegaSequence":
        """The sequence with its first symbol dropped."""
        if self.preperiod:
            return OmegaSequence(self.preperiod[1:], self.period)
        return OmegaSequence("", self.period[1:] + self.period[0])

    def is_repetition_free(self) -> bool:
        """True when no symbol appears twice in a row."""
        # every adjacent pair of the sequence occurs in this prefix
        shown = self.preperiod + self.period + self.period[0]
        return all(x != y for x, y in zip(shown, shown[1:]))


def passive_letter(omega: OmegaSequence, letter: str) -> str:
    """First-level action of b, c or d on the left subtree: "a" or "1".

    The letter acts as the identity there exactly when the first symbol
    of the sequence is the letter's own symbol.
    """
    if letter not in LETTER_SYMBOL:
        raise ValueError(f"expected one of b, c, d, got {letter!r}")
    return "1" if omega.at(1) == LETTER_SYMBOL[letter] else "a"


def fixing_letter(omega: OmegaSequence, n: int) -> str:
    """The unique letter among b, c, d that fixes the ray 1^n 0^inf."""
    return SYMBOL_LETTER[omega.at(n)]
