"""Independent reference implementations used only by the tests.

The production code applies generators to rays with an iterative digit
scan. The functions here instead follow the recursive definition on
finite binary strings, so agreement between the two is meaningful.

The ball enumeration here extends every alternating word and keys it
with semantic leaf tests through the word problem; the production code
grows each sphere from the last one's representatives and reads its
leaves off the syntax.

The Schreier line here is found by breadth-first search over the ray
action, and the half-line scans apply words to rays; the production
code gives each ray its integer coordinate in closed form.  The defect
δ(g) = Γ₊ Δ gΓ₊ is found here by scanning a window of the line, on rays
or on integers; the production code builds it letter by letter from
its cocycle and reads every half-line predicate off it.
"""

from functools import lru_cache

from grigcube.elements import GroupElement, Ray, ZERO_RAY, apply, decompose, is_trivial
from grigcube.gamma import in_gamma_plus, in_gamma_plus_tilde, line_apply, neighbors
from grigcube.omega import LETTER_SYMBOL, OmegaSequence


def oracle_letter(letter: str, omega: OmegaSequence, s: str) -> str:
    """Apply one generator to a finite string, straight from the
    recursive definition."""
    if not s:
        return s
    if letter == "a":
        return ("1" if s[0] == "0" else "0") + s[1:]
    if s[0] == "1":
        return "1" + oracle_letter(letter, omega.shift(), s[1:])
    if omega.at(1) == LETTER_SYMBOL[letter]:
        return s
    return "0" + oracle_letter("a", omega, s[1:])


def oracle_word(word: str, omega: OmegaSequence, s: str) -> str:
    """Apply a word to a finite string, rightmost letter first."""
    for letter in reversed(word):
        s = oracle_letter(letter, omega, s)
    return s


def all_strings(level: int):
    for n in range(2 ** level):
        yield format(n, f"0{level}b") if level else ""


def words_agree_on_level(v: str, w: str, omega: OmegaSequence, level: int) -> bool:
    return all(
        oracle_word(v, omega, s) == oracle_word(w, omega, s)
        for s in all_strings(level)
    )


def word_is_trivial_on_level(word: str, omega: OmegaSequence, level: int) -> bool:
    return all(oracle_word(word, omega, s) == s for s in all_strings(level))


@lru_cache(maxsize=None)
def oracle_key(omega: OmegaSequence, word: str):
    """Portrait key whose leaves are decided by the word problem: "1" for
    the trivial element, x for anything equal to the letter x."""
    g = GroupElement.from_word(omega, word)
    if is_trivial(g):
        return "1"
    if len(g.word) == 1 and g.word in "bcd":
        return g.word
    if len(g.word) > 1:
        for letter in "bcd":
            if is_trivial(GroupElement.from_word(omega, g.word + letter)):
                return letter
    swap, g0, g1 = decompose(g)
    return swap, oracle_key(g0.omega, g0.word), oracle_key(g1.omega, g1.word)


def oracle_ball_words(omega: OmegaSequence, max_len: int) -> tuple[str, ...]:
    """Representative words of the ball, by breadth-first search over every
    alternating word, the first word of each oracle key kept."""
    seen = set()
    found = []
    words = [""]
    for length in range(max_len + 1):
        if length:
            words = [w + s for w in words
                     for s in ("abcd" if not w else "bcd" if w[-1] == "a" else "a")]
        for word in words:
            key = oracle_key(omega, word)
            if key not in seen:
                seen.add(key)
                found.append(word)
    return tuple(found)


def oracle_ball(omega: OmegaSequence, center: Ray, radius: int) -> set[Ray]:
    """Vertices within the given edge distance of the center, by
    breadth-first search over the four labelled edges of each ray."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        new = []
        for x in frontier:
            for _, y, _ in neighbors(omega, x):
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def oracle_line_coordinates(omega: OmegaSequence, radius: int) -> dict[Ray, int]:
    """Every ray of the search ball around the all-zero ray with its
    signed distance from it, positive on the gamma plus side."""
    coordinates = {ZERO_RAY: 0}
    frontier = [ZERO_RAY]
    for dist in range(1, radius + 1):
        new = []
        for x in frontier:
            for _, y, _ in neighbors(omega, x):
                if y not in coordinates:
                    coordinates[y] = dist if in_gamma_plus(y) else -dist
                    new.append(y)
        frontier = new
    return coordinates


def oracle_commensuration(omega: OmegaSequence, g: GroupElement) -> frozenset:
    """Rays of the search ball of radius length(g) that g moves across
    the half-line boundary, tested on the rays themselves."""
    g_inv = g.inverse()
    return frozenset(
        x
        for x in oracle_ball(omega, ZERO_RAY, g.length)
        if in_gamma_plus(x) != in_gamma_plus(apply(g_inv, x))
    )


def oracle_commensuration_window(omega: OmegaSequence, g: GroupElement) -> frozenset:
    """Coordinates t that g moves across the half-line boundary, t >= 0
    against g^-1 t >= 0, by the integer action over |t| <= length(g).
    Each letter moves a coordinate by at most one, so the window holds
    every crossing."""
    inverse, n = g.inverse().word, g.length
    return frozenset(
        t
        for t in range(-n, n + 1)
        if (t >= 0) != (line_apply(omega, inverse, t) >= 0)
    )


def _scan(omega: OmegaSequence, g: GroupElement, before, after) -> bool:
    return all(
        before(x) == after(apply(g, x))
        for x in oracle_ball(omega, ZERO_RAY, g.length + 1)
    )


def oracle_stabilizes_gamma_plus_tilde(omega: OmegaSequence, g: GroupElement) -> bool:
    return _scan(omega, g.inverse(), in_gamma_plus_tilde, in_gamma_plus_tilde)


def oracle_carries_plus_to_tilde(omega: OmegaSequence, g: GroupElement) -> bool:
    return _scan(omega, g, in_gamma_plus, in_gamma_plus_tilde)


def oracle_carries_tilde_to_plus(omega: OmegaSequence, g: GroupElement) -> bool:
    return _scan(omega, g, in_gamma_plus_tilde, in_gamma_plus)


def oracle_fixed_delta(omega: OmegaSequence, elements) -> frozenset:
    """Rays off the right half-line that some element of the subgroup
    carries onto it, over the search ball of the longest element."""
    radius = max(g.length for g in elements)
    return frozenset(
        x
        for x in oracle_ball(omega, ZERO_RAY, radius)
        if not in_gamma_plus(x)
        and any(in_gamma_plus(apply(h.inverse(), x)) for h in elements)
    )
