"""Independent reference implementations used only by the tests.

The production code acts on the line coordinates of rays.  Two
references here act on the rays themselves: ``_apply_letter`` is the
iterative digit scan the production code used to run, and
``oracle_letter`` follows the recursive definition on finite binary
strings, so agreement among the three is meaningful.

The word problem here is its own recursion: a word is trivial when it
fixes the first level and both of its restrictions are trivial.  The
production code reads it off the portrait key instead, which is "1"
exactly on the trivial words.  The ball enumeration here extends every
alternating word and keys it with semantic leaf tests through that
word problem, so it shares no recursion with the key; the production
code grows each sphere from the last one's representatives and reads
its leaves off the syntax.  A second reference grows the spheres the same
way but keys each candidate by a pass over its whole word; the
production code carries each representative's restriction words and
extends them by the candidate's last letter.  A third reference carries
the restriction words too and keys each candidate by combining their
keys; the production code interns each restriction word once per ball,
steps the indices of those words and deduplicates on the pair of their
key ids.  The wreath recursion here collects the restriction letters of
a whole word and reduces them once; the production code reduces at each
letter.

The Schreier line and its ball edges here are found by breadth-first
search over the digit-scan action, and the half-line scans, the fixed vertex and the
action on cube vertices apply words to rays with it; the production code
gives each ray its integer coordinate in closed form and acts on that.
The interval ball here maps each coordinate back to its ray by one
``ray_at`` call, and its edges are a set of coordinate pairs, each edge
found at both of its ends; the production code lists the rays of the
interval in one pass of the doubling of I_n, keeps each edge at its
lower end and indexes that list.
The defect δ(g) = Γ₊ Δ gΓ₊ is found here by scanning a window of the
line, on rays or on integers, and by its cocycle moved point by point,
one ``line_apply`` call per point and letter; the production code pushes
the whole set through each letter at once and reads every half-line
predicate off it.  The byte push of the cocycle here translates the
whole set and then searches for each byte of the boundary pair, splicing
it out or appending it; the production code holds the pair fixed in the
translate and adds or removes it only when both or neither are there.
The stabilizer order of a vertex is counted here one
fixes call per element; the production code walks the ball once, with
each element's δ and line images grown from its parent's, and tests the
vertices that pass the size test once per δ.
The locality scan here collects the crossings of a window as ints, from
images moved point by point by the level rule; the production code
compares sign bytes of the window's images with those δ(g) predicts.
Words are reduced here by a fold that copies the reduced prefix at every
letter; the production code rewrites the top of a stack.
The random words here are drawn letter by letter; the production code
makes the same calls of ``Random.choice`` and ``Random.randint`` and
builds the word from pairs "a" + x.  The sampled suites here draw their
samples anew for each sequence from ``Random(seed)``, the triples of the
action law and then every locality word before any word is judged; the
production code draws each sample once per run.
"""

import time
from functools import lru_cache
from random import Random

from grigcube.checks import (
    ACTION_TRIPLES, BOUND_VERTICES, LOCALITY_WORDS, CheckReport, _locality_counterexample,
    _report,
)
from grigcube.cubes import CubeVertex, act, commensuration_delta, fixes
from grigcube.elements import (
    GroupElement, _canonical_key, _combine, _extend, _level, canonical_key, enumerate_ball,
    reduce_word,
)
from grigcube.gamma import (
    LabelledEdge, Ray, ZERO_RAY, _byte_tables, _coordinate, _push, _rule_push, in_gamma_plus,
    in_gamma_plus_tilde, line_apply, ray_at,
)
from grigcube.omega import LETTER_SYMBOL, OmegaSequence, passive_letter
from grigcube.stabilizers import stabilizer_bound_check


def _apply_letter(letter: str, omega: OmegaSequence, digits: str) -> str:
    """One generator on the canonical digit prefix of a ray, by a scan."""
    if letter == "a":
        if not digits:
            return "1"
        if digits[0] == "1":
            return ("0" + digits[1:]).rstrip("0")
        return "1" + digits[1:]
    # b, c, d fix the all-ones prefix and then act below the first 0:
    # they flip the next digit unless the sequence symbol at that depth
    # matches the letter's own symbol.
    m = 0
    while m < len(digits) and digits[m] == "1":
        m += 1
    if omega.at(m + 1) == LETTER_SYMBOL[letter]:
        return digits
    if m >= len(digits):
        return digits + "01"
    i = m + 1
    flipped = "1" if digits[i] == "0" else "0"
    return (digits[:i] + flipped + digits[i + 1:]).rstrip("0")


def oracle_inverse(g: GroupElement) -> GroupElement:
    """The inverse of g: each generator is an involution, so it is the
    reversed word, which alternates as the word does."""
    return GroupElement(g.omega, g.word[::-1])


def oracle_color(v: CubeVertex, x: Ray) -> bool:
    """The colour of a ray in a cube vertex: its half-line colour,
    flipped when the ray is one of the vertex's delta."""
    return in_gamma_plus(x) != (x in {ray_at(t) for t in v.delta})


def oracle_apply(g: GroupElement, x: Ray) -> Ray:
    """Image of a ray by the digit scan, letters applied right to left."""
    digits = x.digits
    for letter in reversed(g.word):
        digits = _apply_letter(letter, g.omega, digits)
    return Ray(digits)


def _neighbor_rays(omega: OmegaSequence, x: Ray) -> list[Ray]:
    return [Ray(_apply_letter(s, omega, x.digits)) for s in "abcd"]


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
def oracle_is_trivial(omega: OmegaSequence, word: str) -> bool:
    """The word problem for a reduced word, by contraction: a letter x of
    b, c, d is trivial exactly over ``:s`` for the symbol s of x, and a
    longer word exactly when it fixes the first level and both of its
    restrictions are trivial."""
    if len(word) <= 1:
        return not word or (word != "a" and not omega.preperiod
                            and omega.period == LETTER_SYMBOL[word])
    if word.count("a") % 2:
        return False
    _, left, right = oracle_sections(omega, word)
    shifted = omega.shift()
    return oracle_is_trivial(shifted, left) and oracle_is_trivial(shifted, right)


@lru_cache(maxsize=None)
def oracle_key(omega: OmegaSequence, word: str):
    """Portrait key whose leaves are decided by the word problem of
    oracle_is_trivial: "1" for the trivial element, x for anything equal
    to the letter x."""
    word = reduce_word(word)
    if oracle_is_trivial(omega, word):
        return "1"
    if len(word) == 1 and word in "bcd":
        return word
    if len(word) > 1:
        for letter in "bcd":
            if oracle_is_trivial(omega, reduce_word(word + letter)):
                return letter
    swap, left, right = oracle_sections(omega, word)
    shifted = omega.shift()
    return swap, oracle_key(shifted, left), oracle_key(shifted, right)


def _extensions(word: str) -> str:
    """The letters that keep an alternating word alternating."""
    return "abcd" if not word else "bcd" if word[-1] == "a" else "a"


def oracle_ball_words(omega: OmegaSequence, max_len: int,
                      key=oracle_key) -> tuple[str, ...]:
    """Representative words of the ball, by breadth-first search over every
    alternating word, the first word of each key(omega, word) kept."""
    seen = set()
    found = []
    words = [""]
    for length in range(max_len + 1):
        if length:
            words = [w + s for w in words for s in _extensions(w)]
        for word in words:
            k = key(omega, word)
            if k not in seen:
                seen.add(k)
                found.append(word)
    return tuple(found)


def oracle_action_ball(omega: OmegaSequence, max_len: int,
                       level: int = 10) -> tuple[str, ...]:
    """Representative words of the ball, by breadth-first search over every
    alternating word, the first word of each action on the 2^level
    strings of that level kept.

    Each letter's permutation of the level comes from oracle_letter, and
    a word's permutation is its parent's composed with that of its last
    letter, so no portrait, key or word problem is involved.  Two
    elements that agree on the level are merged, so this is a lower
    bound on the ball that is exact once the level tells the ball apart.
    """
    strings = list(all_strings(level))
    index = {x: i for i, x in enumerate(strings)}
    letters = {s: tuple(index[oracle_letter(s, omega, x)] for x in strings)
               for s in "abcd"}
    seen = set()
    found = []
    layer = [("", tuple(range(len(strings))))]
    for length in range(max_len + 1):
        if length:
            # w + s acts as s first, then w
            layer = [(w + s, tuple(perm[i] for i in letters[s]))
                     for w, perm in layer for s in _extensions(w)]
        for word, perm in layer:
            if perm not in seen:
                seen.add(perm)
                found.append(word)
    return tuple(found)


def oracle_sphere_ball(omega: OmegaSequence, max_len: int) -> tuple[str, ...]:
    """Representative words of the ball, grown sphere by sphere from the
    last sphere's representatives, each candidate keyed by canonical_key
    on its whole word."""
    seen = set()
    found = []
    sphere = [""]
    for length in range(max_len + 1):
        if length:
            sphere = [w + s for w in sphere for s in _extensions(w)]
        candidates, sphere = sphere, []
        for word in candidates:
            key = canonical_key(GroupElement(omega, word))
            if key not in seen:
                seen.add(key)
                found.append(word)
                sphere.append(word)
    return tuple(found)


def oracle_grow_ball(omega: OmegaSequence, max_len: int):
    """(elements, ends, spans) of the ball as _grow_ball gives them, each
    candidate carried with its swap flag and restriction words and
    deduplicated on its whole key: _extend of its parent's state by the
    letter, both restriction words keyed by _canonical_key and the key
    built by _combine, with no interning and no key ids."""
    shifted, active = _level(omega)
    seen = set()
    elements: list[GroupElement] = []
    spans = bytearray()
    ends: list[int] = []
    sphere = [("", False, "", "")]
    for length in range(max_len + 1):
        parents, sphere = sphere, []
        candidates = (
            ((r + s, *_extend(active, swap, left, right, s))
             for r, swap, left, right in parents for s in _extensions(r))
            if length else parents
        )
        for state in candidates:
            word, swap, left, right = state
            key = _combine(omega, swap, _canonical_key(shifted, left),
                           _canonical_key(shifted, right))
            if key not in seen:
                seen.add(key)
                elements.append(GroupElement(omega, word))
                spans.append(0 if swap else max(len(left), len(right)))
                sphere.append(state)
        ends.append(len(elements))
    return tuple(elements), tuple(ends), bytes(spans)


def oracle_sections(omega: OmegaSequence, word: str) -> tuple[bool, str, str]:
    """The level-1 swap flag and the reduced left and right restriction
    words, each restriction word reduced once from all of its letters."""
    swap = False
    left: list[str] = []
    right: list[str] = []
    for letter in word:
        if letter == "a":
            swap = not swap
            left, right = right, left
        else:
            if passive_letter(omega, letter) == "a":
                left.append("a")
            right.append(letter)
    return swap, reduce_word("".join(left)), reduce_word("".join(right))


def oracle_ball(omega: OmegaSequence, radius: int) -> set[Ray]:
    """Vertices within the given edge distance of the all-zero ray, by
    breadth-first search over the four labelled edges of each ray."""
    seen = {ZERO_RAY}
    frontier = [ZERO_RAY]
    for _ in range(radius):
        new = []
        for x in frontier:
            for y in _neighbor_rays(omega, x):
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def oracle_ball_edges(omega: OmegaSequence, radius: int) -> set:
    """Labelled edges of the search ball, each as (its endpoint rays, label),
    from the four digit-scan neighbours of every vertex."""
    vertices = oracle_ball(omega, radius)
    return {
        (frozenset((x, y)), s)
        for x in vertices
        for s, y in zip("abcd", _neighbor_rays(omega, x))
        if y in vertices
    }


def oracle_interval_ball(radius: int) -> set[Ray]:
    """The rays of the coordinates |t| <= radius, one ray_at call each."""
    return {ray_at(t) for t in range(-radius, radius + 1)}


def oracle_interval_ball_edges(omega: OmegaSequence, radius: int) -> list[LabelledEdge]:
    """The edges of the interval ball as ball_edges lists them: each letter
    pushes the whole interval, every edge is collected into a set from
    both of its ends, and its endpoints are found by ray_at."""
    interval = range(-radius, radius + 1)
    edges = set()
    for label in "abcd":
        for t, image in zip(interval, _push(omega, label, interval)):
            if abs(image) <= radius:
                edges.add((min(t, image), max(t, image), label))
    return [LabelledEdge(ray_at(s), ray_at(t), label) for s, t, label in sorted(edges)]


def oracle_line_coordinates(omega: OmegaSequence, radius: int) -> dict[Ray, int]:
    """Every ray of the search ball around the all-zero ray with its
    signed distance from it, positive on the gamma plus side."""
    coordinates = {ZERO_RAY: 0}
    frontier = [ZERO_RAY]
    for dist in range(1, radius + 1):
        new = []
        for x in frontier:
            for y in _neighbor_rays(omega, x):
                if y not in coordinates:
                    coordinates[y] = dist if in_gamma_plus(y) else -dist
                    new.append(y)
        frontier = new
    return coordinates


@lru_cache(maxsize=None)
def oracle_commensuration(omega: OmegaSequence, g: GroupElement) -> frozenset:
    """Rays of the search ball of radius length(g) that g moves across
    the half-line boundary, tested on the rays themselves."""
    g_inv = oracle_inverse(g)
    return frozenset(
        x
        for x in oracle_ball(omega, g.length)
        if in_gamma_plus(x) != in_gamma_plus(oracle_apply(g_inv, x))
    )


def oracle_commensuration_window(omega: OmegaSequence, g: GroupElement) -> frozenset:
    """Coordinates t that g moves across the half-line boundary, t >= 0
    against g^-1 t >= 0, by the integer action over |t| <= length(g).
    Each letter moves a coordinate by at most one, so the window holds
    every crossing."""
    inverse, n = oracle_inverse(g).word, g.length
    return frozenset(
        t
        for t in range(-n, n + 1)
        if (t >= 0) != (line_apply(omega, inverse, t) >= 0)
    )


def _scan(omega: OmegaSequence, g: GroupElement, before, after) -> bool:
    return all(
        before(x) == after(oracle_apply(g, x))
        for x in oracle_ball(omega, g.length + 1)
    )


def oracle_stabilizes_gamma_plus_tilde(omega: OmegaSequence, g: GroupElement) -> bool:
    return _scan(omega, oracle_inverse(g), in_gamma_plus_tilde, in_gamma_plus_tilde)


def oracle_fixed_delta(omega: OmegaSequence, elements) -> frozenset:
    """Rays off the right half-line that some element of the subgroup
    carries onto it, over the search ball of the longest element."""
    radius = max(g.length for g in elements)
    return frozenset(
        x
        for x in oracle_ball(omega, radius)
        if not in_gamma_plus(x)
        and any(in_gamma_plus(oracle_apply(oracle_inverse(h), x)) for h in elements)
    )


def oracle_act(omega: OmegaSequence, g: GroupElement, rays: frozenset) -> frozenset:
    """The delta, as rays, of the image of the cube vertex whose delta is
    the given rays: the ray scan of δ(g) Δ the digit-scan images."""
    return oracle_commensuration(omega, g) ^ {oracle_apply(g, x) for x in rays}


def oracle_cocycle(omega: OmegaSequence, word: str, delta: frozenset = frozenset()) -> frozenset:
    """δ(word) by its cocycle, letters right to left, each point of the
    defect moved by its own one-letter line_apply call: the suffix after
    a letter s has defect D, the suffix from s on has δ(s) Δ s·D.
    Started from a vertex delta in place of ∅, it gives the delta of the
    image vertex."""
    for letter in reversed(word):
        delta = frozenset(line_apply(omega, letter, t) for t in delta)
        if letter != "a" and omega.at(1) != LETTER_SYMBOL[letter]:
            delta ^= {-1, 0}
    return delta


def oracle_push_bytes(omega: OmegaSequence, word: str, held: bytes,
                      cocycle: bool = False) -> bytes:
    """The byte path of the push as a search and a splice: after each
    letter's translate, a letter that swaps the boundary pair toggles
    the bytes of −1 and 0 one at a time, each removed where the string
    holds it and appended where it does not."""
    steps = _byte_tables(omega)
    for letter in reversed(word):
        table, held_table = steps[letter]
        held = held.translate(table)
        if cocycle and held_table is not None:
            for mark in (b"\x7e", b"\x7f"):  # the bytes t + 127 of −1 and 0
                held = held.replace(mark, b"") if mark in held else held + mark
    return held


def oracle_stabilizer_order(omega: OmegaSequence, v: CubeVertex, max_len: int) -> int:
    """How many elements of the ball fix v, one fixes call per element."""
    return sum(fixes(g, v) for g in enumerate_ball(omega, max_len))


def oracle_reduce_word(word: str) -> str:
    """The normal form by the fold that copies the reduced prefix at
    every letter: equal letters cancel, and two distinct letters of b,
    c, d merge into the one of the three that neither is.  It shares no
    code with reduce_word and takes time quadratic in the length of the
    word."""
    reduced = ""
    for letter in word:
        top = reduced[-1:]
        if top == letter:
            reduced = reduced[:-1]
        elif top and "a" not in (top, letter):
            reduced = reduced[:-1] + ({"b", "c", "d"} - {top, letter}).pop()
        else:
            reduced += letter
    return reduced


def oracle_locality(g: GroupElement, delta: frozenset):
    """The locality scan of the commensuration suite on ints: the
    crossings of g are the t of the window |t| <= |g| + 4 with t >= 0
    unlike g^-1 t >= 0, the window pushed through the reversed word by
    the level rule point by point.  A crossing past |g| is reported as
    escaped; else crossings other than delta are a mismatch; else None.
    """
    n = g.length
    window = range(-n - 4, n + 5)
    images = _rule_push(g.omega, g.word[::-1], window)
    wide = {t for t, image in zip(window, images) if (t >= 0) != (image >= 0)}
    escaped = [t for t in wide if abs(t) > n]
    if escaped:
        return {"word": g.word, "escaped": sorted(ray_at(t).text() for t in escaped)}
    if wide != delta:
        return {"word": g.word, "mismatch": True}
    return None


def oracle_random_word(rng: Random, max_len: int) -> str:
    """A random alternating word by Random's own calls: randint for the
    length, choice("abcd") for the first letter, choice("bcd") after
    each a, and an a after each other letter."""
    length = rng.randint(0, max_len)
    word = []
    for _ in range(length):
        if not word:
            word.append(rng.choice("abcd"))
        elif word[-1] == "a":
            word.append(rng.choice("bcd"))
        else:
            word.append("a")
    return "".join(word)


def oracle_random_vertex(rng: Random, max_depth: int) -> CubeVertex:
    """Up to 4 random rays of up to max_depth digits, by Random's own
    randint and choice("01"), as coordinates."""
    delta = set()
    for _ in range(rng.randint(0, 4)):
        digits = "".join(rng.choice("01") for _ in range(rng.randint(0, max_depth)))
        delta.add(_coordinate(digits))
    return CubeVertex(frozenset(delta))


def oracle_check_commensuration(omega: OmegaSequence, max_len: int, seed: int) -> list[CheckReport]:
    """check_commensuration with its samples drawn for this sequence
    alone from Random(seed): ACTION_TRIPLES triples, then LOCALITY_WORDS
    words, each distinct word judged at its first draw until one fails."""
    rng = Random(seed)
    triples = [(oracle_random_word(rng, 8), oracle_random_word(rng, 8),
                oracle_random_vertex(rng, 6)) for _ in range(ACTION_TRIPLES)]
    words = [oracle_random_word(rng, max_len) for _ in range(LOCALITY_WORDS)]
    started = time.monotonic()
    counterexample = None
    judged = set()
    for word in words:
        if word in judged:
            continue
        judged.add(word)
        g = GroupElement(omega, word)
        counterexample = _locality_counterexample(g, commensuration_delta(g))
        if counterexample is not None:
            break
    reports = [
        _report("commensuration_locality", omega,
                {"max_len": max_len, "words": LOCALITY_WORDS, "seed": seed},
                started, counterexample)
    ]

    started = time.monotonic()
    counterexample = None
    for g_word, h_word, v in triples:
        g, h = GroupElement(omega, g_word), GroupElement(omega, h_word)
        if act(g * h, v) != act(g, act(h, v)):
            counterexample = {"g": g.word, "h": h.word, "vertex": v.text()}
            break
    reports.append(
        _report("action_law", omega, {"triples": ACTION_TRIPLES, "seed": seed},
                started, counterexample)
    )
    return reports


def oracle_check_bound(omega: OmegaSequence, max_len: int, seed: int) -> list[CheckReport]:
    """check_bound with its BOUND_VERTICES vertices drawn for this
    sequence alone from Random(seed)."""
    rng = Random(seed)
    started = time.monotonic()
    counterexample = None
    vertices = [oracle_random_vertex(rng, 4) for _ in range(BOUND_VERTICES)]
    for v, result in zip(vertices, stabilizer_bound_check(omega, vertices, max_len)):
        if not result.ok:
            counterexample = {"vertex": v.text(), "order": result.order, "bound": result.bound}
            break
    return [
        _report("stabilizer_bound", omega,
                {"max_len": max_len, "vertices": BOUND_VERTICES, "seed": seed},
                started, counterexample)
    ]
