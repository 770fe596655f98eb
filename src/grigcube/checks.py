"""Verification suites reported as JSON-ready records."""

from __future__ import annotations

import json
import time
from functools import lru_cache
from itertools import chain, product
from random import Random
from typing import NamedTuple

from .cubes import CubeVertex, _ball_fixers, act, base_vertex, commensuration_delta
from .elements import (
    GroupElement,
    ball_sections,
    decompose,
    element_order,
    canonical_key,
    require_reduced,
)
from .gamma import (
    Ray,
    ZERO_RAY,
    _coordinate,
    _window_signs,
    in_gamma_plus,
    in_gamma_plus_tilde,
    prepend,
    ray_at,
)
# DEFAULT_OMEGAS is re-exported, so grigcube.checks still names the
# sequences that a default check runs
from .omega import (
    DEFAULT_OMEGAS,
    SUITE_NAMES,
    OmegaSequence,
    UnsupportedOmegaError,
    fixing_letter,
)
from .stabilizers import (
    _PUNCTURED,
    stabilizer_in_ball,
    stabilizes_gamma_plus_tilde,
    stabilizer_bound_check,
    subgroup_closure,
    verify_restriction_lemma,
)

# sample sizes of the random suites and the depth of the prefix scan,
# printed in their params
LOCALITY_WORDS = 1000
ACTION_TRIPLES = 200
BOUND_VERTICES = 50
PREFIX_DEPTH = 12


class CheckReport(NamedTuple):
    check: str
    omega: str
    params: dict
    status: str
    counterexample: object = None
    elapsed_ms: float = 0.0

    def to_json(self) -> str:
        record = {
            "check": self.check,
            "omega": self.omega,
            "params": self.params,
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.status != "pass":
            record["counterexample"] = self.counterexample
        return json.dumps(record, ensure_ascii=False)


def _report(check, omega, params, started, counterexample):
    return CheckReport(
        check=check,
        omega=str(omega),
        params=params,
        status="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        elapsed_ms=(time.monotonic() - started) * 1000,
    )


def all_rays(max_digits: int):
    """Every ray whose digit prefix has at most max_digits digits."""
    yield ZERO_RAY
    for length in range(1, max_digits + 1):
        for bits in product("01", repeat=length - 1):
            yield Ray("".join(bits) + "1")


def check_prefix(omega: OmegaSequence) -> list[CheckReport]:
    """Half-line membership of each ray of at most PREFIX_DEPTH digits
    against both one-digit extensions.

    The scan reads no sequence, so it runs once per run and every
    sequence shares it; each still gets its own record.
    """
    started = time.monotonic()
    found = _prefix_scan()
    counterexample = None if found is None else {"ray": found[0], "claims": list(found[1])}
    return [_report("prefix", omega, {"depth": PREFIX_DEPTH}, started, counterexample)]


@lru_cache(maxsize=1)
def _prefix_scan() -> tuple[str, tuple[bool, ...]] | None:
    """The first ray of at most PREFIX_DEPTH digits that breaks a claim,
    with the claims' values, or None."""
    for x in all_rays(PREFIX_DEPTH):
        zero, one = prepend("0", x), prepend("1", x)
        # each predicate once per ray; the claims combine the five values
        plus, tilde = in_gamma_plus(x), in_gamma_plus_tilde(x)
        zero_plus, zero_tilde = in_gamma_plus(zero), in_gamma_plus_tilde(zero)
        one_tilde = in_gamma_plus_tilde(one)
        claims = (
            plus == (not zero_tilde),
            (not plus) == zero_tilde,
            plus or one_tilde,
            tilde == (not zero_plus),
            tilde == (not one_tilde),
            (not tilde) == zero_plus,
            (not tilde) == one_tilde,
        )
        if not all(claims):
            return x.text(), claims
    return None


def check_reduction(omega: OmegaSequence, max_len: int = 12) -> list[CheckReport]:
    """Restrictions of level-fixing ball elements contract in length.

    Each element's span, the length of its longer restriction word, or 0
    when it swaps level 1, comes from ball_sections, which records it
    while the ball grows; only an element that fails is decomposed, for
    the words of its record.
    """
    started = time.monotonic()
    counterexample = None
    for g, span in ball_sections(omega, max_len):
        if 2 * span > g.length + 1:
            _, left, right = decompose(g)
            counterexample = {"word": g.word, "left": left.word, "right": right.word}
            break
    return [_report("reduction", omega, {"max_len": max_len}, started, counterexample)]


def check_projections(omega: OmegaSequence, max_len: int = 10) -> list[CheckReport]:
    started = time.monotonic()
    report = verify_restriction_lemma(omega, max_len)
    params = {"max_len": max_len, "case_counts": report.case_counts}
    return [_report("projections", omega, params, started, list(report.violations) or None)]


def check_stab(omega: OmegaSequence, max_len: int = 10) -> list[CheckReport]:
    """The two half-line stabilizers and their intersection in the ball.

    Γ₊ is the base vertex and Γ₊ Δ {0} the vertex with delta {0}, so
    both stabilizers come from one stabilizer_in_ball pass, which looks
    up no δ.  The intersection runs the punctured half-line's membership
    test on the half-line stabilizer's elements, a second route to the
    set that the table of the vertex {0} holds.
    """
    reports = []
    u = GroupElement(omega, fixing_letter(omega, 1))
    a = GroupElement(omega, "a")

    started = time.monotonic()
    plus, tilde = stabilizer_in_ball(omega, [base_vertex(), _PUNCTURED], max_len)
    problems = []
    if plus.order != 8:
        problems.append(f"order {plus.order}")
    if plus.recognized_type != "D8":
        problems.append(f"type {plus.recognized_type}")
    try:
        generated = subgroup_closure([a, u])
    except ValueError as err:
        problems.append(str(err))
    else:
        if {canonical_key(g) for g in plus.elements} != {canonical_key(g) for g in generated}:
            problems.append("not generated by a and the fixing letter")
    rotation = element_order(a * u)
    if rotation != 4:
        problems.append(f"a*{u.word} has order {rotation}")
    reports.append(
        _report("stab_half_line", omega, {"max_len": max_len}, started,
                problems or None)
    )

    started = time.monotonic()
    problems = []
    if {g.word for g in tilde.elements} != {"", "b", "c", "d"}:
        problems.append(f"elements {[g.word for g in tilde.elements]}")
    if tilde.recognized_type != "Z2xZ2":
        problems.append(f"type {tilde.recognized_type}")
    reports.append(
        _report("stab_punctured", omega, {"max_len": max_len}, started,
                problems or None)
    )

    started = time.monotonic()
    both = [g.word for g in plus.elements if stabilizes_gamma_plus_tilde(g)]
    counterexample = None
    if set(both) != {"", u.word}:
        counterexample = {"intersection": both}
    reports.append(
        _report("stab_intersection", omega, {"max_len": max_len}, started,
                counterexample)
    )
    return reports


def _random_word(rng: Random, max_len: int) -> str:
    """A random alternating word of 0 to max_len letters.

    Drawn as rng.randint(0, max_len) letters, the first by
    rng.choice("abcd") and each letter after an ``a`` by
    rng.choice("bcd"), an ``a`` after each other letter.  After its
    first letter the word is pairs "a" + x up to one trailing ``a``.
    """
    length = rng.randint(0, max_len)
    if not length:
        return ""
    first = rng.choice("abcd")
    # the part of the word that starts at an a
    rest = length if first == "a" else length - 1
    pairs = "".join(["a" + rng.choice("bcd") for _ in range(rest // 2)])
    return ("" if first == "a" else first) + pairs + "a" * (rest % 2)


def _random_vertex(rng: Random, max_depth: int = 6) -> CubeVertex:
    """Up to 4 random rays of up to max_depth digits, as coordinates:
    rng.randint(0, 4) rays, each of rng.randint(0, max_depth) digits by
    rng.choice("01")."""
    delta = set()
    for _ in range(rng.randint(0, 4)):
        digits = "".join([rng.choice("01") for _ in range(rng.randint(0, max_depth))])
        delta.add(_coordinate(digits))
    return CubeVertex(frozenset(delta))


def _require_seed(seed: int) -> int:
    """The seed of a sample, or ValueError when it is negative: Random
    seeds an int by its absolute value, so seed -5 would draw the
    samples of seed 5 under records that print -5."""
    if seed < 0:
        raise ValueError(f"--seed {seed} is negative; it must be a non-negative integer")
    return seed


@lru_cache(maxsize=4)
def _commensuration_sample(seed: int, max_len: int) -> tuple[tuple, tuple]:
    """The samples of check_commensuration at a seed, drawn once per run:
    the distinct locality words, in the order of their first draw, and
    the ACTION_TRIPLES triples (g, h, v) of two words of up to 8 letters
    and a vertex.

    Random(seed) draws the triples first and the LOCALITY_WORDS words
    after them, so the triples depend on the seed alone and the words on
    the seed and max_len, the params that each record prints.  The
    samples read no sequence, so every sequence of a run shares them.
    Each word is checked to be reduced here, once per run, so
    check_commensuration builds its elements without the constructor's
    check.
    """
    rng = Random(_require_seed(seed))
    triples = tuple((_random_word(rng, 8), _random_word(rng, 8), _random_vertex(rng))
                    for _ in range(ACTION_TRIPLES))
    words = dict.fromkeys([_random_word(rng, max_len) for _ in range(LOCALITY_WORDS)])
    for word in chain(words, *(triple[:2] for triple in triples)):
        require_reduced(word)
    return tuple(words), triples


@lru_cache(maxsize=4)
def _bound_sample(seed: int) -> tuple:
    """The BOUND_VERTICES vertices of check_bound at a seed, drawn once
    per run and shared by every sequence."""
    rng = Random(_require_seed(seed))
    return tuple(_random_vertex(rng, max_depth=4) for _ in range(BOUND_VERTICES))


def _locality_counterexample(g: GroupElement, delta: frozenset) -> dict | None:
    """Whether the crossings of g are delta and lie within |t| <= |g|:
    None if so, else the counterexample of the locality record.

    The crossings are the t of the window |t| <= n + 4, n = |g|, with
    t >= 0 unlike g^-1 t >= 0.  Each letter is an involution, so g^-1 is
    g.word reversed, and _window_signs gives the signs of the window's
    images in one push: on its byte tables while 2n + 4 <= 126, that is
    for words of up to 61 letters, and by its level rule beyond.  The
    window's own signs are n + 4 zeros and n + 5 ones, and its images
    must carry them with exactly the bytes of delta flipped, every point
    of delta within |t| <= n.  That holds exactly when the crossings
    equal delta and none lies past n, so only a word that fails it has
    its crossings read out: the escaped ones if any, else a mismatch.
    """
    n = g.length
    radius = n + 4
    own = bytes(radius) + b"\1" * (radius + 1)
    signs = _window_signs(g.omega, g.word[::-1], radius)
    if all(abs(t) <= n for t in delta):
        expected = bytearray(own)
        for t in delta:
            expected[t + radius] ^= 1
        if signs == expected:
            return None
    crossings = [i - radius for i, (image, sign) in enumerate(zip(signs, own))
                 if image != sign]
    escaped = [t for t in crossings if abs(t) > n]
    if escaped:
        return {"word": g.word, "escaped": sorted(ray_at(t).text() for t in escaped)}
    # the crossings lie within n, so they differ from delta
    return {"word": g.word, "mismatch": True}


def check_commensuration(
    omega: OmegaSequence, max_len: int = 16, seed: int = 0
) -> list[CheckReport]:
    """Boundary crossings stay within the word-length ball, and acting is
    a group action, on LOCALITY_WORDS random words and ACTION_TRIPLES
    random triples.

    Both samples come from one stream, Random(seed): the triples, then
    the words, so no verdict of one record changes the sample of the
    other.  They read no sequence, so _commensuration_sample draws them
    once per run and every sequence shares them.  Each word's crossings
    are judged against commensuration_delta by _locality_counterexample,
    on sign bytes from the byte tables for words of up to 61 letters and
    from the level rule for longer ones.  The verdict depends on the
    word alone, so each distinct word is judged once, in the order of
    its first draw (about 640 of the 1,000 words at seed 0 are
    distinct), and the first failing word is the one reported.  Every
    sampled word is checked to be reduced when it is drawn, so each
    sequence builds its elements with _make.  A negative seed raises
    ValueError before any record is made.
    """
    started = time.monotonic()
    words, triples = _commensuration_sample(seed, max_len)
    counterexample = None
    for word in words:
        g = GroupElement._make((omega, word))
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
        g, h = GroupElement._make((omega, g_word)), GroupElement._make((omega, h_word))
        if act(g * h, v) != act(g, act(h, v)):
            counterexample = {"g": g.word, "h": h.word, "vertex": v.text()}
            break
    reports.append(
        _report("action_law", omega, {"triples": ACTION_TRIPLES, "seed": seed},
                started, counterexample)
    )
    return reports


def faithfulness_witnesses() -> tuple[CubeVertex, ...]:
    v0 = base_vertex()
    v1 = v0.flip(ZERO_RAY)
    v2 = v1.flip(Ray("101"))
    return (v0, v1, v2)


def check_faithful(omega: OmegaSequence, max_len: int = 8) -> list[CheckReport]:
    """Every nontrivial ball element moves one of three witness vertices.

    The fixers of the three witnesses come from one pass of _ball_fixers,
    which grows each element's δ and line images from its parent's, so no
    word is pushed.  The counterexample is the first nontrivial element,
    in ball order, that fixes all three.
    """
    started = time.monotonic()
    witnesses = faithfulness_witnesses()
    first, *others = _ball_fixers(omega, witnesses, max_len)
    # each ball element has one word; the identity's is empty and fixes
    # every vertex
    common = set.intersection(*({g.word for g in found} for found in others))
    word = next((g.word for g in first if g.word and g.word in common), None)
    counterexample = None if word is None else {"word": word}
    return [
        _report("faithful", omega,
                {"max_len": max_len, "witnesses": [v.text() for v in witnesses]},
                started, counterexample)
    ]


def check_bound(omega: OmegaSequence, max_len: int = 8, seed: int = 0) -> list[CheckReport]:
    """BOUND_VERTICES random shallow vertices against the stabilizer order
    bound, counted in one pass over the ball.

    The vertices come from Random(seed) and read no sequence, so
    _bound_sample draws them once per run and every sequence shares
    them.  A negative seed raises ValueError before any record is made.
    """
    started = time.monotonic()
    vertices = _bound_sample(seed)
    counterexample = None
    for v, result in zip(vertices, stabilizer_bound_check(omega, vertices, max_len)):
        if not result.ok:
            counterexample = {
                "vertex": v.text(),
                "order": result.order,
                "bound": result.bound,
            }
            break
    return [
        _report("stabilizer_bound", omega,
                {"max_len": max_len, "vertices": BOUND_VERTICES, "seed": seed},
                started, counterexample)
    ]


# keyed in the order of SUITE_NAMES, which a test checks
_SUITES = {
    "prefix": check_prefix,
    "reduction": check_reduction,
    "projections": check_projections,
    "stab": check_stab,
    "commensuration": check_commensuration,
    "faithful": check_faithful,
    "bound": check_bound,
}

# the least useful max_len of each suite, where that is not 1: a ball
# of length 0 holds the identity alone, the half-line stabilizer first
# shows its order 8 at length 4, and the prefix scan reads no max_len
_LEAST = {"prefix": 0, "stab": 4}


def _check_ball_sizes(names, max_len: int | None) -> None:
    """Raise ValueError when max_len sets a suite's ball too small to
    test its claim, which would make it pass vacuously or fail; the
    message names it as the CLI flag that sets it."""
    for name in names:
        least = _LEAST.get(name, 1)
        if max_len is not None and max_len < least:
            raise ValueError(f"--max-len {max_len} is too small "
                             f"for suite {name}; it needs at least {least}")


def run_suite(
    suite: str,
    omegas: list[OmegaSequence],
    max_len: int | None = None,
    seed: int = 0,
) -> list[CheckReport]:
    """Run one named suite (or all of them) over the given sequences.

    A suite that reaches the gate of the element layer on a sequence
    gives one unsupported record for it instead of its own.  Each such
    suite enumerates its ball before it reports anything, so no record
    of it is lost.  The package raises AssertionError only when its own
    results disagree, as a multiplication table that is not a group's;
    a suite that raises it on a sequence gives one fail record for it,
    with the message as counterexample.  An unknown suite name, no
    sequence, a negative seed, or a max_len too small for a suite's
    claim raises ValueError before any suite runs.  Every suite but
    prefix, whose depth is PREFIX_DEPTH, is sized by max_len.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected 'all' or one of "
                         f"{', '.join(SUITE_NAMES)}")
    if not omegas:
        raise ValueError("no sequence to check")
    _require_seed(seed)
    names = SUITE_NAMES if suite == "all" else (suite,)
    _check_ball_sizes(names, max_len)
    reports = []
    for name in names:
        for omega in omegas:
            kwargs = {}
            if max_len is not None and name != "prefix":
                kwargs["max_len"] = max_len
            if name in ("commensuration", "bound"):
                kwargs["seed"] = seed
            try:
                reports.extend(_SUITES[name](omega, **kwargs))
            except UnsupportedOmegaError:
                reports.append(
                    CheckReport(
                        check=name,
                        omega=str(omega),
                        params={},
                        status="unsupported",
                        counterexample="sequence is not repetition-free; "
                        "ball deduplication is unavailable",
                    )
                )
            except AssertionError as err:
                reports.append(
                    CheckReport(check=name, omega=str(omega), params={},
                                status="fail", counterexample=str(err))
                )
    return reports
