"""Verification suites reported as JSON-ready records."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import product
from random import Random

from .cubes import CubeVertex, act, base_vertex, commensuration_delta, fixes
from .elements import (
    GroupElement,
    decompose,
    element_order,
    enumerate_ball,
    is_trivial,
    stabilizes_level1,
    canonical_key,
)
from .gamma import (
    Ray,
    ZERO_RAY,
    _coordinate,
    in_gamma_plus,
    in_gamma_plus_tilde,
    line_apply,
    prepend,
    ray_at,
)
from .omega import OmegaSequence, fixing_letter
from .stabilizers import (
    StabilizerTarget,
    stabilizer_in_ball,
    stabilizer_bound_check,
    subgroup_closure,
    verify_restriction_lemma,
)

DEFAULT_OMEGAS = (":012", ":01", ":02", ":12", "2:01")

SUITE_NAMES = (
    "prefix",
    "reduction",
    "projections",
    "stab",
    "commensuration",
    "faithful",
    "bound",
)

# suites that enumerate and deduplicate group elements
NEEDS_REPETITION_FREE = {"reduction", "projections", "stab", "faithful", "bound"}


@dataclass
class CheckReport:
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


def check_prefix(omega: OmegaSequence, depth: int = 12) -> list[CheckReport]:
    """Half-line membership of a ray against both one-digit extensions."""
    started = time.monotonic()
    counterexample = None
    for x in all_rays(depth):
        zero, one = prepend("0", x), prepend("1", x)
        claims = (
            in_gamma_plus(x) == (not in_gamma_plus_tilde(zero)),
            (not in_gamma_plus(x)) == in_gamma_plus_tilde(zero),
            in_gamma_plus(x) or in_gamma_plus_tilde(one),
            in_gamma_plus_tilde(x) == (not in_gamma_plus(zero)),
            in_gamma_plus_tilde(x) == (not in_gamma_plus_tilde(one)),
            (not in_gamma_plus_tilde(x)) == in_gamma_plus(zero),
            (not in_gamma_plus_tilde(x)) == in_gamma_plus_tilde(one),
        )
        if not all(claims):
            counterexample = {"ray": x.text(), "claims": list(claims)}
            break
    return [_report("prefix", omega, {"depth": depth}, started, counterexample)]


def check_reduction(omega: OmegaSequence, max_len: int = 12) -> list[CheckReport]:
    """Restrictions of level-fixing ball elements contract in length."""
    started = time.monotonic()
    counterexample = None
    for g in enumerate_ball(omega, max_len):
        if g.length < 2 or not stabilizes_level1(g):
            continue
        _, g0, g1 = decompose(g)
        if 2 * g0.length > g.length + 1 or 2 * g1.length > g.length + 1:
            counterexample = {"word": g.word, "left": g0.word, "right": g1.word}
            break
    return [_report("reduction", omega, {"max_len": max_len}, started, counterexample)]


def check_projections(omega: OmegaSequence, max_len: int = 10) -> list[CheckReport]:
    started = time.monotonic()
    report = verify_restriction_lemma(omega, max_len)
    counterexample = list(report.violations) or None
    out = _report("projections", omega, {"max_len": max_len}, started, counterexample)
    out.params["case_counts"] = report.case_counts
    return [out]


def check_stab(omega: OmegaSequence, max_len: int = 10) -> list[CheckReport]:
    """The two half-line stabilizers and their intersection in the ball."""
    reports = []
    u = GroupElement(omega, fixing_letter(omega, 1))
    a = GroupElement(omega, "a")

    started = time.monotonic()
    plus = stabilizer_in_ball(omega, StabilizerTarget.GAMMA_PLUS, max_len)
    generated = {canonical_key(g) for g in subgroup_closure([a, u])}
    problems = []
    if plus.order != 8:
        problems.append(f"order {plus.order}")
    if plus.recognized_type != "D8":
        problems.append(f"type {plus.recognized_type}")
    if {canonical_key(g) for g in plus.elements} != generated:
        problems.append("not generated by a and the fixing letter")
    if element_order(a * u) != 4:
        problems.append(f"a*{u.word} has order {element_order(a * u)}")
    reports.append(
        _report("stab_half_line", omega, {"max_len": max_len}, started,
                problems or None)
    )

    started = time.monotonic()
    tilde = stabilizer_in_ball(omega, StabilizerTarget.GAMMA_PLUS_TILDE, max_len)
    problems = []
    if {g.word for g in tilde.elements} != {"", "b", "c", "d"}:
        problems.append(f"elements {[g.word for g in tilde.elements]}")
    if tilde.recognized_type != "Z2xZ2":
        problems.append(f"type {tilde.recognized_type}")
    if any(element_order(g) != 2 for g in tilde.elements if g.length):
        problems.append("non-involution present")
    reports.append(
        _report("stab_punctured", omega, {"max_len": max_len}, started,
                problems or None)
    )

    started = time.monotonic()
    plus_keys = {canonical_key(g) for g in plus.elements}
    both = [g for g in tilde.elements if canonical_key(g) in plus_keys]
    expected = {"", u.word}
    counterexample = None
    if {g.word for g in both} != expected:
        counterexample = {"intersection": [g.word for g in both]}
    reports.append(
        _report("stab_intersection", omega, {"max_len": max_len}, started,
                counterexample)
    )
    return reports


def _random_word(rng: Random, max_len: int) -> str:
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


def _random_vertex(rng: Random, max_rays: int = 4, max_depth: int = 6) -> CubeVertex:
    """Up to max_rays random rays of up to max_depth digits, as coordinates."""
    delta = set()
    for _ in range(rng.randint(0, max_rays)):
        digits = "".join(rng.choice("01") for _ in range(rng.randint(0, max_depth)))
        delta.add(_coordinate(digits))
    return CubeVertex(frozenset(delta))


def check_commensuration(
    omega: OmegaSequence,
    max_len: int = 16,
    words: int = 1000,
    triples: int = 200,
    seed: int = 0,
) -> list[CheckReport]:
    """Boundary crossings stay within the word-length ball, and acting is
    a group action.

    The crossings of g are the coordinates t of the window
    |t| <= length + 4 with t >= 0 unlike g^-1 t >= 0.  The whole window
    is pushed through g^-1 one letter at a time, through one image table
    per letter built before the first word.
    """
    rng = Random(seed)
    started = time.monotonic()
    counterexample = None
    # Every edge of Γ joins t to t ± 1, so n <= max_len letters keep a
    # window point |t| <= n + 4 inside |t| <= 2 * max_len + 4.  A point
    # that left the tables would raise KeyError, never be skipped.
    reach = 2 * max_len + 4
    tables = {
        s: {t: line_apply(omega, s, t) for t in range(-reach, reach + 1)}
        for s in "abcd"
    }
    for _ in range(words):
        g = GroupElement(omega, _random_word(rng, max_len))
        n = g.length
        window = range(-n - 4, n + 5)
        images = list(window)
        # g^-1 is g.word reversed, and a word acts right to left
        for letter in g.word:
            table = tables[letter]
            images = [table[t] for t in images]
        wide = {t for t, image in zip(window, images) if (t >= 0) != (image >= 0)}
        escaped = [t for t in wide if abs(t) > n]
        if escaped:
            counterexample = {
                "word": g.word,
                "escaped": sorted(ray_at(t).text() for t in escaped),
            }
            break
        if wide != commensuration_delta(omega, g):
            counterexample = {"word": g.word, "mismatch": True}
            break
    reports = [
        _report("commensuration_locality", omega,
                {"max_len": max_len, "words": words, "seed": seed},
                started, counterexample)
    ]

    started = time.monotonic()
    counterexample = None
    for _ in range(triples):
        g = GroupElement(omega, _random_word(rng, 8))
        h = GroupElement(omega, _random_word(rng, 8))
        v = _random_vertex(rng)
        product_image = act(omega, g * h, v)
        if product_image != act(omega, g, act(omega, h, v)):
            counterexample = {"g": g.word, "h": h.word, "vertex": v.text()}
            break
    reports.append(
        _report("action_law", omega, {"triples": triples, "seed": seed},
                started, counterexample)
    )
    return reports


def faithfulness_witnesses(omega: OmegaSequence) -> tuple[CubeVertex, ...]:
    v0 = base_vertex()
    v1 = v0.flip(ZERO_RAY)
    v2 = v1.flip(Ray("101"))
    return (v0, v1, v2)


def check_faithful(omega: OmegaSequence, max_len: int = 8) -> list[CheckReport]:
    """Every nontrivial ball element moves one of three witness vertices."""
    started = time.monotonic()
    witnesses = faithfulness_witnesses(omega)
    counterexample = None
    for g in enumerate_ball(omega, max_len):
        if is_trivial(g):
            continue
        if all(fixes(omega, g, v) for v in witnesses):
            counterexample = {"word": g.word}
            break
    return [
        _report("faithful", omega,
                {"max_len": max_len, "witnesses": [v.text() for v in witnesses]},
                started, counterexample)
    ]


def check_bound(
    omega: OmegaSequence, max_len: int = 8, vertices: int = 50, seed: int = 0
) -> list[CheckReport]:
    """Random shallow vertices against the stabilizer order bound."""
    rng = Random(seed)
    started = time.monotonic()
    counterexample = None
    for _ in range(vertices):
        v = _random_vertex(rng, max_rays=4, max_depth=4)
        result = stabilizer_bound_check(omega, v, max_len)
        if not result.ok:
            counterexample = {
                "vertex": v.text(),
                "order": result.order,
                "bound": result.bound,
            }
            break
    return [
        _report("stabilizer_bound", omega,
                {"max_len": max_len, "vertices": vertices, "seed": seed},
                started, counterexample)
    ]


_SUITES = {
    "prefix": check_prefix,
    "reduction": check_reduction,
    "projections": check_projections,
    "stab": check_stab,
    "commensuration": check_commensuration,
    "faithful": check_faithful,
    "bound": check_bound,
}


def run_suite(
    suite: str,
    omegas: list[OmegaSequence],
    max_len: int | None = None,
    depth: int | None = None,
    seed: int = 0,
) -> list[CheckReport]:
    """Run one named suite (or all of them) over the given sequences.

    Suites that enumerate elements report an unsupported status for
    sequences that are not repetition-free.
    """
    names = SUITE_NAMES if suite == "all" else (suite,)
    reports = []
    for name in names:
        for omega in omegas:
            if name in NEEDS_REPETITION_FREE and not omega.is_repetition_free():
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
                continue
            kwargs = {}
            if name == "prefix":
                if depth is not None:
                    kwargs["depth"] = depth
            elif max_len is not None:
                kwargs["max_len"] = max_len
            if name in ("commensuration", "bound"):
                kwargs["seed"] = seed
            reports.extend(_SUITES[name](omega, **kwargs))
    return reports
