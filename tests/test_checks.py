import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grigcube
import grigcube.checks
import grigcube.cubes
from grigcube.checks import (
    _bound_sample,
    _commensuration_sample,
    _locality_counterexample,
    _random_vertex,
    _random_word,
    ACTION_TRIPLES,
    BOUND_VERTICES,
    DEFAULT_OMEGAS,
    LOCALITY_WORDS,
    SUITE_NAMES,
    CheckReport,
    all_rays,
    check_bound,
    check_commensuration,
    check_faithful,
    check_prefix,
    check_reduction,
    check_stab,
    run_suite,
)
from grigcube.cli import main
from grigcube.cubes import CubeVertex, commensuration_delta, fixes
from grigcube.elements import GroupElement, ball_sections, decompose, enumerate_ball
from grigcube.gamma import ray_at
from grigcube.omega import OmegaSequence
from grigcube.stabilizers import BoundCheck

from oracles import (
    oracle_check_bound,
    oracle_check_commensuration,
    oracle_locality,
    oracle_random_vertex,
    oracle_random_word,
)

OM = OmegaSequence.parse(":012")


def test_default_omegas_parse():
    assert len(DEFAULT_OMEGAS) == 5
    for text in DEFAULT_OMEGAS:
        om = OmegaSequence.parse(text)
        assert om.is_repetition_free()
        assert str(om) == text


def test_all_rays_counts():
    # one ray per binary string without trailing zeros: 2^(l-1) of
    # each positive digit length l, plus the all-zero ray
    assert sum(1 for _ in all_rays(5)) == 1 + 2 ** 5 - 1
    texts = [r.text() for r in all_rays(2)]
    assert sorted(texts) == ["01", "0inf", "1", "11"]


def test_report_json_omits_counterexample_on_pass():
    report = CheckReport("x", ":012", {"n": 1}, "pass", None, 1.5)
    record = json.loads(report.to_json())
    assert "counterexample" not in record
    assert record["elapsed_ms"] == 1.5


def test_report_json_keeps_counterexample_on_fail():
    report = CheckReport("x", ":012", {}, "fail", {"word": "ab"}, 0.1)
    record = json.loads(report.to_json())
    assert record["counterexample"] == {"word": "ab"}


def test_single_suite_runs_per_omega():
    reports = run_suite("prefix", [OM, OmegaSequence.parse(":01")])
    assert [r.omega for r in reports] == [":012", ":01"]
    assert all(r.status == "pass" for r in reports)


@pytest.fixture
def fresh_prefix_scan():
    """The prefix scan is shared across sequences and runs; start and
    leave the table empty, so no earlier scan answers for this test and
    this test's answer reaches no later one."""
    grigcube.checks._prefix_scan.cache_clear()
    yield
    grigcube.checks._prefix_scan.cache_clear()


def test_shared_prefix_scan_fails_every_record(monkeypatch, fresh_prefix_scan):
    # a broken claim shows on each sequence's record, not only the first
    monkeypatch.setattr(grigcube.checks, "in_gamma_plus_tilde", lambda x: False)
    reports = run_suite("prefix", [OM, OmegaSequence.parse(":01")])
    assert [r.omega for r in reports] == [":012", ":01"]
    assert [r.status for r in reports] == ["fail", "fail"]
    assert reports[0].counterexample == reports[1].counterexample
    assert reports[0].counterexample is not reports[1].counterexample


def test_all_suites_cover_every_name():
    reports = run_suite("all", [OM], max_len=5)
    names = {r.check for r in reports}
    assert names == {
        "prefix",
        "reduction",
        "projections",
        "stab_half_line",
        "stab_punctured",
        "stab_intersection",
        "commensuration_locality",
        "action_law",
        "faithful",
        "stabilizer_bound",
    }
    assert all(r.status == "pass" for r in reports)
    # the parser offers the names of omega, so the suites must be keyed by
    # exactly those, in the order that all runs them
    assert tuple(grigcube.checks._SUITES) == SUITE_NAMES


def test_unsupported_marks_enumerating_suites_only(capsys):
    # the suites that reach the element layer's gate give one exact
    # record each; the pointwise ones run
    for text in (":0", "00:12", ":0112", "1:0"):
        reports = run_suite("all", [OmegaSequence.parse(text)], max_len=4)
        records = [json.loads(r.to_json()) for r in reports]
        for record in records:
            record["elapsed_ms"] = 0.0
        assert [r for r in records if r["status"] == "unsupported"] == [
            {
                "check": name,
                "omega": text,
                "params": {},
                "status": "unsupported",
                "elapsed_ms": 0.0,
                "counterexample": "sequence is not repetition-free; "
                "ball deduplication is unavailable",
            }
            for name in ("reduction", "projections", "stab", "faithful", "bound")
        ]
        assert {r["check"]: r["status"] for r in records if r["status"] != "unsupported"} == {
            "prefix": "pass", "commensuration_locality": "pass", "action_law": "pass"}
        assert main(["check", "--omega", text, "--max-len", "4"]) == 3
        capsys.readouterr()


def test_individual_checks_pass():
    assert check_prefix(OM)[0].status == "pass"
    assert check_reduction(OM, 6)[0].status == "pass"
    assert all(r.status == "pass" for r in check_stab(OM, 8))
    assert check_faithful(OM, 5)[0].status == "pass"


@pytest.mark.parametrize("deltas", [((), (), ()), ((), (-1, 0), (-1,))])
def test_faithful_reports_the_first_element_fixing_every_witness(monkeypatch, deltas):
    # witnesses that nontrivial elements fix: the half-line three times,
    # whose stabilizer has order 8, and three vertices that the fixing
    # letter fixes; the record names the first such element in ball order
    witnesses = tuple(CubeVertex(frozenset(delta)) for delta in deltas)
    monkeypatch.setattr(grigcube.checks, "faithfulness_witnesses", lambda: witnesses)
    for omega in map(OmegaSequence.parse, DEFAULT_OMEGAS):
        first = next(g.word for g in enumerate_ball(omega, 8)
                     if g.word and all(fixes(g, v) for v in witnesses))
        report = check_faithful(omega)[0]
        assert report.status == "fail"
        assert report.counterexample == {"word": first}


def _tables_changed(monkeypatch, change):
    """Patch the suite's stabilizer_in_ball to pass its two tables, the
    half-line's and the punctured half-line's, through change."""
    true_tables = grigcube.checks.stabilizer_in_ball
    monkeypatch.setattr(grigcube.checks, "stabilizer_in_ball",
                        lambda *args: change(*true_tables(*args)))


def _closure_overflows(monkeypatch):
    def overflow(generators):
        raise ValueError("subgroup exceeds 64 elements")
    monkeypatch.setattr(grigcube.checks, "subgroup_closure", overflow)


# per fault of the stab suite over :012: the record it fails and that
# record's counterexample; the half-line stabilizer in ball(10) is
# "", a, d, ad, da, ada, dad, adad, and the fixing letter is d
STAB_FAULTS = {
    "half_line_order": (
        lambda mp: _tables_changed(mp, lambda plus, tilde: (
            plus._replace(elements=plus.elements[:7]), tilde)),
        "stab_half_line", ["order 7", "not generated by a and the fixing letter"]),
    "half_line_type": (
        lambda mp: _tables_changed(mp, lambda plus, tilde: (
            plus._replace(recognized_type="Z4"), tilde)),
        "stab_half_line", ["type Z4"]),
    "half_line_closure": (
        _closure_overflows, "stab_half_line", ["subgroup exceeds 64 elements"]),
    "half_line_rotation": (
        lambda mp: mp.setattr(grigcube.checks, "element_order", lambda g: None),
        "stab_half_line", ["a*d has order None"]),
    "punctured_elements": (
        lambda mp: _tables_changed(mp, lambda plus, tilde: (
            plus, tilde._replace(elements=tilde.elements[:3]))),
        "stab_punctured", ["elements ['', 'b', 'c']"]),
    "punctured_type": (
        lambda mp: _tables_changed(mp, lambda plus, tilde: (
            plus, tilde._replace(recognized_type="Z4"))),
        "stab_punctured", ["type Z4"]),
    "intersection": (
        lambda mp: mp.setattr(grigcube.checks, "stabilizes_gamma_plus_tilde", lambda g: True),
        "stab_intersection",
        {"intersection": ["", "a", "d", "ad", "da", "ada", "dad", "adad"]}),
}


@pytest.mark.parametrize("fault", STAB_FAULTS)
def test_stab_reports_each_fault(monkeypatch, capsys, fault):
    # each injected fault fails exactly its own record, with its own
    # counterexample, and the suite exits 1
    inject, check, expected = STAB_FAULTS[fault]
    inject(monkeypatch)
    reports = check_stab(OM)
    assert {r.check: r.status for r in reports if r.check != check} == {
        name: "pass" for name in ("stab_half_line", "stab_punctured", "stab_intersection")
        if name != check}
    [report] = [r for r in reports if r.check == check]
    assert report.status == "fail"
    assert report.counterexample == expected
    assert main(["check", "--suite", "stab", "--omega", ":012"]) == 1
    records = {r["check"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert records[check]["status"] == "fail"
    assert records[check]["counterexample"] == expected


def test_bound_reports_a_vertex_over_its_bound(monkeypatch, capsys):
    # the third sampled vertex, 0inf,01,1, has bound 8 * 4 * 4**2; given
    # one element more than that, it is the vertex of the record
    true_check = grigcube.checks.stabilizer_bound_check

    def over_at_third(omega, vertices, max_len):
        results = true_check(omega, vertices, max_len)
        results[2] = BoundCheck(results[2].bound + 1, results[2].bound, False)
        return results

    monkeypatch.setattr(grigcube.checks, "stabilizer_bound_check", over_at_third)
    expected = {"vertex": _bound_sample(0)[2].text(), "order": 513, "bound": 512}
    assert expected["vertex"] == "0inf,01,1"
    report = check_bound(OM)[0]
    assert report.status == "fail"
    assert report.counterexample == expected
    assert main(["check", "--suite", "bound", "--omega", ":012"]) == 1
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["status"] == "fail"
    assert record["counterexample"] == expected


def test_projections_report_counts():
    reports = run_suite("projections", [OM], max_len=8)
    assert reports[0].status == "pass"
    assert reports[0].params["case_counts"] == {
        "half_line": 4,
        "punctured": 4,
        "swapping": 0,
    }


def test_locality_reports_a_wrong_delta(monkeypatch):
    # the scan must be able to fail: a δ one point off is a mismatch
    true_delta = grigcube.checks.commensuration_delta
    monkeypatch.setattr(grigcube.checks, "commensuration_delta",
                        lambda g: true_delta(g) ^ {5})
    # the scan stops at the first word, whose δ the patch puts one point off
    report = check_commensuration(OM)[0]
    assert report.check == "commensuration_locality"
    assert report.status == "fail"
    assert report.counterexample["mismatch"] is True


@pytest.mark.parametrize("unreduced_at", [4, 8], ids=["locality", "triples"])
def test_unreduced_sample_word_is_rejected(monkeypatch, unreduced_at):
    # the suite builds its elements without the constructor's check, so a
    # sampled word that is not reduced must still raise its ValueError:
    # "aa" for the locality words (4 letters here) or the triple words (8)
    monkeypatch.setattr(grigcube.checks, "_random_word",
                        lambda rng, max_len: "aa" if max_len == unreduced_at else "")
    _commensuration_sample.cache_clear()
    try:
        with pytest.raises(ValueError, match="not reduced"):
            check_commensuration(OM, 4, 11)
    finally:
        _commensuration_sample.cache_clear()


def test_draws_match_choice_and_randint():
    # the helpers' draws are those of the letter-by-letter oracle: the
    # same words and vertices, and the generator left in the same state
    for seed in range(300):
        ours, theirs = Random(seed), Random(seed)
        for max_len in (0, 1, 2, 8, 16, 70):
            words = [_random_word(ours, max_len) for _ in range(5)]
            assert words == [oracle_random_word(theirs, max_len) for _ in range(5)], seed
        for max_depth in (4, 6):
            vertices = [_random_vertex(ours, max_depth) for _ in range(5)]
            assert vertices == [oracle_random_vertex(theirs, max_depth) for _ in range(5)], seed
        assert ours.random() == theirs.random(), seed


def _drawn(seed, max_len):
    # the suite's samples by Random's own calls: the triples, then the
    # locality words
    rng = Random(seed)
    triples = tuple((oracle_random_word(rng, 8), oracle_random_word(rng, 8),
                     oracle_random_vertex(rng, 6)) for _ in range(ACTION_TRIPLES))
    return [oracle_random_word(rng, max_len) for _ in range(LOCALITY_WORDS)], triples


def test_locality_judges_each_distinct_word_once(monkeypatch):
    # the suite's words, drawn again: each distinct one is judged once,
    # in the order of its first draw
    words, _ = _drawn(0, 16)
    judged = []
    true_judge = grigcube.checks._locality_counterexample
    monkeypatch.setattr(grigcube.checks, "_locality_counterexample",
                        lambda g, delta: judged.append(g.word) or true_judge(g, delta))
    assert check_commensuration(OM)[0].status == "pass"
    assert judged == list(dict.fromkeys(words))
    assert len(judged) < len(words)
    # a δ one point off on a word drawn twice only: the record names it
    repeated = next(w for i, w in enumerate(words) if w in words[:i])
    true_delta = grigcube.checks.commensuration_delta
    monkeypatch.setattr(grigcube.checks, "commensuration_delta",
                        lambda g: true_delta(g) ^ {5} if g.word == repeated else true_delta(g))
    report = check_commensuration(OM)[0]
    assert report.status == "fail"
    assert report.counterexample == {"word": repeated, "mismatch": True}


def _masked(reports):
    return [r._replace(elapsed_ms=0.0) for r in reports]


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_samples_are_the_suites_draws(seed):
    # the held samples are the draws of Random's own calls, in order:
    # the triples, the locality words after them, and the vertices
    for max_len in (1, 9, 16, 70):
        words, triples = _drawn(seed, max_len)
        assert _commensuration_sample(seed, max_len) == (tuple(dict.fromkeys(words)), triples)
    # the action_law record prints the seed and not max_len, and its
    # triples depend on the seed alone
    assert len({_commensuration_sample(seed, max_len)[1] for max_len in (1, 9, 16, 70)}) == 1
    rng = Random(seed)
    vertices = tuple(oracle_random_vertex(rng, 4) for _ in range(BOUND_VERTICES))
    assert _bound_sample(seed) == vertices


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sampled_suites_match_the_per_sequence_oracle(monkeypatch, seed):
    # the samples drawn once per run give every sequence the records of
    # samples drawn anew for it
    omegas = [OmegaSequence.parse(text) for text in DEFAULT_OMEGAS]
    for omega in omegas:
        for max_len in (1, 16, 70):
            assert (_masked(check_commensuration(omega, max_len, seed))
                    == _masked(oracle_check_commensuration(omega, max_len, seed)))
        # ball(70) cannot be grown, so bound runs at its least and default length
        for max_len in (1, 8):
            assert (_masked(check_bound(omega, max_len, seed))
                    == _masked(oracle_check_bound(omega, max_len, seed)))
    # records that name a sampled word and triple: δ one point off on the
    # words of more than max_len / 2 letters, and g * h giving h
    true_delta = grigcube.cubes._commensuration
    monkeypatch.setattr(GroupElement, "__mul__", lambda g, h: h)
    for max_len in (1, 16, 70):
        monkeypatch.setattr(grigcube.cubes, "_commensuration", lambda omega, word, n=max_len: (
            true_delta(omega, word) ^ {5} if 2 * len(word) > n else true_delta(omega, word)))
        for omega in omegas:
            reports = check_commensuration(omega, max_len, seed)
            assert [r.status for r in reports] == ["fail", "fail"]
            assert _masked(reports) == _masked(oracle_check_commensuration(omega, max_len, seed))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_locality_failure_leaves_the_action_law_record(monkeypatch, seed):
    # with g * h giving h the action law fails at a triple the stream
    # decides; a δ one point off on the third distinct word fails the
    # locality record there, and the action_law record must not move
    monkeypatch.setattr(GroupElement, "__mul__", lambda g, h: h)
    words = list(dict.fromkeys(_drawn(seed, 16)[0]))
    omegas = [OmegaSequence.parse(text) for text in DEFAULT_OMEGAS]
    passing = [check_commensuration(omega, 16, seed)[1] for omega in omegas]
    true_delta = grigcube.cubes._commensuration
    monkeypatch.setattr(grigcube.cubes, "_commensuration", lambda omega, word: (
        true_delta(omega, word) ^ {5} if word == words[2] else true_delta(omega, word)))
    for omega, action_law in zip(omegas, passing):
        failing = check_commensuration(omega, 16, seed)
        assert failing[0].counterexample == {"word": words[2], "mismatch": True}
        assert _masked(failing) == _masked(oracle_check_commensuration(omega, 16, seed))
        assert action_law.status == "fail"
        assert _masked(failing[1:]) == _masked([action_law])


def test_one_check_draws_each_sample_once(monkeypatch, capsys):
    # every sequence shares one draw: 1,000 words and 200 triples for
    # commensuration, 50 vertices for bound, where drawing per sequence
    # took five times as many
    grigcube.checks._commensuration_sample.cache_clear()
    grigcube.checks._bound_sample.cache_clear()
    calls = {"word": 0, "vertex": 0}

    def spy(name, draw):
        def counted(*args, **kwargs):
            calls[name] += 1
            return draw(*args, **kwargs)
        return counted

    monkeypatch.setattr(grigcube.checks, "_random_word", spy("word", _random_word))
    monkeypatch.setattr(grigcube.checks, "_random_vertex", spy("vertex", _random_vertex))
    assert main(["check"]) == 0
    capsys.readouterr()
    # 1,000 locality words and two per triple; a vertex per triple and 50
    assert calls == {"word": 1400, "vertex": 250}
    # a failing run draws no more: δ one point off on the third distinct
    # word stops the locality words of every sequence there
    grigcube.checks._commensuration_sample.cache_clear()
    grigcube.checks._bound_sample.cache_clear()
    calls.update(word=0, vertex=0)
    third = list(dict.fromkeys(_drawn(0, 16)[0]))[2]
    true_delta = grigcube.cubes._commensuration
    monkeypatch.setattr(grigcube.cubes, "_commensuration", lambda omega, word: (
        true_delta(omega, word) ^ {5} if word == third else true_delta(omega, word)))
    assert main(["check"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["omega"] for r in records if r["status"] == "fail"] == list(DEFAULT_OMEGAS)
    assert calls == {"word": 1400, "vertex": 250}


def test_reduction_reports_a_long_restriction(monkeypatch, capsys):
    # a word of length 4 given a span of 3, more than (4 + 1) / 2; the
    # record holds the restriction words of decompose
    g = GroupElement.from_word(OM, "abab")
    _, left, right = decompose(g)
    expected = {"word": "abab", "left": left.word, "right": right.word}
    monkeypatch.setattr(grigcube.checks, "ball_sections",
                        lambda omega, max_len: iter([(g, 3)]))
    report = check_reduction(OM, 4)[0]
    assert report.status == "fail"
    assert report.counterexample == expected
    assert main(["check", "--suite", "reduction", "--omega", ":012"]) == 1
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["status"] == "fail"
    assert record["counterexample"] == expected


def test_locality_reports_a_crossing_one_past_the_length(monkeypatch):
    # the escape bound is |t| <= |g| exactly: a crossing at |g| + 1 is
    # reported as escaped, not only as a δ mismatch
    true_signs = grigcube.checks._window_signs

    def signs(omega, word, radius):
        # the image of t = |g| + 1, at index t + radius, turns negative
        held = bytearray(true_signs(omega, word, radius))
        held[len(word) + 1 + radius] = 0
        return bytes(held)

    monkeypatch.setattr(grigcube.checks, "_window_signs", signs)
    report = check_commensuration(OM)[0]
    assert report.status == "fail"
    n = len(report.counterexample["word"])
    assert report.counterexample["escaped"] == [ray_at(n + 1).text()]


def test_locality_reports_an_escape_that_delta_shares(monkeypatch):
    # a crossing at |g| + 1 that δ(g) holds too agrees with δ, and is
    # still reported as escaped
    true_signs = grigcube.checks._window_signs
    true_delta = grigcube.checks.commensuration_delta

    def signs(omega, word, radius):
        held = bytearray(true_signs(omega, word, radius))
        held[len(word) + 1 + radius] = 0
        return bytes(held)

    monkeypatch.setattr(grigcube.checks, "_window_signs", signs)
    monkeypatch.setattr(grigcube.checks, "commensuration_delta",
                        lambda g: true_delta(g) ^ {g.length + 1})
    report = check_commensuration(OM)[0]
    n = len(report.counterexample["word"])
    assert report.counterexample["escaped"] == [ray_at(n + 1).text()]


# alternating words of 0 to 80 letters: 62 letters and more put the
# locality window past the byte reach of 126
locality_words = st.builds(
    lambda lead, letters, length: ("a" * lead + "a".join(letters))[:length],
    st.booleans(), st.lists(st.sampled_from("bcd"), min_size=41, max_size=41),
    st.integers(0, 80))


@pytest.mark.parametrize("text", DEFAULT_OMEGAS)
@given(word=locality_words, off=st.one_of(st.none(), st.integers(-90, 90)))
@settings(max_examples=60, deadline=None)
def test_locality_scan_matches_the_oracle(text, word, off):
    # the same verdict and counterexample as the scan on ints, on the
    # true δ and on a δ one point off, inside or outside the window
    g = GroupElement(OmegaSequence.parse(text), word)
    delta = commensuration_delta(g)
    if off is not None:
        delta = delta ^ {off}
    assert _locality_counterexample(g, delta) == oracle_locality(g, delta)


@pytest.mark.parametrize("text", DEFAULT_OMEGAS)
def test_locality_and_contraction_margins_are_zero(text):
    # over ball(12) both bounds are met with equality, by single letters
    # and by long words such as dacacac and dacad on :012: the largest
    # max|t| − |g| over t in δ(g), and the largest 2·max|gᵢ| − |g| − 1
    # over level-fixing g, are both 0
    om = OmegaSequence.parse(text)
    locality = max(max(map(abs, delta)) - g.length
                   for g in enumerate_ball(om, 12) if (delta := commensuration_delta(g)))
    # a swapping g has span 0, so its −|g| − 1 stays below the identity's −1
    contraction = max(2 * span - g.length - 1 for g, span in ball_sections(om, 12))
    assert (locality, contraction) == (0, 0)


@pytest.mark.parametrize("suite, sizes", [
    ("faithful", {"max_len": 0}),
    ("commensuration", {"max_len": 0}),
    ("stab", {"max_len": 3}),
    ("all", {"max_len": 3}),
])
def test_run_suite_rejects_a_ball_too_small(capsys, suite, sizes):
    # a library call gets the CLI's usage error, before any suite runs
    with pytest.raises(ValueError, match="too small for suite") as caught:
        run_suite(suite, [OM], **sizes)
    flags = [part for key, value in sizes.items()
             for part in (f"--{key.replace('_', '-')}", str(value))]
    assert main(["check", "--suite", suite, "--omega", ":012", *flags]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"


def test_run_suite_rejects_a_negative_seed(monkeypatch):
    # Random seeds an int by its absolute value, so seed -5 would check
    # the samples of seed 5 under records that print -5; the CLI's flag
    # rejects it, and a library call gets a usage error before any suite
    # runs
    assert Random(-5).random() == Random(5).random()
    monkeypatch.setitem(grigcube.checks._SUITES, "bound", None)
    with pytest.raises(ValueError, match="--seed -5 is negative"):
        run_suite("bound", [OM], seed=-5)


@pytest.mark.parametrize("suite", [check_commensuration, check_bound])
def test_sampled_suite_rejects_a_negative_seed(suite):
    # a direct call would check the samples of seed 5 under a record
    # that prints -5; it raises where its generator is built
    with pytest.raises(ValueError, match="--seed -5 is negative"):
        suite(OM, 8, -5)


def test_run_suite_rejects_no_sequence():
    # with no sequence a run would return no record and so no failure;
    # the CLI checks the defaults when no --omega is given
    with pytest.raises(ValueError, match="no sequence to check"):
        run_suite("all", [])


def test_run_suite_rejects_an_unknown_suite():
    # the CLI's choices reject such a name; a library call gets a usage
    # error that lists the names, before any suite runs
    with pytest.raises(ValueError, match="unknown suite 'nope'") as caught:
        run_suite("nope", [OM])
    assert all(name in str(caught.value) for name in SUITE_NAMES)


def test_stab_fails_in_bounded_time_on_a_wrong_product():
    # with g * h giving h, no element but the identity has a finite
    # order; both stabilizer tables are still closed and associative, so
    # only the element orders can tell, and they must stop at their bound
    src = str(Path(grigcube.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); "
             "from grigcube.elements import GroupElement; "
             "GroupElement.__mul__ = lambda g, h: h; "
             "from grigcube.cli import main; "
             "sys.exit(main(['check', '--suite', 'stab', '--omega', ':012']))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    status = {r["check"]: r["status"] for r in map(json.loads, result.stdout.splitlines())}
    assert status["stab_half_line"] == status["stab_punctured"] == "fail"


@pytest.mark.parametrize("argv", [
    ["--max-len", "1"],
    ["--max-len", "40", "--omega", ":012"],
    ["--omega", ":0"],
    ["--max-len", "70", "--omega", ":012"],
])
def test_commensuration_suite_passes(capsys, argv):
    # the least length, a long one, a sequence with repetition, and a
    # length whose longest words push the window past the byte tables of
    # gamma._push; --max-len 0 is a usage error
    assert main(["check", "--suite", "commensuration", *argv]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records and all(r["status"] == "pass" for r in records)


def test_ball_suites_share_one_walk_per_run(monkeypatch):
    # projections, stab, faithful and bound read one walk of each
    # sequence's ball, and the fixer lists it leaves do not outlive the
    # run, whether it returns, gives unsupported or fail records, or
    # raises
    walks = []
    original = grigcube.cubes.ball_action
    monkeypatch.setattr(grigcube.cubes, "ball_action",
                        lambda omega, n: walks.append((str(omega), n)) or original(omega, n))
    omegas = [OmegaSequence.parse(text) for text in DEFAULT_OMEGAS]

    def left():
        return grigcube.cubes._planned, grigcube.cubes._walked

    assert all(r.status == "pass" for r in run_suite("all", omegas))
    assert sorted(walks) == sorted((text, 10) for text in DEFAULT_OMEGAS)
    assert left() == ({}, {})
    del walks[:]
    assert all(r.status == "pass" for r in run_suite("stab", omegas))
    assert sorted(walks) == sorted((text, 10) for text in DEFAULT_OMEGAS)
    assert left() == ({}, {})

    statuses = {r.check: r.status for r in run_suite("all", [OmegaSequence.parse(":001")])}
    assert [name for name, status in statuses.items() if status == "unsupported"] == [
        "reduction", "projections", "stab", "faithful", "bound"]
    assert left() == ({}, {})

    def disagree(*args):
        raise AssertionError("injected")

    monkeypatch.setattr(grigcube.checks, "stabilizer_bound_check", disagree)
    [record] = [r for r in run_suite("all", omegas[:1]) if r.check == "bound"]
    assert (record.status, record.counterexample) == ("fail", "injected")
    assert left() == ({}, {})

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(grigcube.checks, "subgroup_closure", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite("all", omegas)
    assert left() == ({}, {})


def test_ball_suites_stay_within_the_byte_reach(monkeypatch):
    # every request that a check makes of the walk lies within its byte
    # reach, so the definition path of _ball_fixers, the only caller of
    # enumerate_ball in cubes during a check, never runs
    calls = []
    original = grigcube.cubes.enumerate_ball
    monkeypatch.setattr(grigcube.cubes, "enumerate_ball",
                        lambda *args: calls.append(args) or original(*args))
    omegas = [OmegaSequence.parse(text) for text in DEFAULT_OMEGAS]
    assert all(r.status == "pass" for r in run_suite("all", omegas))
    assert all(r.status == "pass" for r in run_suite("stab", omegas, max_len=15))
    assert calls == []
    # the spy sees a request past the reach, which the definition answers
    far = CubeVertex(frozenset({127}))
    assert grigcube.cubes._ball_fixers(OM, [(far, 0)]) == [[GroupElement(OM, "")]]
    assert calls == [(OM, 0)]


@pytest.mark.parametrize("suite", ["bound", "faithful"])
def test_ball_suites_look_up_no_delta(monkeypatch, capsys, suite):
    # both suites read δ off ball_action, so the bounded δ table is
    # neither filled nor read
    calls = []
    original = grigcube.cubes._commensuration
    monkeypatch.setattr(grigcube.cubes, "_commensuration",
                        lambda *args: calls.append(args) or original(*args))
    assert main(["check", "--suite", suite, "--omega", ":012"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records and all(r["status"] == "pass" for r in records)
    assert calls == []
    # the spy sees a lookup that does go through the table
    commensuration_delta(GroupElement(OM, "b"))
    assert calls == [(OM, "b")]


def test_stab_looks_up_delta_only_for_candidates(monkeypatch, capsys):
    # stab finds both stabilizers in one walk, which looks up no δ, and
    # the intersection record tests the half-line stabilizer's 8
    # elements by act, which pushes the vertex {0} without the δ table;
    # so a ball longer than the table costs no refills
    assert grigcube.cubes._commensuration.cache_info().maxsize < 1487
    original = grigcube.cubes._commensuration
    counts = []
    for n in ("8", "12"):
        calls = []
        monkeypatch.setattr(grigcube.cubes, "_commensuration",
                            lambda *args: calls.append(args) or original(*args))
        assert main(["check", "--suite", "stab", "--omega", ":012", "--max-len", n]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records and all(r["status"] == "pass" for r in records)
        counts.append(len(calls))
    assert counts == [0, 0]
    # the spy sees a lookup that does go through the table
    commensuration_delta(GroupElement(OM, "b"))
    assert calls == [(OM, "b")]
