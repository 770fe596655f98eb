import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grigcube
from grigcube import checks, elements, stabilizers
from grigcube.checks import DEFAULT_OMEGAS, SUITE_NAMES, run_suite
from grigcube.cli import build_parser, exit_code_for, main
from grigcube.cubes import CubeVertex
from grigcube.elements import GroupElement
from grigcube.gamma import Ray
from grigcube.omega import OmegaSequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestExitCodes:
    def test_exit_code_for(self):
        assert exit_code_for(["pass", "pass"]) == 0
        assert exit_code_for(["pass", "fail"]) == 1
        assert exit_code_for(["fail", "unsupported"]) == 3
        assert exit_code_for([]) == 0

    def test_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert main(["schreier"]) == 2
        capsys.readouterr()

    def test_bad_omega_text(self, capsys):
        code, out, err = run_cli(capsys, "schreier", "--omega", "012")
        assert code == 2
        assert "error" in err

    def test_unsupported_sequence(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--suite", "stab", "--omega", ":000", "--max-len", "6"
        )
        assert code == 3
        records = json_lines(out)
        assert records[0]["status"] == "unsupported"
        assert "unsupported" in err

    def test_pointwise_commands_run_on_a_constant_sequence(self, capsys):
        # act and schreier never reach the gate of the element layer
        code, out, _ = run_cli(capsys, "act", "--omega", ":0", "--word", "ab")
        assert code == 0 and json_lines(out)
        code, out, _ = run_cli(capsys, "schreier", "--omega", ":0")
        assert code == 0 and out.startswith("graph")

    @pytest.mark.parametrize("argv", [
        ("check", "--suite", "faithful", "--omega", ":012", "--max-len", "-1"),
        # check has no --depth: the prefix scan's depth is a constant
        ("check", "--depth", "4"),
        ("orbit", "--omega", ":012", "--max-len", "-1"),
        ("schreier", "--omega", ":012", "--radius", "-2"),
        ("schreier", "--omega", ":012", "--radius", "two"),
        # a ball too small to test the claim
        *(("check", "--suite", suite, "--omega", ":012", "--max-len", "0")
          for suite in ("faithful", "bound", "reduction", "projections", "commensuration")),
        ("check", "--suite", "faithful", "--omega", ":012", "--max-len", "two"),
        ("check", "--suite", "stab", "--omega", ":012", "--max-len", "2"),
        ("check", "--suite", "stab", "--omega", ":012", "--max-len", "3"),
        ("check", "--omega", ":012", "--max-len", "3"),
    ])
    def test_bad_count_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("flag", [("--seed", "-5"), ("--seed=-5",), ("--seed", "five")])
    def test_negative_seed_is_usage_error(self, capsys, flag):
        # Random seeds an int by its absolute value, so seed -5 would draw
        # the samples of seed 5 under records that print -5
        assert Random(-5).random() == Random(5).random()
        code, out, err = run_cli(capsys, "check", "--suite", "bound", "--omega", ":012", *flag)
        assert code == 2
        assert out == ""
        assert "non-negative integer" in err

    @pytest.mark.parametrize("command", [
        ("act", "--omega", ":012", "--word", "b"),
        ("orbit", "--omega", ":01", "--max-len", "2"),
    ])
    @pytest.mark.parametrize("vertex", ["1,,101", "101,", ",1", "0inf,0inf", "1,101,1", "empty"])
    def test_bad_vertex_is_usage_error(self, capsys, command, vertex):
        # the base vertex is written ∅ or as the empty string; "empty" is
        # read as a ray, and it is not one
        code, out, err = run_cli(capsys, *command, "--vertex", vertex)
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestCheck:
    def test_prefix_passes(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "prefix", "--omega", ":012")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 1
        assert records[0]["check"] == "prefix"
        assert records[0]["status"] == "pass"
        assert "counterexample" not in records[0]
        assert "1 passed" in err

    def test_multiple_omegas(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--suite", "reduction",
            "--omega", ":012", "--omega", ":01", "--max-len", "6",
        )
        assert code == 0
        records = json_lines(out)
        assert [r["omega"] for r in records] == [":012", ":01"]

    def test_stab_suite(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--suite", "stab", "--omega", ":012", "--max-len", "8"
        )
        assert code == 0
        names = [r["check"] for r in json_lines(out)]
        assert names == ["stab_half_line", "stab_punctured", "stab_intersection"]

    def test_stab_passes_at_the_least_length(self, capsys):
        # the half-line stabilizer first shows its order 8 at length 4
        code, out, _ = run_cli(capsys, "check", "--suite", "stab", "--max-len", "4")
        assert code == 0
        assert len(json_lines(out)) == 3 * len(DEFAULT_OMEGAS)

    def test_records_carry_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "reduction", "--omega", ":012",
            "--max-len", "5",
        )
        assert json_lines(out)[0]["params"] == {"max_len": 5}

    def test_inconsistent_table_is_a_failed_record(self, capsys, monkeypatch):
        # a key that merges b and c makes a row of the multiplication
        # table of the half-line stabilizer repeat an index
        key = stabilizers.canonical_key
        monkeypatch.setattr(stabilizers, "canonical_key", lambda g: key(
            GroupElement.from_word(g.omega, g.word.replace("c", "b"))))
        code, out, err = run_cli(capsys, "check", "--suite", "stab", "--omega", ":012")
        assert code == 1
        assert json_lines(out) == [{
            "check": "stab", "omega": ":012", "params": {}, "status": "fail",
            "elapsed_ms": 0.0,
            "counterexample": "multiplication table row is not a permutation",
        }]
        assert "0 passed, 1 failed" in err
        # the other suites still run and pass
        reports = run_suite("all", [OmegaSequence.parse(":012")], max_len=4)
        assert [r.check for r in reports if r.status != "pass"] == ["stab"]

    def test_closure_past_the_cap_is_a_failed_check(self, capsys, monkeypatch):
        def overflow(generators):
            raise ValueError("subgroup exceeds 64 elements")

        monkeypatch.setattr(checks, "subgroup_closure", overflow)
        code, out, err = run_cli(capsys, "check", "--suite", "stab", "--omega", ":012")
        assert code == 1
        records = json_lines(out)
        assert [r["status"] for r in records] == ["fail", "pass", "pass"]
        assert records[0]["counterexample"] == ["subgroup exceeds 64 elements"]


class TestAct:
    def test_letter_moving_base_vertex(self, capsys):
        code, out, err = run_cli(
            capsys, "act", "--omega", ":012", "--word", "b", "--vertex", "∅"
        )
        assert code == 0
        assert json_lines(out) == [{"result": "0inf,01", "distance": 2}]

    def test_letter_fixing_base_vertex(self, capsys):
        code, out, err = run_cli(
            capsys, "act", "--omega", ":012", "--word", "a", "--vertex", "∅"
        )
        assert code == 0
        assert json_lines(out) == [{"result": "∅", "distance": 0}]

    def test_unreduced_word_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "act", "--omega", ":012", "--word", "bcd", "--vertex", "0inf,01"
        )
        assert code == 0
        assert json_lines(out) == [{"result": "0inf,01", "distance": 0}]

    def test_bad_word(self, capsys):
        code, _, err = run_cli(
            capsys, "act", "--omega", ":012", "--word", "xyz"
        )
        assert code == 2


class TestOrbit:
    def test_growth_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--omega", ":012", "--max-len", "4"
        )
        assert code == 0
        rows = json_lines(out)
        assert [r["length"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0] == {"length": 0, "max_distance": 0, "witness_word": ""}
        assert rows[1]["max_distance"] == 2
        assert rows[-1]["max_distance"] >= rows[1]["max_distance"]

    def test_unsupported(self, capsys):
        code, out, err = run_cli(
            capsys, "orbit", "--omega", ":000", "--max-len", "4"
        )
        assert code == 3
        assert out == ""
        code, out, err = run_cli(capsys, "orbit", "--omega", ":0")
        assert (code, out) == (3, "")
        assert err == (
            "sequence :0 is not repetition-free; letters may coincide as "
            "automorphisms, so its elements cannot be told apart\n"
        )

    def test_max_len_zero(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--omega", ":012", "--max-len", "0")
        assert code == 0
        assert json_lines(out) == [
            {"length": 0, "max_distance": 0, "witness_word": ""}
        ]

    def test_off_base_vertex(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--omega", ":01", "--max-len", "6",
            "--vertex", "0inf",
        )
        assert code == 0
        rows = json_lines(out)
        assert rows[0]["max_distance"] == 0
        assert rows[-1]["max_distance"] >= 4


class TestSchreier:
    def test_dot_output(self, capsys):
        code, out, err = run_cli(
            capsys, "schreier", "--omega", ":012", "--radius", "2"
        )
        assert code == 0
        assert out.startswith("graph schreier {")
        assert '"0inf" -- "1" [label="a", color="red"];' in out
        assert '"01" -- "0inf" [label="b", color="blue"];' in out
        assert '"01" -- "0inf" [label="c", color="green"];' in out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "schreier", "--omega", ":01", "--radius", "3")
        _, second, _ = run_cli(capsys, "schreier", "--omega", ":01", "--radius", "3")
        assert first == second

    def test_parser_defaults(self):
        args = build_parser().parse_args(["schreier", "--omega", ":012"])
        assert args.radius == 3
        assert args.format == "dot"

    def test_radius_zero_single_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "schreier", "--omega", ":012", "--radius", "0"
        )
        assert code == 0
        assert '"0inf";' in out
        # only the basepoint and its own loop appear
        edges = [line for line in out.splitlines() if "--" in line]
        assert edges == ['  "0inf" -- "0inf" [label="d", color="orange"];']

    def test_jsonl_line_count_is_edge_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "schreier", "--omega", ":012", "--radius", "2", "--format", "jsonl"
        )
        assert code == 0
        records = json_lines(out)
        from grigcube.gamma import edge_records
        from grigcube.omega import OmegaSequence

        assert len(records) == len(edge_records(OmegaSequence.parse(":012"), 2))
        assert all(set(r) == {"source", "target", "label"} for r in records)

    def test_unknown_format_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "schreier", "--omega", ":012", "--format", "svg"
        )
        assert code == 2


ORBIT_012 = """\
{"length": 0, "max_distance": 0, "witness_word": ""}
{"length": 1, "max_distance": 4, "witness_word": "b"}
{"length": 2, "max_distance": 4, "witness_word": "b"}
{"length": 3, "max_distance": 6, "witness_word": "dad"}
{"length": 4, "max_distance": 6, "witness_word": "dad"}
{"length": 5, "max_distance": 6, "witness_word": "dad"}
{"length": 6, "max_distance": 8, "witness_word": "adabad"}
{"length": 7, "max_distance": 8, "witness_word": "adabad"}
{"length": 8, "max_distance": 8, "witness_word": "adabad"}
{"length": 9, "max_distance": 10, "witness_word": "adababada"}
"""

ORBIT_01 = """\
{"length": 0, "max_distance": 0, "witness_word": ""}
{"length": 1, "max_distance": 4, "witness_word": "b"}
{"length": 2, "max_distance": 4, "witness_word": "b"}
{"length": 3, "max_distance": 6, "witness_word": "dad"}
{"length": 4, "max_distance": 6, "witness_word": "dad"}
{"length": 5, "max_distance": 8, "witness_word": "dabad"}
{"length": 6, "max_distance": 8, "witness_word": "dabad"}
{"length": 7, "max_distance": 10, "witness_word": "dababad"}
{"length": 8, "max_distance": 10, "witness_word": "dababad"}
{"length": 9, "max_distance": 12, "witness_word": "dabababad"}
"""


class TestPinnedOutput:
    """Exact stdout of act and orbit, which print vertices through their
    text form; the values were recorded when vertices were stored as rays."""

    @pytest.mark.parametrize("argv, expected", [
        (("act", "--omega", "2:01", "--word", "abacadab", "--vertex", "101,0inf,1101"),
         '{"result": "001", "distance": 4}\n'),
        (("act", "--omega", ":012", "--word", "dabacab"),
         '{"result": "001,01,101,1011", "distance": 4}\n'),
        (("orbit", "--omega", ":012", "--vertex", "1,01,0inf", "--max-len", "9"), ORBIT_012),
        (("orbit", "--omega", ":01", "--vertex", "1,01,0inf", "--max-len", "9"), ORBIT_01),
    ])
    def test_stdout(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected


COMMANDS = ("check", "orbit", "schreier", "act")
omega_texts = st.text(alphabet="012:x -", max_size=6)
counts = st.integers(-1, 3).map(str)
# half the check sizes from 4..6, so fuzzed lines also get past the least
# ball of stab and all
ball_sizes = st.one_of(counts, st.integers(4, 6).map(str))
words = st.text(alphabet="abcdx", max_size=6)
vertex_texts = st.sampled_from((",", "1,", "0inf,0inf", "∅", "", "0inf", "01,1", "x"))


@st.composite
def argvs(draw):
    """Random command lines; the counts stay at most 3 and a check's
    sizes at most 6, so that a check over the default sequences stays
    cheap."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "check":
        argv += ["--suite", draw(st.sampled_from(SUITE_NAMES + ("all",)))]
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--omega", draw(omega_texts)]
        argv += ["--max-len", draw(ball_sizes)]
        return argv
    argv += ["--omega", draw(omega_texts)]
    if command == "orbit":
        argv += ["--max-len", draw(counts)]
    elif command == "schreier":
        argv += ["--radius", draw(counts),
                 "--format", draw(st.sampled_from(("dot", "jsonl", "svg")))]
    else:
        argv += ["--word", draw(words)]
    if command in ("orbit", "act") and draw(st.booleans()):
        argv += ["--vertex", draw(vertex_texts)]
    return argv


@given(argvs())
@settings(max_examples=50, deadline=None)
def test_fuzzed_argv_gives_an_exit_code(argv):
    # every outcome is a documented exit code, never a traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


# the characters the three text forms are made of, and any other
parse_texts = st.text(st.one_of(st.sampled_from("012:,∅emptyinf"), st.characters()),
                      max_size=12)


@pytest.mark.parametrize("parse", [OmegaSequence.parse, CubeVertex.parse, Ray.parse],
                         ids=["omega", "vertex", "ray"])
@given(text=parse_texts)
def test_parsers_give_a_value_or_a_value_error(parse, text):
    # the CLI turns a ValueError into exit 2; any other exception would
    # be a traceback
    try:
        parse(text)
    except ValueError:
        pass


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # each command is its own process, so what importing the CLI pulls in
    # is paid on every run; -I -S keeps the environment and site out
    src = str(Path(grigcube.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import grigcube.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


# the layers and the library that a schreier run has no use for
UNUSED_BY_SCHREIER = {"grigcube.checks", "grigcube.cubes", "grigcube.elements",
                      "grigcube.stabilizers", "json"}


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["schreier", "--omega", ":012", "--radius", "3"], set()),
    (["check", "--suite", "prefix", "--omega", ":012"], UNUSED_BY_SCHREIER),
], ids=["import", "schreier", "check"])
def test_each_command_loads_only_its_own_layers(argv, loaded):
    # the package and the CLI import a layer where a command first runs
    # it; check loads every one, so the empty sets are not vacuous
    src = str(Path(grigcube.__file__).parent.parent)
    probe = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "import grigcube.cli",
        f"argv = {argv!r}",
        "if argv is not None:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = grigcube.cli.main(argv)",
        "    if code:",
        "        sys.exit(code)",
        f"print(sorted({sorted(UNUSED_BY_SCHREIER)!r} & sys.modules.keys()))",
    ])
    result = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout == f"{sorted(loaded)}\n"


def test_star_import_binds_each_name_from_its_own_module():
    namespace = {}
    exec("from grigcube import *", namespace)
    assert set(grigcube.__all__) <= namespace.keys()
    for name in grigcube.__all__:
        home = importlib.import_module(f"grigcube.{grigcube._HOMES[name]}")
        assert namespace[name] is getattr(home, name) is getattr(grigcube, name)
        assert getattr(namespace[name], "__module__", home.__name__) == home.__name__
    # the names the parser needs are defined once, in omega
    assert checks.DEFAULT_OMEGAS is grigcube.DEFAULT_OMEGAS
    assert elements.UnsupportedOmegaError is checks.UnsupportedOmegaError


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grigcube.no_such_name
