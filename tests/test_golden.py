"""The stdout of `check`, `schreier` and `orbit` against recorded goldens.

The benchmark gates every run byte for byte against `bench/golden/`; this
runs the same invocations in-process, so a change that alters the default
output fails here before it reaches the benchmark.  `bench/workloads.py`
is only read: it names the invocations and compares the records.

A few non-default invocations, `ARGV_GOLDENS`, are held to the goldens
in `tests/golden/`, recorded with `elapsed_ms` masked as the benchmark
masks it.  Run this file to record them from the current source tree:

    PYTHONPATH=src python3 tests/test_golden.py

A re-record changes what every later change is held to, so it is a step
of its own, named in CHANGES.md.

The benchmark's tracer wraps package functions and reads memo tables by
name, and silently drops the metrics of a name that is gone; the names
are read here from `bench/tracer.py` and checked against the package.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from grigcube.cli import main

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_GOLDEN = Path(__file__).resolve().parent / "golden"
_WORKLOADS = _BENCH / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

INVOCATIONS = [
    inv
    for name in ("check-default", "schreier-line", "enum-cold")
    for inv in workloads.invocations(name, workloads.GOLDEN_SEED)
]


@pytest.mark.parametrize("inv", INVOCATIONS, ids=lambda inv: inv.golden)
def test_default_output_matches_golden(capsys, inv):
    code = main(list(inv.argv))
    out = capsys.readouterr().out
    attempted, failed = workloads.failed_records(out, code, inv, workloads.GOLDEN_SEED)
    assert attempted > 0
    assert failed == 0


# golden file name -> argv, for outputs that no benchmark workload covers
ARGV_GOLDENS = {
    "check-max-len-9-seed-7.jsonl": ("check", "--max-len", "9", "--seed", "7"),
    "check-stab-max-len-15.jsonl": ("check", "--suite", "stab", "--max-len", "15"),
    "check-bound-seed-3.jsonl": ("check", "--suite", "bound", "--seed", "3"),
    "orbit-012-max-len-9.txt": ("orbit", "--omega", ":012", "--max-len", "9",
                                "--vertex", "0inf,101"),
}


def _masked_stdout(argv):
    """(exit code, stdout with elapsed_ms masked) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, workloads.mask(out.getvalue())


@pytest.mark.parametrize("name", ARGV_GOLDENS)
def test_output_matches_recorded_golden(name):
    code, out = _masked_stdout(ARGV_GOLDENS[name])
    assert code == 0
    assert out == (_GOLDEN / name).read_text(encoding="utf-8")


def _tracer_table(name):
    """A literal table of bench/tracer.py, parsed without importing it:
    the tracer imports the benchmark's workloads module from its path."""
    tree = ast.parse((_BENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


SPANS = [(mod, fn) for mod, names in _tracer_table("SPANS").items() for fn in names]


@pytest.mark.parametrize("mod, fn", SPANS, ids=lambda x: x)
def test_traced_span_exists(mod, fn):
    assert callable(getattr(importlib.import_module(f"grigcube.{mod}"), fn, None))


@pytest.mark.parametrize("mod, attr", _tracer_table("CACHES").values(), ids=lambda x: x)
def test_traced_cache_exists(mod, attr):
    cached = getattr(importlib.import_module(f"grigcube.{mod}"), attr, None)
    assert hasattr(cached, "cache_info")


if __name__ == "__main__":
    _GOLDEN.mkdir(exist_ok=True)
    for name, argv in ARGV_GOLDENS.items():
        code, out = _masked_stdout(argv)
        if code:
            raise SystemExit(f"{' '.join(argv)} exited {code}; nothing recorded")
        (_GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"recorded {name}")
