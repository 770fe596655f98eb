"""The default stdout of `check` and `schreier` against the benchmark's goldens.

The benchmark gates every run byte for byte against `bench/golden/`; this
runs the same invocations in-process, so a change that alters the default
output fails here before it reaches the benchmark.  `bench/workloads.py`
is only read: it names the invocations and compares the records.
"""

import importlib.util
from pathlib import Path

import pytest

from grigcube.cli import main

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

INVOCATIONS = [
    inv
    for name in ("check-default", "schreier-line")
    for inv in workloads.invocations(name, workloads.GOLDEN_SEED)
]


@pytest.mark.parametrize("inv", INVOCATIONS, ids=lambda inv: inv.golden)
def test_default_output_matches_golden(capsys, inv):
    code = main(list(inv.argv))
    out = capsys.readouterr().out
    attempted, failed = workloads.failed_records(out, code, inv, workloads.GOLDEN_SEED)
    assert attempted > 0
    assert failed == 0
