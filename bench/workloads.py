"""The benchmark's workloads and the golden-output gate.

Each workload is a list of CLI invocations, each run as a fresh
``python -m grigcube.cli`` process.  Every invocation has a golden
stdout in ``bench/golden/``, recorded with ``elapsed_ms`` masked.

Run this file to record the goldens from the current source tree:

    python3 bench/workloads.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

OMEGAS = (":012", ":01", ":02", ":12", "2:01")
GOLDEN_SEED = 0


class Invocation(NamedTuple):
    argv: tuple[str, ...]
    golden: str
    whole: bool  # the whole stdout is one record (a DOT document)


def invocations(workload: str, seed: int) -> list[Invocation]:
    """CLI invocations of one workload iteration; the seed only reaches check."""
    if workload == "check-default":
        return [Invocation(("check", f"--seed={seed}"), "check-default.jsonl", False)]
    if workload == "schreier-line":
        return [
            Invocation(("schreier", "--omega", omega, "--radius", "200"),
                       f"schreier-line/{omega.replace(':', '_')}.dot", True)
            for omega in OMEGAS
        ]
    if workload == "enum-cold":
        return [Invocation(("check", "--suite", "reduction", "--max-len", "15"),
                           "enum-cold.jsonl", False)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("check-default", "schreier-line", "enum-cold")

_ELAPSED = re.compile(r'"elapsed_ms": -?[0-9.eE+-]+')
_SEED = re.compile(r'"seed": -?[0-9]+(?=[,}])')


def mask(text: str) -> str:
    """Replace the only volatile field of a check record."""
    return _ELAPSED.sub('"elapsed_ms": 0', text)


def expected(inv: Invocation, seed: int) -> str:
    """Golden stdout for this seed: the recorded one with the seed put in."""
    text = (GOLDEN_DIR / inv.golden).read_text(encoding="utf-8")
    return _SEED.sub(f'"seed": {seed}', text)


def records(text: str, whole: bool) -> list[str]:
    return [text] if whole else text.splitlines(keepends=True)


def failed_records(stdout: str, exit_code: int, inv: Invocation, seed: int) -> tuple[int, int]:
    """(attempted, failed) records of one invocation against its golden.

    A record is one stdout line, or the whole document when inv.whole.
    A nonzero exit fails every record; otherwise each record that is not
    byte-identical to the golden one after masking, and each missing or
    extra record, fails.
    """
    want = records(expected(inv, seed), inv.whole)
    if exit_code != 0:
        return len(want), len(want)
    got = records(mask(stdout), inv.whole)
    attempted = max(len(want), len(got))
    matched = sum(g == w for g, w in zip(got, want))
    return attempted, attempted - matched


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def record() -> None:
    for workload in WORKLOADS:
        for inv in invocations(workload, GOLDEN_SEED):
            out = subprocess.run(
                [sys.executable, "-m", "grigcube.cli", *inv.argv],
                env=child_env(0), cwd=ROOT, capture_output=True, check=True,
            ).stdout.decode("utf-8")
            path = GOLDEN_DIR / inv.golden
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(mask(out), encoding="utf-8")
            print(f"recorded {inv.golden}")


if __name__ == "__main__":
    record()
