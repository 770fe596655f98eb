"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

CHECK = workloads.invocations("check-default", 0)[0]
DOT = workloads.invocations("schreier-line", 0)[0]


def check_lines(seed: int) -> list[str]:
    return workloads.expected(CHECK, seed).splitlines(keepends=True)


def test_golden_passes_whatever_the_elapsed_time():
    text = "".join(check_lines(7)).replace('"elapsed_ms": 0', '"elapsed_ms": 12.345')
    assert workloads.failed_records(text, 0, CHECK, 7) == (50, 0)


@pytest.mark.parametrize("corrupt, failed", [
    (lambda lines: [lines[0].replace('"pass"', '"fail"'), *lines[1:]], 1),
    (lambda lines: [*lines[:9], lines[9].replace('"max_len": 12', '"max_len": 11'),
                    *lines[10:]], 1),
    (lambda lines: lines[:-1], 1),
    (lambda lines: [*lines, lines[-1]], 1),
    (lambda lines: [*lines[:-1], lines[-1].rstrip("\n")], 1),
    (lambda lines: [lines[1], lines[0], *lines[2:]], 2),
])
def test_corrupted_record_is_caught(corrupt, failed):
    text = "".join(corrupt(check_lines(3)))
    assert workloads.failed_records(text, 0, CHECK, 3)[1] == failed


def test_wrong_seed_in_output_is_caught():
    # commensuration_locality, action_law and stabilizer_bound carry the seed
    assert workloads.failed_records("".join(check_lines(0)), 0, CHECK, 4) == (50, 15)


def test_nonzero_exit_fails_every_record():
    assert workloads.failed_records("".join(check_lines(0)), 1, CHECK, 0) == (50, 50)


def test_dot_document_is_one_record():
    text = workloads.expected(DOT, 0)
    assert workloads.failed_records(text, 0, DOT, 0) == (1, 0)
    assert workloads.failed_records(text.replace("red", "blue", 1), 0, DOT, 0) == (1, 1)


def test_rss_and_cpu_are_per_process():
    # neither an earlier child nor this large test process raises the reading
    big = run.run_child([sys.executable, "-c", "b = b'x' * (96 << 20)"], {}, 60)
    small = run.run_child([sys.executable, "-c", "pass"], {}, 60)
    assert big.exit == small.exit == 0
    assert big.rss_mb > 96
    assert small.rss_mb < 24
    assert 0 < small.cpu < big.cpu


def test_child_is_killed_at_its_timeout():
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], {}, 1)
    assert child.exit < 0
    assert 1 <= child.wall < 10


def test_speed_factor_scales_to_the_reference_speed():
    ref = run.REFERENCE_KERNEL_S
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (9.0, ref / 2)]
    assert run.speed_factor(0.5, 1.5, samples) == 1.0
    assert run.speed_factor(1.5, 3.5, samples) == 0.5  # the core ran at half speed
    assert run.speed_factor(0.5, 3.5, samples) == (1.0 + 0.5 + 0.5) / 3
    assert run.speed_factor(8.0, 8.1, samples) == 2.0  # no sample inside: the nearest


def test_probe_samples_until_stopped():
    with run.SpeedProbe() as probe:
        child = run.run_child([sys.executable, "-c", "sum(range(10**6))"], {}, 60)
    assert probe.proc.returncode is not None
    times = [at for at, _ in probe.samples]
    assert len(times) >= 5 and times == sorted(times)
    assert all(took > 0 for _, took in probe.samples)
    assert times[0] < child.start < child.end < times[-1]
    assert probe.factor(child) > 0


def traced(argv: list[str], hash_seed: int) -> dict:
    child = run.run_child([*run.TRACED, *argv], workloads.child_env(hash_seed), 120)
    assert child.exit == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly():
    # stabilizers scans sets with all(), which stops at a hash-dependent point
    argv = ["check", "--suite", "stab", "--omega", ":012", "--max-len", "8"]
    first, second = traced(argv, 5), traced(argv, 5)
    counts = [{k: v for k, v in r["metrics"].items() if not k.endswith("_s")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["stabilizers.stabilizes_gamma_plus_tilde.calls"] > 0
    assert workloads.mask(first["stdout"]) == workloads.mask(second["stdout"])


def test_enumeration_never_reaches_gamma():
    report = traced(["check", "--suite", "reduction", "--omega", ":012", "--max-len", "8"], 1)
    m = report["metrics"]
    assert m["elements.enumerate_ball.calls"] == 1
    assert m["elements.enumerate_ball.elements"] > 0
    assert m["elements.key_cache.misses"] > 0
    assert all(m[f"gamma.{f}.calls"] == 0 for f in ("ball", "line_coordinate", "neighbors"))
    assert m["cli.stdout_bytes"] == len(workloads.mask(report["stdout"]).encode("utf-8"))
    index = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = {x["name"] for x in index["per_layer"]} - set(m) - {"trace.overhead_frac"}
    assert not missing


def test_line_geometry_never_enumerates():
    m = traced(["schreier", "--omega", ":012", "--radius", "20"], 1)["metrics"]
    assert m["elements.enumerate_ball.calls"] == m["elements.decompose.calls"] == 0
    assert m["gamma.line_coordinate.calls"] > 0
    assert m["gamma.coord_cache.misses"] == 41


def run_bench(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def copy_bench(root: Path) -> None:
    shutil.copy(BENCH.parent / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_program(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench(tmp_path, "enum-cold")
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout


def test_golden_mismatch_exits_nonzero(tmp_path):
    copy_bench(tmp_path)
    shutil.copytree(BENCH.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = tmp_path / "bench" / "golden" / "enum-cold.jsonl"
    golden.write_text(golden.read_text().replace('"2:01"', '"2:10"'))
    proc = run_bench(tmp_path, "enum-cold")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 5, 1)
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
