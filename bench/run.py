"""grigcube benchmark: the CLI as a user runs it, and a separate traced run.

Usage, from the repository root:

    python3 bench/run.py --workload check-default --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36

Untraced (``--trace 0``): time ``import grigcube.cli`` in fresh processes
(set-up), then run the workload in a closed loop with one client.  An
iteration runs the workload's invocations one after another, each in a
fresh ``python -m grigcube.cli`` process, and the loop starts another
iteration while the last one would still end within ``--seconds``.  Each
process is started by ``bench/spawn.py``, which times it and reads its own
rusage with ``os.wait4``.  Every process runs pinned to one core, next to
``bench/probe.py``, which samples that core's speed; each process's wall
and CPU time are scaled to the reference speed REFERENCE_KERNEL_S before
they are summed, and the raw times are printed beside them.

Traced (``--trace 1``): each invocation runs once untraced and then once
under ``bench/tracer.py``, which adds spans around each layer from
outside the package; the per-layer metrics are summed over invocations.
The tracing overhead compares the two wall times, scaled the same way.

Every invocation's stdout is checked against its golden output.  Metric
names and units come from ``BENCHMARK.json``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``, the line before it
holds provenance and the raw samples, and stderr gets a table.  The exit
code is 1 when an output is wrong, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import ROOT, WORKLOADS, Invocation, child_env, failed_records, invocations

SETUP_PROBES = 5  # per iteration, so that set-up is sampled across the whole run
# bench/probe.py's kernel time at the reference speed: that of the fast
# state of the 2-vCPU Xeon VM the baseline was taken on.  Scaled times
# read as seconds on that core.
REFERENCE_KERNEL_S = 12e-6
DEADLINE_S = 170  # every run, traced or not, ends within this many seconds
PYTHON = sys.executable
SPAWN = [PYTHON, "-I", "-S", str(ROOT / "bench" / "spawn.py")]
PROBE = [PYTHON, "-I", "-S", str(ROOT / "bench" / "probe.py")]
PLAIN = [PYTHON, "-m", "grigcube.cli"]
TRACED = [PYTHON, str(ROOT / "bench" / "tracer.py")]


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str
    start: float = 0.0  # time.monotonic() readings
    end: float = 0.0
    metrics: dict = field(default_factory=dict)


def run_child(argv: list[str], env: dict, timeout: float) -> Child:
    """Run one process through bench/spawn.py and account for it alone."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen([*SPAWN, str(write_fd), str(max(timeout, 1.0)), *argv],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, pass_fds=(write_fd,))
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as report:
        out, err = proc.communicate()
        fields = report.read().split()
    stdout, stderr = out.decode("utf-8", "replace"), err.decode("utf-8", "replace")
    if len(fields) != 6:
        return Child(0.0, 0.0, 0.0, proc.returncode or -1, stdout, stderr)
    code, wall, cpu, rss_kb, start, end = fields
    return Child(float(wall), float(cpu), int(rss_kb) / 1024, int(code), stdout, stderr,
                 float(start), float(end))


def pin_to_one_core() -> int | None:
    """Run this process and all it starts on one core; None where that fails."""
    try:
        core = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return None
    return core


def speed_factor(start: float, end: float, samples: list[tuple[float, float]]) -> float:
    """Mean of REFERENCE_KERNEL_S / kernel time over the probe samples
    taken from start to end, or the nearest sample if none was.

    Time spent at a speed 1/f of the reference counts f times less, so
    wall * speed_factor is the time the same work takes at the
    reference speed.
    """
    inside = [took for at, took in samples if start <= at <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return statistics.fmean(REFERENCE_KERNEL_S / took for took in inside)


class SpeedProbe:
    """bench/probe.py, running for the life of a with block."""

    WARM_UP_S = 0.2  # the probe's first samples are in before the first child starts

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen(PROBE, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE)
        time.sleep(self.WARM_UP_S)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        out, _ = self.proc.communicate()
        self.samples = [(float(at), float(took))
                        for at, took in (line.split() for line in out.decode().splitlines())]

    def factor(self, child: Child) -> float:
        if not self.samples:
            raise RuntimeError("bench/probe.py reported no samples")
        return speed_factor(child.start, child.end, self.samples)


def hash_seed_for(seed: int) -> int:
    return random.Random(seed).randrange(1, 2**32)


class Tally:
    """Records attempted and failed against the goldens."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def check(self, inv: Invocation, stdout: str, exit_code: int, stderr: str) -> None:
        attempted, failed = failed_records(stdout, exit_code, inv, self.seed)
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"golden mismatch: {' '.join(inv.argv)} (exit {exit_code}, "
                  f"{failed}/{attempted} records)\n{stderr[-2000:]}", file=sys.stderr)


def iterate(invs: list[Invocation], traced: bool, env: dict,
            deadline: float, tally: Tally) -> list[Child]:
    children = []
    for inv in invs:
        child = run_child([*(TRACED if traced else PLAIN), *inv.argv], env,
                          deadline - time.perf_counter())
        children.append(child)
        if traced and child.exit == 0:
            report = json.loads(child.stdout.splitlines()[-1])
            tally.check(inv, report["stdout"], report["exit"], child.stderr)
            child.metrics = report["metrics"]
        else:
            tally.check(inv, child.stdout, child.exit, child.stderr)
    return children


def probe(env: dict) -> str:
    """The package version; also compiles the bytecode before set-up is timed."""
    child = run_child([PYTHON, "-c", "import grigcube, grigcube.cli; print(grigcube.__version__)"],
                      env, 60)
    if child.exit != 0:
        sys.stderr.write(child.stderr)
        print("error: cannot import grigcube from src/", file=sys.stderr)
        sys.exit(2)
    return child.stdout.strip()


def provenance(args, workload: str, hash_seed: int, version: str) -> dict:
    commit = "unknown"  # a checkout without .git; source_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "commit": commit, "source_sha256": digest.hexdigest(),
        "grigcube_version": version,
        "python": platform.python_version(), "cpu_model": cpu, "nproc": os.cpu_count(),
        "seed": args.seed, "hash_seed": hash_seed, "seconds": args.seconds,
        "core": args.core, "reference_kernel_s": REFERENCE_KERNEL_S,
        "trace": args.trace, "invocations": [list(inv.argv) for inv in
                                             invocations(workload, args.seed)],
    }


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_untraced(args, workload: str, env: dict, deadline: float) -> tuple[dict, dict, Tally]:
    tally = Tally(args.seed)
    invs = invocations(workload, args.seed)
    setups, iterations = [], []
    with SpeedProbe() as probe:
        started = time.perf_counter()
        while not iterations or (time.perf_counter() - started + last_wall <= args.seconds
                                 and time.perf_counter() + last_wall < deadline):
            setups += [run_child([PYTHON, "-c", "import grigcube.cli"], env, 60)
                       for _ in range(SETUP_PROBES)]
            iterations.append(iterate(invs, False, env, deadline, tally))
            last_wall = sum(c.wall for c in iterations[-1])
    series = {
        "wall_s": [sum(c.wall * probe.factor(c) for c in it) for it in iterations],
        "cpu_s": [sum(c.cpu * probe.factor(c) for c in it) for it in iterations],
        "peak_rss_mb": [max(c.rss_mb for c in it) for it in iterations],
        "setup_s": [c.wall * probe.factor(c) for c in setups],
        "raw_wall_s": [sum(c.wall for c in it) for it in iterations],
        "raw_cpu_s": [sum(c.cpu for c in it) for it in iterations],
        "raw_setup_s": [c.wall for c in setups],
        "speed": [probe.factor(c) for it in iterations for c in it],
    }
    values = {name: statistics.median(xs) for name, xs in series.items()}
    values["peak_rss_mb"] = max(series["peak_rss_mb"])
    return values, {name: summary(xs) for name, xs in series.items()}, tally


def run_traced(args, workload: str, env: dict, deadline: float) -> tuple[dict, dict, Tally]:
    tally = Tally(args.seed)
    values: dict = {}
    pairs = []
    with SpeedProbe() as probe:
        for inv in invocations(workload, args.seed):
            # each traced process runs right after its untraced twin, so that
            # both see the same machine
            pairs.append((*iterate([inv], False, env, deadline, tally),
                          *iterate([inv], True, env, deadline, tally)))
    for _, traced in pairs:
        for name, value in traced.metrics.items():
            values[name] = values.get(name, 0) + value
    # scaled to the reference speed, like the untraced wall_s
    plain_wall = sum(plain.wall * probe.factor(plain) for plain, _ in pairs)
    traced_wall = sum(traced.wall * probe.factor(traced) for _, traced in pairs)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    return values, {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}, tally


def run_workload(args, workload: str, version: str, declared: list) -> tuple[dict, Tally]:
    hash_seed = hash_seed_for(args.seed)
    env = child_env(hash_seed)
    runner = run_traced if args.trace else run_untraced
    values, samples, tally = runner(args, workload, env, time.perf_counter() + DEADLINE_S)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    detail = {"provenance": provenance(args, workload, hash_seed, version),
              "samples": samples,
              "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0}
    print(json.dumps(detail))
    print(f"\n{workload} (seed {args.seed}, hash seed {hash_seed}, "
          f"{'traced' if args.trace else 'untraced'})", file=sys.stderr)
    shown = [(name, metric["value"], metric["unit"]) for name, metric in metrics.items()]
    if not args.trace:
        shown += [(name, values[name], unit) for name, unit in
                  (("raw_wall_s", "s"), ("raw_cpu_s", "s"), ("raw_setup_s", "s"),
                   ("speed", "x"))]
    for name, value, unit in shown:
        extra = ""
        if name in samples:
            s = samples[name]
            extra = f"  {s['n']} samples, range {s['min']:.4g}..{s['max']:.4g}"
        print(f"  {name:<48} {value:>14.6g} {unit:<6}{extra}", file=sys.stderr)
    print(f"  {'error_rate':<48} {detail['error_rate']:>14.6g} "
          f"({tally.failed}/{tally.attempted} records)", file=sys.stderr)
    return metrics, tally


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as index:
        benchmark = json.load(index)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.core = pin_to_one_core()

    version = probe(child_env(hash_seed_for(args.seed)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in names:
        found, tally = run_workload(args, workload, version,
                                    benchmark["per_layer" if args.trace else "end_to_end"])
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in found.items()})
        attempted += tally.attempted
        failed += tally.failed
    correct = attempted > 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
