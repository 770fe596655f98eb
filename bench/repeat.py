"""Run the benchmark over several seeds and report the spread of each metric.

Usage, from the repository root:

    python3 bench/repeat.py --workload check-default --seeds 201-205
    python3 bench/repeat.py --seeds 201-210 --traced 2 --out bench/results/baseline.json

For each workload, runs ``bench/run.py`` once per seed, one run after
another, with the settings in ``BENCHMARK.json``.  For each end-to-end
metric it prints the median of the runs and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
over the median, next to a third of the metric's bound.  With
``--traced N`` it also makes N traced runs with the first seed and
checks that their counts agree.  ``--out`` writes it all as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import ROOT, WORKLOADS

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run([*RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seeds", type=seeds, default=seeds("201-210"))
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in benchmark["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result: dict = {
        "claim": None,
        "what": f"{len(args.seeds)} untraced runs per workload (seeds {args.seeds[0]}-"
                f"{args.seeds[-1]}) and {args.traced} traced runs per workload (seed "
                f"{args.seeds[0]}), one after another, made with bench/repeat.py and the "
                f"settings in BENCHMARK.json",
        "end_to_end": {}, "error_rate": {}, "per_layer": {}, "per_layer_counts_repeat": {},
    }
    for workload in names:
        runs = []
        for seed in args.seeds:
            detail, last = run(workload, seed, 0, seconds)
            runs.append((seed, detail, last))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.5g}" for name, m in last["metrics"].items()),
                file=sys.stderr, flush=True)
        result["provenance"] = {k: v for k, v in runs[0][1]["provenance"].items()
                                if k not in ("workload", "seed", "hash_seed", "invocations",
                                             "trace")}
        table = result["end_to_end"][workload] = {}
        for name, (unit, bound) in bounds.items():
            values = [last["metrics"][name]["value"] for _, _, last in runs]
            table[name] = {"unit": unit, **spread(values), "values": values,
                           "seeds": args.seeds,
                           "samples_per_run": [d["samples"][name]["n"] for _, d, _ in runs]}
            ok = "ok" if table[name]["spread"] < bound / 3 or name == "setup_s" else "WIDE"
            print(f"{workload:<14} {name:<12} median {table[name]['median']:10.5g} {unit:<3} "
                  f"spread {table[name]['spread']:.4f} (bound/3 {bound / 3:.4f}) {ok}")
        for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s", "speed"):
            values = [d["samples"][name]["median"] for _, d, _ in runs]
            table[name] = {**spread(values), "values": values}
            print(f"{workload:<14} {name:<12} median {table[name]['median']:10.5g}     "
                  f"spread {table[name]['spread']:.4f} (not scaled to the reference speed)")
        result["error_rate"][workload] = max(d["error_rate"] for _, d, _ in runs)
        if args.traced:
            traced = [run(workload, args.seeds[0], 1, seconds)[1]["metrics"]
                      for _ in range(args.traced)]
            counts = [{k: m["value"] for k, m in t.items() if m["unit"] == "count"}
                      for t in traced]
            result["per_layer"][workload] = {k: m["value"] for k, m in traced[0].items()}
            result["per_layer_counts_repeat"][workload] = all(c == counts[0] for c in counts)
            print(f"{workload:<14} traced counts repeat: "
                  f"{result['per_layer_counts_repeat'][workload]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
