"""Run one grigcube CLI invocation in-process with spans around each layer.

Usage (from the repository root):

    PYTHONPATH=src PYTHONHASHSEED=1 python3 bench/tracer.py check --suite stab

The spans are recorded from outside the package: every public function
named in SPANS is replaced, in every grigcube module that binds it, by a
wrapper that counts calls and times them.  The suite functions in
``checks._SUITES`` are spans too, and ``OmegaSequence.at`` and
``OmegaSequence.shift`` are counted without timing, because ``at`` runs
millions of times.  The memo tables are read through references to the
original ``lru_cache`` objects taken before wrapping.  A function that
no longer exists is skipped, so its metrics are absent rather than 0.

Prints one JSON object on stdout: the CLI's exit code, the text it wrote
to stdout and the per-layer metrics.  Counts are exact for a fixed
PYTHONHASHSEED; ``cli.stdout_bytes`` is counted with ``elapsed_ms``
masked so that it is exact too.  Times are wall-clock seconds from
``time.perf_counter``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

from workloads import mask

MODULES = ("omega", "elements", "gamma", "cubes", "stabilizers", "checks", "cli")

# Public functions timed as spans, by the module that defines them.
SPANS = {
    "elements": ("reduce_word", "decompose", "apply", "enumerate_ball"),
    "gamma": ("ball", "line_coordinate", "neighbors", "to_dot", "edge_records"),
    "cubes": ("act", "commensuration_delta"),
    "stabilizers": (
        "stabilizes_gamma_plus_tilde",
        "stabilizer_in_ball",
        "verify_restriction_lemma",
        "stabilizer_bound_check",
    ),
    "cli": ("main",),
}

# Memo tables: metric prefix -> (module, name of the lru_cache object).
CACHES = {
    "elements.key_cache": ("elements", "_canonical_key"),
    "elements.trivial_cache": ("elements", "_is_trivial"),
    "gamma.coord_cache": ("gamma", "line_coordinate"),
    "cubes.delta_cache": ("cubes", "_commensuration"),
}


class Tracer:
    """Call counts, total and self times of wrapped functions.

    A span's self time is its duration minus the time of the spans it
    called.  Total time is added only at the outermost call of a
    function, so recursion is not counted twice.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, depth]
        self.counts: dict[str, list] = {}  # name -> [calls]
        self.sizes: dict[str, int] = {}
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, size=None):
        """Wrap fn as a span; size(result) is summed into sizes[name]."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        if size is not None:
            self.sizes.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if size is not None:
                self.sizes[name] += size(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        stat = self.counts.setdefault(name, [0])

        def wrapper(*args):
            stat[0] += 1
            return fn(*args)

        return wrapper


def _built_size(cached):
    """Size of each result that the memoised function actually built."""
    misses = [0]

    def size(result):
        now = cached.cache_info().misses
        built, misses[0] = now != misses[0], now
        return len(result) if built else 0

    return size


def install(tracer: Tracer) -> dict:
    """Wrap the package's layers; returns the original memo tables."""
    package = importlib.import_module("grigcube")
    modules = {name: importlib.import_module(f"grigcube.{name}") for name in MODULES}
    namespaces = [package, *modules.values()]
    caches = {
        prefix: getattr(modules[mod], attr)
        for prefix, (mod, attr) in CACHES.items()
        if hasattr(getattr(modules[mod], attr, None), "cache_info")
    }

    enumerate_ball = getattr(modules["elements"], "enumerate_ball", None)
    sizes = {
        "gamma.ball": len,
        "elements.enumerate_ball": (
            _built_size(enumerate_ball) if hasattr(enumerate_ball, "cache_info") else len
        ),
    }

    for mod, names in SPANS.items():
        for name in names:
            original = getattr(modules[mod], name, None)
            if original is None:
                continue
            metric = f"{mod}.{name}"
            wrapped = tracer.span(metric, original, sizes.get(metric))
            for namespace in namespaces:
                for bound_name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, bound_name, wrapped)

    suites = getattr(modules["checks"], "_SUITES", {})
    for suite, fn in list(suites.items()):
        suites[suite] = tracer.span(f"checks.{suite}", fn)

    omega_cls = modules["omega"].OmegaSequence
    for method in ("at", "shift"):
        original = getattr(omega_cls, method, None)
        if original is not None:
            setattr(omega_cls, method, tracer.counter(f"omega.{method}", original))
    return caches


def metrics(tracer: Tracer, caches: dict) -> dict:
    out = {}
    for name, (calls, total, self_time, _) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_time
    for name, (calls,) in tracer.counts.items():
        out[f"{name}.calls"] = calls
    out["elements.enumerate_ball.elements"] = tracer.sizes.get("elements.enumerate_ball")
    out["gamma.ball.vertices"] = tracer.sizes.get("gamma.ball")
    for prefix, cached in caches.items():
        info = cached.cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
        out[f"{prefix}.size"] = info.currsize
    return {name: value for name, value in out.items() if value is not None}


def main(argv: list[str]) -> int:
    tracer = Tracer()
    caches = install(tracer)
    cli = importlib.import_module("grigcube.cli")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    text = captured.getvalue()
    result = metrics(tracer, caches)
    result["cli.stdout_bytes"] = len(mask(text).encode("utf-8"))
    json.dump({"exit": code, "stdout": text, "metrics": result}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
