"""Fail when a statement of the package runs in no tier-1 test.

Runs the tier-1 suite in this process under ``sys.settrace`` and lists
each statement of ``src/grigcube`` that no test executed, unless
UNEXECUTED names it with a reason.  Statements that only a child process
runs, such as the console script's entry point, are not seen by the
tracer.  Usage, from the root of the repository:

    PYTHONPATH=src python tests/linetrace.py [pytest args]

The exit code is pytest's when tier 1 fails, else 1 when a statement is
unexecuted and not listed, or a listed one ran or no longer exists, and
0 otherwise.  Tracing makes tier 1 several times slower, so this is not
part of tier 1 itself.
"""

import ast
import os
import sys
from pathlib import Path

PACKAGE = (Path(__file__).parent.parent / "src" / "grigcube").resolve()

# "module: statement" for each statement that no in-process test can
# run, with the reason; keyed by text, not line, so an edit elsewhere in
# the module does not move it
UNEXECUTED = {
    "cli: sys.exit(main())":
        "the __main__ guard runs only under python -m grigcube.cli, which the benchmark runs",
}


def _docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(path: Path):
    """(text, own lines) of each statement that compiles to code: its
    lines that no nested statement holds.  Docstrings and the bare
    ``try:`` line compile to nothing, so they are left out; a try's
    body and handlers are statements of their own."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _docstring(node) or isinstance(node, ast.Try):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(start, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield f"{path.stem}: {lines[node.lineno - 1].strip()}", own


def _trace(run, owners: dict):
    """run()'s result and the statements of owners that it executed.

    owners maps each file to the statement that owns each of its lines.
    The global tracer is asked at every call; it line-traces a frame
    only while its code object has a line whose statement has not run,
    so hot code costs little once each of its statements has run.  Each
    such code object gets one local tracer, kept for the whole run, so
    no frame leaves a closure behind for the garbage collector."""
    owned: dict = {}
    for owner in owners.values():
        for line, statement in owner.items():
            owned.setdefault(statement, set()).add(line)
    executed: set = set()
    # per statement not yet run, the fresh line sets that hold its lines
    waiting: dict = {}
    fresh_lines: dict = {}
    local_tracers: dict = {}

    def local_tracer(fresh: set, owner: dict):
        def lines(frame, event, arg):
            line = frame.f_lineno
            if line in fresh:
                statement = owner[line]
                executed.add(statement)
                for other in waiting.pop(statement):
                    other.difference_update(owned[statement])
                if not fresh:
                    frame.f_trace_lines = False
            return lines
        return lines

    def tracer(frame, event, arg):
        code = frame.f_code
        fresh = fresh_lines.get(code)
        if fresh is None:
            owner = owners.get(os.path.realpath(code.co_filename), {})
            fresh = fresh_lines[code] = {line for _, _, line in code.co_lines()
                                         if line in owner and owner[line] not in executed}
            for statement in {owner[line] for line in fresh}:
                waiting.setdefault(statement, []).append(fresh)
            if fresh:
                local_tracers[code] = local_tracer(fresh, owner)
        return local_tracers[code] if fresh else None

    sys.settrace(tracer)
    try:
        return run(), executed
    finally:
        sys.settrace(None)


class _NoDeadline:
    """A pytest plugin that lifts Hypothesis's deadline, which a traced
    example can exceed."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("linetrace", deadline=None)
        settings.load_profile("linetrace")


def main(argv: list[str]) -> int:
    import pytest

    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        owner = owners[str(path)] = {}
        for text, own in _statements(path):
            owner.update(dict.fromkeys(own, (text, min(own))))
    status, executed = _trace(
        lambda: pytest.main(["-q", *argv], plugins=[_NoDeadline()]),
        owners)
    if status != 0:
        return int(status)
    unexecuted = {statement for owner in owners.values() for statement in owner.values()
                  if statement not in executed}
    texts = {text for text, _ in unexecuted}
    missing = sorted((line, text) for text, line in unexecuted if text not in UNEXECUTED)
    stale = sorted(set(UNEXECUTED) - texts)
    for line, text in missing:
        print(f"unexecuted, line {line}: {text}")
    for text in stale:
        print(f"listed in UNEXECUTED but executed or gone: {text}")
    print(f"{len(unexecuted)} unexecuted statements, {len(UNEXECUTED)} listed")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
