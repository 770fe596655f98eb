"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import grigcube

SOURCES = sorted(Path(grigcube.__file__).parent.glob("*.py"))


def _parameters(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    named += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in named if a.arg not in ("self", "cls")]


def _unread_parameters(path):
    """(function, parameter) pairs whose parameter the body never loads;
    a read inside a nested function or lambda counts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in _parameters(fn):
            if name not in read:
                yield f"{path.stem}.{fn.name}({name})"


def test_every_parameter_is_read():
    # a value the body never reads is one the caller need not pass
    assert {p.stem for p in SOURCES} >= {"cubes", "gamma", "stabilizers", "checks"}
    unread = [item for path in SOURCES for item in _unread_parameters(path)]
    assert unread == []
