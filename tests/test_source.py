"""Checks on the package source itself, read as syntax trees."""

import ast
import re
import symtable
from pathlib import Path

import pytest

import grigcube

SOURCES = sorted(Path(grigcube.__file__).parent.glob("*.py"))


def _least_python():
    """The least version that pyproject.toml's requires-python names."""
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_source_parses_on_the_least_python(path):
    # the grammar of the least supported version, so syntax from a later
    # one, such as except*, fails here and not on a user's interpreter
    ast.parse(path.read_text(encoding="utf-8"), feature_version=_least_python())


def _arguments(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    named += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a for a in named if a.arg not in ("self", "cls")]


def _parameters(fn):
    return [a.arg for a in _arguments(fn)]


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


# defaulted parameters that no call inside the package varies, kept for a
# reason other than such a call
UNVARIED_DEFAULTS = {
    "cli.main(argv)": "the entry point; tests and bench/tracer.py pass argv",
}


def _defaulted(tree, module):
    """(module.function(parameter), function, parameter, position,
    default) for each defaulted parameter; position counts the positional
    parameters after self and cls, and is None for a keyword-only one.
    A class's __new__ goes by the class's name, which its callers call."""
    classes = {
        id(fn): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if getattr(fn, "name", None) == "__new__"
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = classes.get(id(fn), fn.name)
        args = fn.args
        positional = [a for a in args.posonlyargs + args.args if a.arg not in ("self", "cls")]
        pairs = [(a, positional.index(a), d)
                 for a, d in zip(positional[len(positional) - len(args.defaults):], args.defaults)]
        pairs += [(a, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for arg, position, default in pairs:
            yield f"{module}.{name}({arg.arg})", name, arg.arg, position, default


def _passed(trees):
    """(function, parameter or position, value) for each argument that a
    call inside the package passes.  A kwargs["parameter"] set in
    run_suite is passed to each suite of checks._SUITES, with value
    None."""
    passed, suites, suite_keys = [], set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                passed += [(name, k.arg, k.value) for k in node.keywords if k.arg]
                for i, value in enumerate(node.args):
                    if isinstance(value, ast.Starred):
                        break
                    passed.append((name, i, value))
            elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_SUITES":
                suites = {v.id for v in node.value.values}
            elif isinstance(node, ast.FunctionDef) and node.name == "run_suite":
                suite_keys = {
                    sub.slice.value for sub in ast.walk(node)
                    if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)
                    and getattr(sub.value, "id", None) == "kwargs"
                }
    return passed + [(suite, key, None) for suite in suites for key in suite_keys]


def test_every_default_is_varied():
    # a default that every caller keeps is a constant with a parameter's
    # surface; tests do not count as callers
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    passed = _passed(trees.values())
    unvaried = {
        label
        for module, tree in trees.items()
        for label, fn, param, position, default in _defaulted(tree, module)
        if not any(
            name == fn and key in (param, position)
            and (value is None or ast.dump(value) != ast.dump(default))
            for name, key, value in passed
        )
    }
    assert unvaried == set(UNVARIED_DEFAULTS)


def _functions_where(path, match):
    """The functions of a module that hold a node for which match is
    true, as module.function; a node at module level is under the
    module's name alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            if match(child):
                found.add(owner)
            visit(child, owner)

    visit(tree, path.stem)
    return found


def _calls_by_function(path, attr):
    """The functions of a module that call a method or function named
    attr."""
    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == attr

    return _functions_where(path, calls)


@pytest.mark.parametrize("name", ["is_repetition_free", "UnsupportedOmegaError"])
def test_one_gate_decides_repetition_freeness(name):
    # only the gate of the element layer asks whether a sequence is
    # repetition-free and raises on it, so the one place to change which
    # sequences a computation accepts is that function
    callers = set().union(*(_calls_by_function(p, name) for p in SOURCES))
    assert callers == {"elements._require_distinct_letters"}


def test_one_walk_extends_restriction_words():
    # the wreath step is folded over a word by _sections and over the
    # spheres by _grow_ball; a second walk over a ball that derives the
    # restriction words again would be a third caller
    callers = set().union(*(_calls_by_function(p, "_extend") for p in SOURCES))
    assert callers == {"elements._sections", "elements._grow_ball"}


def test_one_walk_finds_ball_stabilizers():
    # the fixers of vertices come from one pass, which stab, bound,
    # faithful and the restriction lemma read; a second walk would be a
    # second answer to whether g fixes v
    callers = set().union(*(_calls_by_function(p, "ball_action") for p in SOURCES))
    assert callers == {"cubes._ball_fixers"}


def test_one_reader_of_the_ball_table():
    # the length check, the gate and the grow-or-slice of a ball are
    # made in one place, which the elements and the walk of words read
    callers = set().union(*(_calls_by_function(p, "_ball_words") for p in SOURCES))
    assert callers == {"elements.enumerate_ball", "cubes.ball_action"}


def test_two_readers_of_the_ball_table():
    # _ball_words grows the balls and slices their words from the sphere
    # strings, and ball_sections reads the spans kept beside them; no
    # other function depends on the shape of the table
    def reads(node):
        return isinstance(node, ast.Name) and node.id == "_longest" and isinstance(node.ctx, ast.Load)

    readers = set().union(*(_functions_where(p, reads) for p in SOURCES))
    assert readers == {"elements._ball_words", "elements.ball_sections"}


# private names that one module of the package imports from another,
# each with the reason it crosses the boundary
PRIVATE_IMPORTS = {
    "checks: cubes._ball_fixers": "faithful reads the one walk of fixers",
    "checks: cubes._planned_walk": "run_suite plans one walk per sequence for its ball suites",
    "checks: gamma._coordinate": "the bound sample turns its random rays into coordinates",
    "checks: gamma._window_signs": "the locality scan compares sign bytes of its window",
    "checks: stabilizers._HALF_LINES": "stab and the plan of the walk ask for the half-lines' fixers",
    "cubes: elements._ball_words": "ball_action walks the words of the ball table, not its elements",
    "cubes: gamma._IDENTITY": "ball_action starts from the identity's byte table",
    "cubes: gamma._OFFSET": "ball_action and _ball_fixers read the byte tables of the line",
    "cubes: gamma._REACH": "_ball_fixers decides once per request whether the byte tables reach it",
    "cubes: gamma._byte_tables": "ball_action grows each table from a letter's table",
    "cubes: gamma._coordinate": "a vertex is parsed and flipped by ray",
    "cubes: gamma._push": "δ and act push points through a word; the walk of _ball_fixers pushes none",
    "elements: gamma._coordinate": "apply acts on rays through the coordinate",
    "stabilizers: cubes._ball_fixers": "stab, bound and the restriction lemma read the one walk",
}


def _private_imports(path):
    """module: source._name for each private name that a relative
    import of the module binds, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        f"{path.stem}: {node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_imports_are_listed():
    # a private helper that crosses a module boundary is part of that
    # boundary; the byte encoding of the line stays inside gamma and
    # cubes unless a reason here says otherwise
    found = set().union(*(_private_imports(p) for p in SOURCES))
    assert found == set(PRIVATE_IMPORTS)


def test_one_identity_byte_table():
    # the letter tables and the window of any radius within the byte
    # reach start from the identity's table, so no second one is built
    calls = [f"{path.stem}: {ast.unparse(node)}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("bytes", "bytearray")
             and node.args and "range(" in ast.unparse(node.args[0])]
    assert calls == ["gamma: bytes(range(256))"]


def test_one_version_string():
    # bench/run.py prints grigcube.__version__ as the provenance of a
    # run, so it must be the version that pyproject.toml installs
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    found = re.search(r'^version = "([^"]+)"$',
                      pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert found[1] == grigcube.__version__


def test_samples_are_drawn_only_by_their_helpers():
    # a generator built in a suite would draw its sample again for each
    # sequence; the helpers draw each sample once per run, and no other
    # module of the package draws at all
    callers = set().union(*(_calls_by_function(p, "Random") for p in SOURCES))
    assert callers == {
        "checks._commensuration_sample",
        "checks._bound_sample",
    }


def test_no_parameter_takes_a_callable():
    # a membership test passed in as a callable is a second way to say
    # which elements fix something; the vertex says it
    annotated = [
        f"{path.stem}.{fn.name}({arg.arg})"
        for path in SOURCES
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in _arguments(fn)
        if arg.annotation is not None and "Callable" in ast.unparse(arg.annotation)
    ]
    assert annotated == []


def test_stabilizers_keep_no_memo_table():
    # the ball suites walk ball_action and the predicates read the
    # bounded δ table of cubes, so no table of stabilizers outlives a call
    path = next(p for p in SOURCES if p.stem == "stabilizers")
    assert "lru_cache" not in _loaded_names(path)


# names exported for a reason other than a caller inside the package
UNCALLED_EXPORTS = {
    "apply": "a span of bench/tracer.py",
    "ball": "a span of bench/tracer.py",
    "neighbors": "a span of bench/tracer.py",
    "fixed_vertex_for_subgroup": "the E_FIN claim, checked by pytest only",
}


def _loaded_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _called_names(source):
    """The names through which a module may call something it did not
    define in the calling scope: each name its module scope references,
    each name a function or class scope references as a global, free or
    imported name, and each attribute it loads.  A local variable of a
    function is none of these, so it does not count as a call of the
    export of the same name."""
    top = symtable.symtable(source, "<module>", "exec")
    names, tables = set(), [top]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        names.update(
            symbol.get_name() for symbol in table.get_symbols()
            if symbol.is_referenced() and (table is top or symbol.is_global()
                                           or symbol.is_free() or symbol.is_imported()))
    names.update(
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return names


def test_a_local_variable_calls_no_export():
    # an export that appears elsewhere only as a local variable has no
    # caller; a name imported inside a function and called does
    source = (
        "def ball(radius):\n"
        "    return radius\n"
        "def grow(n):\n"
        "    ball = [n]\n"
        "    return [x for x in ball]\n"
        "def handler():\n"
        "    from .gamma import to_dot\n"
        "    return to_dot(grow(1))\n"
    )
    called = _called_names(source)
    assert "ball" not in called
    assert {"grow", "to_dot"} <= called


def test_every_export_has_a_caller():
    # a public name that no module of the package references is surface
    # that no command, suite or claim runs
    called = set().union(*(_called_names(p.read_text(encoding="utf-8"))
                           for p in SOURCES if p.stem != "__init__"))
    uncalled = set(grigcube.__all__) - called
    assert uncalled == set(UNCALLED_EXPORTS)


# class members that no attribute load in the package reads, kept for a
# reason other than such a read
UNREAD_MEMBERS = {
    "gamma.LabelledEdge.source": "the package reads it by unpacking the tuple",
    "gamma.LabelledEdge.target": "the package reads it by unpacking the tuple",
    "gamma.LabelledEdge.label": "the package reads it by unpacking the tuple",
}


def _members(path):
    """module.Class.member for each method, property and annotated field
    of each class in a module, and each field named in the field string
    of a namedtuple("Class", "...") base, dunders skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [
            field
            for base in cls.bases
            if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"
            for field in base.args[1].value.replace(",", " ").split()
        ]
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{path.stem}.{cls.name}.{name}", name


def _read_attributes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_member_has_a_reader():
    # a member that nothing in the package reads is surface that no
    # command, suite or claim runs; like the exports, it matches by name
    read = set().union(*(_read_attributes(p) for p in SOURCES))
    members = {label: name for p in SOURCES for label, name in _members(p)}
    assert {
        "omega.OmegaSequence.preperiod", "omega.OmegaSequence.period",
        "gamma.Ray.digits", "elements.GroupElement.omega", "elements.GroupElement.word",
    } <= set(members)
    unread = {label for label, name in members.items() if name not in read}
    assert unread == set(UNREAD_MEMBERS)
