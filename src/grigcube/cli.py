"""Command line interface.

One JSON record per line on stdout; a human-readable summary on stderr.
Exit codes: 0 all checks passed, 1 at least one failed, 2 usage error,
3 a requested computation is unsupported for the given sequence.

Each command is its own process, so each command imports the layers it
runs inside its handler, and ``json`` only where it writes JSON: a
``schreier`` run loads omega and gamma alone.
"""

from __future__ import annotations

import argparse
import sys

from .omega import DEFAULT_OMEGAS, SUITE_NAMES, OmegaSequence, UnsupportedOmegaError


def _count(text: str) -> int:
    """A non-negative integer flag; a negative one would make a check
    vacuous or a ball empty."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_omegas(values: list[str] | None) -> list[OmegaSequence]:
    texts = values if values else list(DEFAULT_OMEGAS)
    return [OmegaSequence.parse(text) for text in texts]


def exit_code_for(statuses: list[str]) -> int:
    if any(s == "unsupported" for s in statuses):
        return 3
    if any(s == "fail" for s in statuses):
        return 1
    return 0


def _cmd_check(args) -> int:
    from .checks import run_suite

    omegas = _parse_omegas(args.omega)
    reports = run_suite(args.suite, omegas, max_len=args.max_len, seed=args.seed)
    statuses = []
    for report in reports:
        print(report.to_json())
        statuses.append(report.status)
    passed = statuses.count("pass")
    failed = statuses.count("fail")
    skipped = statuses.count("unsupported")
    summary = f"{passed} passed, {failed} failed"
    if skipped:
        summary += f", {skipped} unsupported"
    print(summary, file=sys.stderr)
    return exit_code_for(statuses)


def _cmd_orbit(args) -> int:
    import json

    from .cubes import CubeVertex, orbit_growth

    omega = OmegaSequence.parse(args.omega)
    vertex = CubeVertex.parse(args.vertex)
    for row in orbit_growth(omega, vertex, args.max_len):
        print(json.dumps({
            "length": row.length,
            "max_distance": row.max_distance,
            "witness_word": row.witness_word,
        }, ensure_ascii=False))
    print(f"orbit of {vertex.text()} under {omega} up to length {args.max_len}",
          file=sys.stderr)
    return 0


def _cmd_schreier(args) -> int:
    from .gamma import edge_records, to_dot

    omega = OmegaSequence.parse(args.omega)
    if args.format == "dot":
        sys.stdout.write(to_dot(omega, args.radius))
    else:
        import json

        for record in edge_records(omega, args.radius):
            print(json.dumps(record, ensure_ascii=False))
    print(f"ball of radius {args.radius} around the all-zero ray",
          file=sys.stderr)
    return 0


def _cmd_act(args) -> int:
    import json

    from .cubes import CubeVertex, act, distance
    from .elements import GroupElement

    omega = OmegaSequence.parse(args.omega)
    g = GroupElement.from_word(omega, args.word)
    vertex = CubeVertex.parse(args.vertex)
    image = act(g, vertex)
    print(json.dumps({
        "result": image.text(),
        "distance": distance(vertex, image),
    }, ensure_ascii=False))
    print(f"{args.word or '1'} moves {vertex.text()} to {image.text()}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grigcube",
        description="Verify statements about Grigorchuk groups acting on a "
        "line Schreier graph and its cube complex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    check.add_argument("--omega", action="append",
                       help="sequence as pre:period, repeatable")
    check.add_argument("--max-len", type=_count, default=None)
    check.add_argument("--seed", type=_count, default=0)
    check.set_defaults(func=_cmd_check)

    orbit = sub.add_parser("orbit", help="orbit growth of a cube vertex")
    orbit.add_argument("--omega", required=True)
    orbit.add_argument("--vertex", default="∅")
    orbit.add_argument("--max-len", type=_count, default=10)
    orbit.set_defaults(func=_cmd_orbit)

    schreier = sub.add_parser("schreier", help="labelled ball as DOT or JSON lines")
    schreier.add_argument("--omega", required=True)
    schreier.add_argument("--radius", type=_count, default=3)
    schreier.add_argument("--format", choices=("dot", "jsonl"), default="dot")
    schreier.set_defaults(func=_cmd_schreier)

    act_cmd = sub.add_parser("act", help="apply a word to a cube vertex")
    act_cmd.add_argument("--omega", required=True)
    act_cmd.add_argument("--word", required=True)
    act_cmd.add_argument("--vertex", default="∅")
    act_cmd.set_defaults(func=_cmd_act)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return args.func(args)
    except UnsupportedOmegaError as err:
        print(str(err), file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
