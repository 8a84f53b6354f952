"""Command-line front end.

Subcommands: parse, frame check, frame classify, alg classify, dual cm,
dual ult, enum, eval, verify, meet-axiom.  Results go to stdout and
diagnostics to stderr.  Exit codes: 0 success, 1 a requested property
check came out false, 2 usage or parse errors, 3 size or budget
violations, 4 an internal error (a defect, never a verdict).  The
environment variable D2_BUDGET overrides the brute-force evaluation
budget.  Each handler imports the modules it runs, so that a command
(or --help) does not pay for importing the whole library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import BudgetError, Depth2Error, DomainError, SizeError

if TYPE_CHECKING:
    from .frames import Frame

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4


def _budget() -> int | None:
    raw = os.environ.get("D2_BUDGET")
    if raw is None:
        return None
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise DomainError(f"D2_BUDGET must be an integer >= 1, got {raw!r}")


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _parse_valuation(text: str, n_worlds: int) -> dict[str, int]:
    """World masks from a JSON object mapping names to lists of worlds."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise DomainError("valuation must be a JSON object mapping variable "
                          "names to lists of worlds")
    valuation = {}
    for name, worlds in raw.items():
        # bools are ints in Python; refuse them with floats and strings
        if not isinstance(worlds, list) or not all(
            type(w) is int and 0 <= w < n_worlds for w in worlds
        ):
            raise DomainError(f"valuation of {name!r} must be a list of worlds "
                              f"in 0..{n_worlds - 1}, got {worlds!r}")
        valuation[name] = sum(1 << w for w in set(worlds))
    return valuation


def _load_frame(path: str) -> Frame:
    from .frames import frame_from_dict
    return frame_from_dict(_load_json(path))


def _worlds(mask: int) -> list[int]:
    from .boolean import atom_indices
    return list(atom_indices(mask))


def _cmd_parse(args) -> int:
    from .formulas import parse_formula, print_formula
    print(print_formula(parse_formula(args.formula)))
    return EXIT_OK


def _cmd_frame_check(args) -> int:
    frame = _load_frame(args.file)
    if args.condition is not None:
        from .frames import frame_condition
        holds, witness = frame_condition(frame, args.condition)
        if holds:
            print(f"condition {args.condition}: holds")
            return EXIT_OK
        print(f"condition {args.condition}: fails, witness worlds {witness}")
        return EXIT_CHECK_FAILED
    from .formulas import axiom
    from .semantics import frame_validates
    formula = axiom(args.axiom)
    valid, valuation = frame_validates(frame, formula, budget=_budget())
    if valid:
        print(f"axiom {args.axiom}: valid")
        return EXIT_OK
    shown = {k: _worlds(v) for k, v in valuation.items()}
    print(f"axiom {args.axiom}: fails under valuation {json.dumps(shown)}")
    return EXIT_CHECK_FAILED


def _cmd_frame_classify(args) -> int:
    from .frames import classify_extremal, cluster_poset, frame_condition
    frame = _load_frame(args.file)
    print(f"worlds: {frame.n_worlds}")
    if not frame_condition(frame, "quasiorder")[0]:
        print("not a quasiorder: no cluster structure")
        return EXIT_OK
    poset = cluster_poset(frame)
    print(f"depth: {poset.depth}")
    for level in range(1, poset.depth + 1):
        groups = [
            "{" + ",".join(map(str, members)) + "}"
            for members, lvl in zip(poset.clusters, poset.levels)
            if lvl == level
        ]
        print(f"level {level}: " + " ".join(groups))
    matches = sorted(classify_extremal(frame))
    if matches:
        for kind, u_mask, v_mask in matches:
            print(f"extremal: {kind} U={_worlds(u_mask)} V={_worlds(v_mask)}")
    else:
        print("extremal: none")
    return EXIT_OK


def _cmd_alg_classify(args) -> int:
    from .operators import (algebra_from_dict, classify_algebra, irreducibility,
                            operator_properties)
    algebra = algebra_from_dict(_load_json(args.file))
    # first, so an algebra over the size bound is refused before any output
    labels = sorted(str(label) for label in classify_algebra(algebra))
    props = operator_properties(algebra)
    closed = sorted(algebra.closed_elements())
    print(f"atoms: {algebra.n_atoms}")
    print(f"closure: {props.closure}  interior: {props.interior}")
    print(f"closed elements: {closed}")
    print("classes: " + (", ".join(labels) if labels else "none"))
    if props.closure:
        verdict = irreducibility(algebra)
        extra = "" if verdict.witness is None else f", witness {verdict.witness}"
        print(f"irreducibility: {verdict.kind.value}{extra}")
    return EXIT_OK


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_dual(args) -> int:
    from .duality import canonical_frame, complex_algebra
    from .operators import algebra_from_dict
    if args.direction == "cm":
        algebra = complex_algebra(_load_frame(args.file))
        _emit(algebra.to_dict(), args.out)
    else:
        frame = canonical_frame(algebra_from_dict(_load_json(args.file)))
        _emit(frame.to_dict(), args.out)
    return EXIT_OK


def _cmd_enum(args) -> int:
    from .frames import enumerate_frames
    frames = enumerate_frames(
        args.worlds, quasiorder=args.quasiorder, max_depth=args.max_depth
    )
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in frames]))
    else:
        for i, frame in enumerate(frames):
            print(f"{i}: worlds={frame.n_worlds} edges={frame.edges()}")
        print(f"total: {len(frames)}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .formulas import parse_formula
    from .semantics import eval_in_model, frame_validates
    frame = _load_frame(args.frame)
    formula = parse_formula(args.formula)
    everything = (1 << frame.n_worlds) - 1
    if args.valuation is not None:
        valuation = _parse_valuation(args.valuation, frame.n_worlds)
        result = eval_in_model(frame, valuation, formula)
        print(f"worlds: {_worlds(result)}")
        print(f"true everywhere: {result == everything}")
        return EXIT_OK
    valid, valuation = frame_validates(frame, formula, budget=_budget())
    if valid:
        print("valid")
        return EXIT_OK
    shown = {k: _worlds(v) for k, v in valuation.items()}
    print(f"invalid under valuation {json.dumps(shown)}")
    return EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    from .verify import run_all, run_suite
    bounds = {"atoms": args.atoms, "worlds": args.worlds}  # None: the default
    if args.suite is not None:
        reports = [run_suite(args.suite, **bounds)]
    else:
        reports = run_all(**bounds)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for report in reports:
            print(report.summary())
        for report in reports:
            for instance, expected, got in report.failures:
                print(f"FAIL {report.suite}: {instance}: expected {expected}, "
                      f"got {got}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _cmd_meet_axiom(args) -> int:
    from .formulas import meet_axiom, parse_formula, print_formula
    left = parse_formula(args.left)
    right = parse_formula(args.right)
    print(print_formula(meet_axiom(left, right)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depth2-kit",
        description="finite depth-two closure algebras and their frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and echo a formula")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_parse)

    frame = sub.add_parser("frame", help="frame checks and classification")
    frame_sub = frame.add_subparsers(dest="frame_command", required=True)
    p = frame_sub.add_parser("check", help="check a condition or axiom")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--condition")
    group.add_argument("--axiom")
    p.set_defaults(handler=_cmd_frame_check)
    p = frame_sub.add_parser("classify", help="cluster poset and extremal kinds")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_frame_classify)

    alg = sub.add_parser("alg", help="algebra classification")
    alg_sub = alg.add_subparsers(dest="alg_command", required=True)
    p = alg_sub.add_parser("classify", help="families, irreducibility, closed set")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_alg_classify)

    dual = sub.add_parser("dual", help="duality maps")
    dual_sub = dual.add_subparsers(dest="direction", required=True)
    for direction, text in (("cm", "complex algebra of a frame file"),
                            ("ult", "canonical frame of an algebra file")):
        p = dual_sub.add_parser(direction, help=text)
        p.add_argument("file")
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("enum", help="enumerate frames up to isomorphism")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--quasiorder", action="store_true")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("eval", help="evaluate a formula on a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--valuation", default=None,
                   help='JSON like {"p": [0, 2]} mapping variables to worlds')
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default=None)
    p.add_argument("--atoms", type=int, default=None)
    p.add_argument("--worlds", type=int, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("meet-axiom", help="variable-disjoint boxed disjunction")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_meet_axiom)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SizeError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (Depth2Error, KeyError, OSError, json.JSONDecodeError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must not read as a false check
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
