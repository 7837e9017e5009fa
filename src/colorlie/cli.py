"""Command-line front end.

Subcommands: ``check``, ``invariants``, ``der``, ``verify``,
``catalog list|emit``. Targets are either a path to an algebra file or
``catalog:NAME``. ``--json`` switches to a machine report on stdout;
machine reports are byte-identical across runs for a fixed input (so they
carry no wall-clock timings; the human output does).

Exit codes: 0 when every requested check passed, 1 when some check
failed, 2 for usage, file, or validation errors.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from functools import cache

from . import catalog
from .derivations import (
    DEFAULT_MAX_N,
    _dim,
    n_derivation_space,
    verify_ad_compat,
    verify_centralizer_trivial,
    verify_closure,
    verify_delta_membership,
    verify_inner_ideal,
    verify_nder_equals_der,
    verify_second_statement,
)
from .errors import BadArity, ColorLieError, ParseError, PreconditionFailed, ValidationError
from .fileio import Records, json_text, parse_algebra, serialize_algebra
from .scalars import format_scalar

CLOSURE_TRIALS = 100


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        metavar="K",
        help=f"override the n cost cap (default {DEFAULT_MAX_N})",
    )

    parser = argparse.ArgumentParser(
        prog="colorlie",
        description="Exact derivation computations on Lie color algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="run the axiom checks")
    p.add_argument("target", help="algebra file path or catalog:NAME")

    p = sub.add_parser(
        "invariants", parents=[common], help="derived subalgebra, center, perfectness"
    )
    p.add_argument("target")

    p = sub.add_parser(
        "der", parents=[common], help="per-degree derivation space dimensions and bases"
    )
    p.add_argument("target")
    p.add_argument("--n", type=int, default=2, help="derivation order (default 2)")

    p = sub.add_parser(
        "verify", parents=[common], help="verify the main equalities and lemmas"
    )
    p.add_argument("target")
    p.add_argument("--n", type=int, required=True, help="derivation order")
    p.add_argument("--part", choices=["1", "2", "all"], default="all")
    p.add_argument("--lemmas", action="store_true", help="also run the lemma suite")

    p = sub.add_parser("catalog", parents=[common], help="list or emit shipped algebras")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    return parser


@cache
def _cached_parser() -> argparse.ArgumentParser:
    # built on first use and reused: parsing never changes the parser
    return build_parser()


def _load_target(target: str):
    if target.startswith("catalog:"):
        return catalog.get(target[len("catalog:"):])
    with open(target, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def _fingerprint(a) -> str:
    return hashlib.sha256(serialize_algebra(a).encode("utf-8")).hexdigest()


def _emit(report: dict, lines: list[str], as_json: bool, started: float) -> str:
    if as_json:
        return json_text(report) + "\n"
    lines.append(f"elapsed: {time.perf_counter() - started:.3f}s")
    return "\n".join(lines) + "\n"


def _cmd_check(a, args, report, lines):
    ax = a.check_axioms()
    # ColorAlgebra refuses an invalid bicharacter, so every loaded one is valid
    report["bicharacter_ok"] = True
    report["bicharacter_violations"] = []
    report["axioms_ok"] = ax.ok
    report["violations"] = {
        "grading": [list(v) for v in ax.grading],
        "antisymmetry": [list(v) for v in ax.antisymmetry],
        "jacobi": [list(v) for v in ax.jacobi],
    }
    report["passed"] = ax.ok
    lines.append("bicharacter: ok")
    lines.append(f"axioms: {'ok' if ax.ok else 'VIOLATED'}")
    lines.extend("  " + msg for msg in ax.messages())
    return 0 if ax.ok else 1


def _cmd_invariants(a, args, report, lines):
    derived = a.derived_subalgebra()
    center = a.center()
    report["dim"] = a.dim
    report["derived_dim"] = derived.dim
    report["center_dim"] = center.dim
    report["perfect"] = a.is_perfect()
    report["passed"] = True
    lines.append(f"dim: {a.dim}")
    lines.append(f"derived subalgebra dim: {derived.dim}")
    lines.append(f"center dim: {center.dim}")
    lines.append(f"perfect: {a.is_perfect()}")
    return 0


def _cmd_der(a, args, report, lines):
    space = n_derivation_space(a, args.n, max_n=args.max_n)
    # basis_maps() lists one map per block row, blocks in group order, as the columns take them
    maps = iter(space.basis_maps())

    def basis_texts(gamma, sub) -> list:
        return [[[format_scalar(c) for c in row] for row in next(maps).matrix] for _ in sub.rows]

    residues, (dims, bases) = space._columns(_dim, basis_texts)
    report["n"] = args.n
    report["total_dim"] = space.total_dim
    report["blocks"] = Records._of(("degree", "dim", "basis_maps"), (residues, dims, bases))
    report["passed"] = True
    if not args.json:
        # one line per degree: on a large group only worth building when printed
        for degree, dim, basis in zip(*report["blocks"].columns):
            lines.append(f"degree {tuple(degree)}: dim {dim}")
            for idx, mat in enumerate(basis):
                lines.append(f"  basis map {idx + 1}:")
                lines.extend("    [" + ", ".join(row) + "]" for row in mat)
        lines.append(f"total dim: {space.total_dim}")
    return 0


def _cmd_verify(a, args, report, lines):
    ok = True
    if args.part in ("1", "all"):
        part1 = verify_nder_equals_der(a, args.n, max_n=args.max_n)
        report["part1"] = part1.to_jsonable()
        ok = ok and part1.passed
        lines.append(
            f"part 1 (nDer = Der, n={args.n}): "
            f"{'pass' if part1.passed else 'FAIL'} "
            f"(preconditions_hold={part1.preconditions_hold}, axioms_ok={a.check_axioms().ok}, "
            f"equal={part1.equal}, dims {part1.der_total}/{part1.nder_total})"
        )
    if args.part in ("2", "all"):
        try:
            part2 = verify_second_statement(a, args.n, max_n=args.max_n)
            report["part2"] = part2.to_jsonable()
            ok = ok and part2.passed
            lines.append(
                f"part 2 (nDer(Der) = ad(Der), n={args.n}): "
                f"{'pass' if part2.passed else 'FAIL'} "
                f"(equal={part2.equal}, dims {part2.inner_total}/{part2.nder_total})"
            )
        except PreconditionFailed as exc:
            report["part2"] = {"preconditions_hold": False, "error": str(exc)}
            ok = False
            lines.append(f"part 2: preconditions do not hold ({exc})")
    if args.lemmas:
        lemmas = {}

        def run_lemma(key, fn, *fn_args):
            nonlocal ok
            try:
                rep = fn(*fn_args, max_n=args.max_n)
                lemmas[key] = rep.to_jsonable() | {"passed": rep.passed}
                ok = ok and rep.passed
                lines.append(f"lemma {key}: {'pass' if rep.passed else 'FAIL'}")
            except (PreconditionFailed, BadArity) as exc:
                lemmas[key] = {"precondition_failed": str(exc)}
                ok = False
                lines.append(f"lemma {key}: preconditions do not hold ({exc})")

        run_lemma("closure", verify_closure, a, args.n, CLOSURE_TRIALS)
        run_lemma("inner_ideal", verify_inner_ideal, a, args.n)
        run_lemma("centralizer_trivial", verify_centralizer_trivial, a, args.n)
        if args.n >= 3:
            run_lemma("delta_membership", verify_delta_membership, a, args.n)
        else:
            lemmas["delta_membership"] = {"skipped": "defined only for n >= 3"}
            lines.append("lemma delta_membership: skipped (defined only for n >= 3)")
        run_lemma("ad_compat", verify_ad_compat, a)
        report["lemmas"] = lemmas
    report["passed"] = ok
    return 0 if ok else 1


def run(argv) -> tuple[int, str]:
    """Dispatch a command line; returns (exit code, stdout text)."""
    try:
        args = _cached_parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""

    started = time.perf_counter()

    if args.command == "catalog":
        if args.action == "list":
            if args.json:
                return 0, json_text(
                    {"command": ["catalog", "list"], "catalog": catalog.names()}
                ) + "\n"
            return 0, "\n".join(catalog.names()) + "\n"
        if not args.name:
            print("error: catalog emit requires a NAME", file=sys.stderr)
            return 2, ""
        try:
            a = catalog.get(args.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2, ""
        return 0, serialize_algebra(a)

    try:
        a = _load_target(args.target)
    except (ParseError, ValidationError) as exc:
        loc = getattr(exc, "location", None)
        suffix = f" (at {loc})" if loc is not None else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2, ""
    except (OSError, KeyError, UnicodeDecodeError) as exc:
        # str() of a KeyError would quote catalog.get's message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2, ""

    report = {
        "command": [args.command, args.target],
        "target": args.target,
        "fingerprint": _fingerprint(a),
    }
    lines = [f"target: {args.target} (fingerprint {report['fingerprint'][:12]})"]
    handlers = {
        "check": _cmd_check,
        "invariants": _cmd_invariants,
        "der": _cmd_der,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](a, args, report, lines)
    except ColorLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    return code, _emit(report, lines, args.json, started)


def main(argv=None) -> int:
    code, out = run(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
