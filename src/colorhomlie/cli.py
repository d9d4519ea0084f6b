"""Command line front end.

Machine-readable JSON goes to stdout, a short human summary to stderr.
Exit codes: 0 success, 1 mathematical check failure, 2 usage or parse error.
Reports are assembled in fixed key order so identical inputs produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

# Every subcommand loads fileio (so algebra_core, morphisms_twists, representations
# and scalars_grading); a handler imports the solver modules it runs itself.
from . import linalg
from .algebra_core import check_color_hom_lie, derived_algebra
from .fileio import (ParseError, _parse_square, parse_algebra_file, parse_alpha_terms,
                     parse_bracket_terms, parse_commutative_algebra_file,
                     parse_representation_document, serialize_matrix)
from .morphisms_twists import BudgetExceededError, enumerate_morphisms, morphism_is_invertible
from .representations import adjoint, alpha_s_adjoint
from .scalars_grading import parse_scalar

SCHEMA = 1
# structure_theory.KINDS, spelt out so that building the parser loads no solver
STRUCTURE_KINDS = ("der", "gder", "qder", "centroid", "qcentroid")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(report: dict, args) -> None:
    if args.format == "text":
        for line in _text_lines(report):
            print(line)
    else:
        print(json.dumps(report, indent=2))


def _text_lines(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(obj, list):
        # every item is marked "-"; a list of scalars (a matrix row) stays on one line
        for v in obj:
            if isinstance(v, list) and not any(isinstance(c, (dict, list)) for c in v):
                yield f"{prefix}- [{', '.join(map(str, v))}]"
            elif isinstance(v, (dict, list)):
                yield f"{prefix}-"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"


def _degree(A, text):
    comps = tuple(int(c) for c in text.split(","))
    return A.basis.group.element(comps)


def _degrees(A, text):
    """The degree given on the command line, or every degree of the group."""
    return [_degree(A, text)] if text else list(A.basis.group.elements())


def _matrix_arg(value: str, A, option: str):
    if value.lstrip().startswith("["):
        rows = json.loads(value)
    else:
        with open(value, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    return _parse_square(rows, A.dim, A.m, value, option)


# Each handler returns (report body, verdict, summary line); run_command writes them.

def cmd_validate(args) -> tuple:
    A = parse_algebra_file(args.algebra)
    report = check_color_hom_lie(A)
    ok = report.grading.ok and report.skew.ok and report.jacobi.ok
    body = {"algebra": A.name, "report": report.to_dict()}
    summary = f"validate {A.name or args.algebra}: {'all checks pass' if ok else 'FAILED'}"
    return body, report.all_ok if args.strict else ok, summary


def cmd_twists(args) -> tuple:
    A = parse_algebra_file(args.algebra)
    entry_set = list(dict.fromkeys(parse_scalar(t, A.m) for t in args.entries.split(",")))
    morphs = enumerate_morphisms(A, entry_set, strict_even=args.strict_even,
                                 budget=args.budget)
    items = [{"matrix": serialize_matrix(matrix), "even": even,
              "invertible": morphism_is_invertible(A, f),
              "twisted_bracket": A.bracket.compose_with(f).report(A.basis.names)}
             for matrix, even in morphs for f in [linalg.sparse(matrix)]]
    body = {"algebra": A.name, "entry_set": [str(s) for s in entry_set],
            "count": len(items), "morphisms": items}
    return body, True, f"twists: {len(items)} morphisms over {{{','.join(body['entry_set'])}}}"


def cmd_cohomology(args) -> tuple:
    from .cohomology import cohomology_group
    A = parse_algebra_file(args.algebra)
    if args.module == "adjoint":
        R = adjoint(A)
    elif args.module.startswith("ad_s:"):
        R = alpha_s_adjoint(A, int(args.module.split(":", 1)[1]))
    else:
        with open(args.module, "r", encoding="utf-8") as fh:
            R = parse_representation_document(fh.read(), A)
    results = [cohomology_group(A, R, args.n, args.r, gamma, restrict=args.restrict).to_dict()
               for gamma in _degrees(A, args.degree)]
    body = {"algebra": A.name, "module": args.module, "results": results}
    dims = ", ".join(f"{r['degree']}: H={r['dim_H']}" for r in results)
    return body, True, f"cohomology n={args.n} r={args.r}: {dims}"


def cmd_structure(args) -> tuple:
    from .structure_theory import reverify_space, solve_space
    A = parse_algebra_file(args.algebra)
    spaces = []
    for gamma in _degrees(A, args.degree):
        space = solve_space(A, args.kind, args.k, gamma)
        spaces.append({
            "degree": list(gamma.components),
            "dim": space.dim,
            "basis": [serialize_matrix(M) for M in space.basis],
            "reverified": reverify_space(A, space).ok,
        })
    body = {"algebra": A.name, "kind": args.kind, "k": args.k, "spaces": spaces}
    dims = ", ".join(str(s["dim"]) for s in spaces)
    return (body, all(s["reverified"] for s in spaces),
            f"structure {args.kind} k={args.k}: dims {dims}")


def cmd_jordan(args) -> tuple:
    from .structure_theory import check_hom_jordan, quasi_centroid_jordan
    A = parse_algebra_file(args.algebra)
    J = quasi_centroid_jordan(A, max_power=args.k)
    report = check_hom_jordan(J)
    body = {"algebra": A.name, "source": "qcentroid", "k": args.k,
            "span_dim": J.dim,
            "elements": [serialize_matrix(M) for M in J.matrices],
            "product_table": [[[str(c) for c in cell] for cell in row]
                              for row in J.table],
            "hcj1": report["hcj1"].to_dict(),
            "hcj2": report["hcj2"].to_dict()}
    ok = report["hcj1"].ok and report["hcj2"].ok
    return (body, ok, f"jordan on qcentroid k={args.k}: "
                      f"{'Hom-Jordan axioms pass' if ok else 'FAILED'}")


def cmd_derived(args) -> tuple:
    A = parse_algebra_file(args.algebra)
    D = derived_algebra(A, args.n)
    report = check_color_hom_lie(D)
    body = {"algebra": A.name, "n": args.n,
            "bracket": D.bracket.report(A.basis.names), "alpha": serialize_matrix(D.alpha),
            "report": report.to_dict()}
    ok = report.is_color_hom_lie
    return body, ok, f"derived n={args.n}: {'color Hom-Lie' if ok else 'FAILED'}"


def cmd_hls(args) -> tuple:
    from .hls_bracket import SigmaDerivation, check_hls_jacobi
    C = parse_commutative_algebra_file(args.algebra)
    sigma = _matrix_arg(args.sigma, C, "--sigma")
    delta_map = _matrix_arg(args.delta_map, C, "--delta-map")
    grade = _degree(C, args.grade) if args.grade else C.basis.group.zero()
    delta_scalar = parse_scalar(args.delta_scalar, C.m)
    D = SigmaDerivation(sigma, delta_map, grade, delta_scalar, C.dim, C.m)
    report = check_hls_jacobi(C, D)
    checks = ("sigma_endomorphism", "cd1", "cd2", "abc", "ijkl", "fgh", "mnop")
    body = {"algebra": args.algebra,
            "checks": {name: report[name].to_dict() for name in checks},
            "annihilator_dim": report["annihilator_dim"],
            "induced_bracket": report["induced_bracket"]}
    ok = all(report[name].ok for name in checks)
    return body, ok, f"hls: {'all identities pass' if ok else 'FAILED'}"


def cmd_deform_check(args) -> tuple:
    from .deformations import TruncatedBracket, check_deformation, first_order_class
    A = parse_algebra_file(args.algebra)
    with open(args.bracket_terms, "r", encoding="utf-8") as fh:
        terms = parse_bracket_terms(fh.read(), A)
    order = args.order if args.order is not None else len(terms) - 1
    B = TruncatedBracket(A, order, terms[:order + 1])
    per_order = check_deformation(A, B)
    body = {"algebra": A.name, "order": order,
            "orders": {str(s): res.to_dict() for s, res in per_order.items()}}
    if order >= 1:
        first = first_order_class(A, B)
        body["first_order"] = {key: first[key] for key in ("is_cocycle", "class_is_zero")
                               if key in first}
    ok = all(res.ok for res in per_order.values())
    return body, ok, f"deform check: {'all orders pass' if ok else 'FAILED'}"


def cmd_deform_compose(args) -> tuple:
    from .deformations import check_deformation, composition_deformation
    A = parse_algebra_file(args.algebra)
    with open(args.alpha_terms, "r", encoding="utf-8") as fh:
        alphas = parse_alpha_terms(fh.read(), A)
    B = composition_deformation(A, alphas, order=args.order, derived=args.derived,
                                require_endomorphism=args.require_endomorphism)
    per_order = check_deformation(B.algebra, B)
    body = {"algebra": A.name, "order": B.order, "derived": args.derived,
            "endomorphism_failing_orders": B.endomorphism_failing_orders,
            "orders": {str(s): res.to_dict() for s, res in per_order.items()}}
    ok = all(res.ok for res in per_order.values())
    return body, ok, f"deform compose: {'deformation equations pass' if ok else 'FAILED'}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="colorhom",
        description="Exact computer algebra for graded color Hom-Lie algebras")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", required=True, help="algebra file")

    p = sub.add_parser("validate", help="axiom report for an algebra file")
    p.add_argument("algebra")
    p.add_argument("--strict", action="store_true",
                   help="fail on any reported issue, including multiplicativity")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("twists", parents=[algebra],
                       help="enumerate bracket endomorphisms and twists")
    p.add_argument("--entries", required=True,
                   help="comma separated scalar literals, e.g. -1,0,1")
    p.add_argument("--strict-even", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_twists)

    p = sub.add_parser("cohomology", parents=[algebra],
                       help="cocycles, coboundaries, quotients")
    p.add_argument("--module", default="adjoint",
                   help="adjoint | ad_s:S | representation file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--degree", default=None, help="cochain degree, e.g. 1,0")
    p.add_argument("--restrict", choices=("compatible", "free"),
                   default="compatible")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("structure", parents=[algebra], help="derivation-type spaces")
    p.add_argument("--kind", choices=STRUCTURE_KINDS, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--degree", default=None)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("jordan", parents=[algebra], help="product on the quasi-centroid")
    p.add_argument("--k", type=int, default=2,
                   help="largest twist power collected into the span")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("derived", parents=[algebra], help="derived Hom-algebra")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_derived)

    p = sub.add_parser("hls", parents=[algebra], help="twisted-derivation bracket report")
    p.add_argument("--sigma", required=True, help="matrix file or inline JSON")
    p.add_argument("--delta-map", required=True, dest="delta_map")
    p.add_argument("--grade", default=None)
    p.add_argument("--delta-scalar", required=True, dest="delta_scalar")
    p.set_defaults(func=cmd_hls)

    p = sub.add_parser("deform", help="formal deformation commands")
    dsub = p.add_subparsers(dest="deform_command", required=True)
    pc = dsub.add_parser("check", parents=[algebra])
    pc.add_argument("--bracket-terms", required=True, dest="bracket_terms")
    pc.add_argument("--order", type=int, default=None)
    pc.set_defaults(func=cmd_deform_check)
    pk = dsub.add_parser("compose", parents=[algebra])
    pk.add_argument("--alpha-terms", required=True, dest="alpha_terms")
    pk.add_argument("--order", type=int, default=None)
    pk.add_argument("--derived", type=int, default=0)
    pk.add_argument("--require-endomorphism", action="store_true",
                    dest="require_endomorphism")
    pk.set_defaults(func=cmd_deform_compose)

    return parser


_VALUE_OPTIONS = ("--entries", "--delta-scalar", "--degree", "--grade")


def _merge_dash_values(argv):
    """Join option values that begin with '-' (e.g. --entries -1,0,1)."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTIONS and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def run_command(argv) -> int:
    """Run one command: report to stdout, summary to stderr; returns the exit code."""
    try:
        args = build_parser().parse_args(_merge_dash_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # the report names its command after the handler: cmd_deform_check -> deform-check
    command = args.func.__name__.removeprefix("cmd_").replace("_", "-")
    try:
        body, ok, summary = args.func(args)
        _emit({"schema": SCHEMA, "command": command, **body}, args)
        print(summary, file=sys.stderr)
    except (ParseError, OSError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
