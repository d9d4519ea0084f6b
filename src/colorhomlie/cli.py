"""Command line front end.

Machine-readable JSON goes to stdout, a short human summary to stderr.
Exit codes: 0 success, 1 mathematical check failure, 2 usage or parse error.
Reports are assembled in fixed key order so identical inputs produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra_core import check_color_hom_lie, derived_algebra
from .cohomology import cohomology_group
from .deformations import (TruncatedBracket, check_deformation,
                           composition_deformation, first_order_class)
from .fileio import (ParseError, parse_algebra_file, parse_alpha_terms,
                     parse_bracket_terms, parse_commutative_algebra_file,
                     parse_matrix, parse_representation_document,
                     serialize_matrix)
from .hls_bracket import (SigmaDerivation, check_hls_jacobi,
                          induced_bracket_table)
from .morphisms_twists import (BudgetExceededError, enumerate_morphisms,
                               morphism_is_invertible, twist)
from .representations import adjoint, alpha_s_adjoint
from .scalars_grading import parse_scalar
from .structure_theory import (KINDS, check_hom_jordan, quasi_centroid_jordan,
                               reverify_space, solve_space)

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "text":
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
        for v in obj:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"


def _summary(text: str) -> None:
    print(text, file=sys.stderr)


def _degree(A, text):
    comps = tuple(int(c) for c in text.split(","))
    return A.basis.group.element(comps)


def _matrix_arg(value: str, A, option: str):
    if value.lstrip().startswith("["):
        rows = json.loads(value)
    else:
        with open(value, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    matrix = parse_matrix(rows, A.m, value)
    if len(matrix) != A.dim or any(len(row) != A.dim for row in matrix):
        raise ParseError(f"{option} must be a {A.dim}x{A.dim} matrix")
    return matrix


def cmd_validate(args) -> int:
    A = parse_algebra_file(args.algebra)
    report = check_color_hom_lie(A)
    doc = {"schema": SCHEMA, "command": "validate", "algebra": A.name,
           "report": report.to_dict()}
    _emit(doc, args)
    ok = report.grading.ok and report.skew.ok and report.jacobi.ok
    _summary(f"validate {A.name or args.algebra}: "
             f"{'all checks pass' if ok else 'FAILED'}")
    if args.strict and not report.all_ok:
        return EXIT_CHECK_FAILED
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_twists(args) -> int:
    A = parse_algebra_file(args.algebra)
    entry_set = [parse_scalar(tok, A.m) for tok in args.entries.split(",")]
    morphs = enumerate_morphisms(A, entry_set, strict_even=args.strict_even,
                                 budget=args.budget)
    items = []
    for f in morphs:
        items.append({
            "matrix": serialize_matrix(f.matrix),
            "even": f.even,
            "invertible": morphism_is_invertible(f),
            "twisted_bracket": twist(A, f).bracket.report(A.basis.names),
        })
    doc = {"schema": SCHEMA, "command": "twists", "algebra": A.name,
           "entry_set": [str(s) for s in entry_set], "count": len(items),
           "morphisms": items}
    _emit(doc, args)
    _summary(f"twists: {len(items)} morphisms over {{{args.entries}}}")
    return EXIT_OK


def cmd_cohomology(args) -> int:
    A = parse_algebra_file(args.algebra)
    if args.module == "adjoint":
        R = adjoint(A)
    elif args.module.startswith("ad_s:"):
        R = alpha_s_adjoint(A, int(args.module.split(":", 1)[1]))
    else:
        with open(args.module, "r", encoding="utf-8") as fh:
            R = parse_representation_document(fh.read(), A)
    degrees = ([_degree(A, args.degree)] if args.degree
               else list(A.basis.group.elements()))
    results = []
    for gamma in degrees:
        res = cohomology_group(A, R, args.n, args.r, gamma, restrict=args.restrict)
        results.append(res.to_dict())
    doc = {"schema": SCHEMA, "command": "cohomology", "algebra": A.name,
           "module": args.module, "results": results}
    _emit(doc, args)
    dims = ", ".join(f"{r['degree']}: H={r['dim_H']}" for r in results)
    _summary(f"cohomology n={args.n} r={args.r}: {dims}")
    return EXIT_OK


def cmd_structure(args) -> int:
    A = parse_algebra_file(args.algebra)
    degrees = ([_degree(A, args.degree)] if args.degree
               else list(A.basis.group.elements()))
    spaces = []
    all_ok = True
    for gamma in degrees:
        space = solve_space(A, args.kind, args.k, gamma)
        check = reverify_space(A, space)
        all_ok = all_ok and check.ok
        spaces.append({
            "degree": list(gamma.components),
            "dim": space.dim,
            "basis": [serialize_matrix(M) for M in space.basis],
            "reverified": check.ok,
        })
    doc = {"schema": SCHEMA, "command": "structure", "algebra": A.name,
           "kind": args.kind, "k": args.k, "spaces": spaces}
    _emit(doc, args)
    _summary(f"structure {args.kind} k={args.k}: dims "
             + ", ".join(str(s["dim"]) for s in spaces))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_jordan(args) -> int:
    A = parse_algebra_file(args.algebra)
    J = quasi_centroid_jordan(A, max_power=args.k)
    report = check_hom_jordan(J)
    doc = {"schema": SCHEMA, "command": "jordan", "algebra": A.name,
           "source": args.source, "k": args.k,
           "span_dim": J.dim,
           "elements": [serialize_matrix(M) for M in J.matrices],
           "product_table": [[[str(c) for c in cell] for cell in row]
                             for row in J.table],
           "hcj1": report["hcj1"].to_dict(),
           "hcj2": report["hcj2"].to_dict()}
    _emit(doc, args)
    ok = report["hcj1"].ok and report["hcj2"].ok
    _summary(f"jordan on {args.source} k={args.k}: "
             f"{'Hom-Jordan axioms pass' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_derived(args) -> int:
    A = parse_algebra_file(args.algebra)
    D = derived_algebra(A, args.n)
    report = check_color_hom_lie(D)
    doc = {"schema": SCHEMA, "command": "derived", "algebra": A.name, "n": args.n,
           "bracket": D.bracket.report(A.basis.names), "alpha": serialize_matrix(D.alpha),
           "report": report.to_dict()}
    _emit(doc, args)
    return EXIT_OK if report.is_color_hom_lie else EXIT_CHECK_FAILED


def cmd_hls(args) -> int:
    C = parse_commutative_algebra_file(args.algebra)
    sigma = _matrix_arg(args.sigma, C, "--sigma")
    delta_map = _matrix_arg(args.delta_map, C, "--delta-map")
    grade = _degree(C, args.grade) if args.grade else C.basis.group.zero()
    delta_scalar = parse_scalar(args.delta_scalar, C.m)
    D = SigmaDerivation(sigma, delta_map, grade, delta_scalar)
    report = check_hls_jacobi(C, D)
    doc = {"schema": SCHEMA, "command": "hls", "algebra": args.algebra,
           "checks": {name: report[name].to_dict()
                      for name in ("sigma_endomorphism", "cd1", "cd2", "abc",
                                   "ijkl", "fgh", "mnop")},
           "annihilator_dim": report["annihilator_dim"],
           "induced_bracket": induced_bracket_table(C, D)}
    _emit(doc, args)
    ok = all(report[n].ok for n in ("sigma_endomorphism", "cd1", "cd2", "abc",
                                    "ijkl", "fgh", "mnop"))
    _summary(f"hls: {'all identities pass' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_deform_check(args) -> int:
    A = parse_algebra_file(args.algebra)
    with open(args.bracket_terms, "r", encoding="utf-8") as fh:
        terms = parse_bracket_terms(fh.read(), A)
    order = args.order if args.order is not None else len(terms) - 1
    B = TruncatedBracket(A, order, terms[:order + 1])
    per_order = check_deformation(A, B)
    first = first_order_class(A, B) if order >= 1 else None
    doc = {"schema": SCHEMA, "command": "deform-check", "algebra": A.name,
           "order": order,
           "orders": {str(s): res.to_dict() for s, res in per_order.items()}}
    if first is not None:
        doc["first_order"] = {"is_cocycle": first["is_cocycle"]}
        if "class_is_zero" in first:
            doc["first_order"]["class_is_zero"] = first["class_is_zero"]
    _emit(doc, args)
    ok = all(res.ok for res in per_order.values())
    _summary(f"deform check: {'all orders pass' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_deform_compose(args) -> int:
    A = parse_algebra_file(args.algebra)
    with open(args.alpha_terms, "r", encoding="utf-8") as fh:
        alphas = parse_alpha_terms(fh.read(), A)
    B = composition_deformation(A, alphas, order=args.order, derived=args.derived,
                                require_endomorphism=args.require_endomorphism)
    per_order = check_deformation(B.algebra, B)
    doc = {"schema": SCHEMA, "command": "deform-compose", "algebra": A.name,
           "order": B.order, "derived": args.derived,
           "endomorphism_failing_orders": B.endomorphism_failing_orders,
           "orders": {str(s): res.to_dict() for s, res in per_order.items()}}
    _emit(doc, args)
    ok = all(res.ok for res in per_order.values())
    _summary(f"deform compose: {'deformation equations pass' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorhom",
        description="Exact computer algebra for graded color Hom-Lie algebras")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="axiom report for an algebra file")
    p.add_argument("algebra")
    p.add_argument("--strict", action="store_true",
                   help="fail on any reported issue, including multiplicativity")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("twists", help="enumerate bracket endomorphisms and twists")
    p.add_argument("--algebra", required=True)
    p.add_argument("--entries", required=True,
                   help="comma separated scalar literals, e.g. -1,0,1")
    p.add_argument("--strict-even", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_twists)

    p = sub.add_parser("cohomology", help="cocycles, coboundaries, quotients")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", default="adjoint",
                   help="adjoint | ad_s:S | representation file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--degree", default=None, help="cochain degree, e.g. 1,0")
    p.add_argument("--restrict", choices=("compatible", "free"),
                   default="compatible")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("structure", help="derivation-type spaces")
    p.add_argument("--algebra", required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--degree", default=None)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("jordan", help="product on the quasi-centroid")
    p.add_argument("--algebra", required=True)
    p.add_argument("--source", choices=("qcentroid",), default="qcentroid")
    p.add_argument("--k", type=int, default=2,
                   help="largest twist power collected into the span")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("derived", help="derived Hom-algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_derived)

    p = sub.add_parser("hls", help="twisted-derivation bracket report")
    p.add_argument("--algebra", required=True,
                   help="commutative algebra file with a \"product\" section")
    p.add_argument("--sigma", required=True, help="matrix file or inline JSON")
    p.add_argument("--delta-map", required=True, dest="delta_map")
    p.add_argument("--grade", default=None)
    p.add_argument("--delta-scalar", required=True, dest="delta_scalar")
    p.set_defaults(func=cmd_hls)

    p = sub.add_parser("deform", help="formal deformation commands")
    dsub = p.add_subparsers(dest="deform_command", required=True)
    pc = dsub.add_parser("check")
    pc.add_argument("--algebra", required=True)
    pc.add_argument("--bracket-terms", required=True, dest="bracket_terms")
    pc.add_argument("--order", type=int, default=None)
    pc.set_defaults(func=cmd_deform_check)
    pk = dsub.add_parser("compose")
    pk.add_argument("--algebra", required=True)
    pk.add_argument("--alpha-terms", required=True, dest="alpha_terms")
    pk.add_argument("--order", type=int, default=None)
    pk.add_argument("--derived", type=int, default=0)
    pk.add_argument("--require-endomorphism", action="store_true",
                    dest="require_endomorphism")
    pk.set_defaults(func=cmd_deform_compose)

    return parser


_VALUE_OPTIONS = ("--entries", "--delta-scalar")


def _merge_dash_values(argv):
    """Join option values that begin with '-' (e.g. --entries -1,0,1)."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
