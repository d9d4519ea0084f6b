"""Inputs, job lists and correctness checks of the three benchmark workloads.

Every input is built here from the shipped ``.alg`` files and the public
constructors of ``colorhomlie``; nothing is imported from the test suite.
A job is one library call or one CLI command.  Each job carries:

* ``run(ctx)``: the timed call; ``ctx`` holds the inputs and the results of
  earlier jobs of the same pass (a reverify job reads its solve job's space);
* ``report(result)``: the canonical text of the result, compared byte for
  byte with ``reference.json`` at the default seed;
* ``invariant(result)``: isomorphism-invariant facts (dimensions, verdicts,
  exit codes), compared with the reference at every seed;
* ``extra(ctx, result)``: further checks that hold at every seed (every
  ``reverify_space`` passes, the coboundary of every reported cocycle is 0).

The seed picks an invertible diagonal rescaling e_i -> c_i e_i of every
generated summand, c_i drawn from {1, 2, 3, 1/2}.  Seed 0 is the default and
uses the algebras unscaled.  ``cli_examples`` runs the shipped files verbatim
and does not depend on the seed.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0
WORKLOADS = ("cohomology_ladder", "structure_zeta3", "cli_examples")
DATA = os.path.join("src", "colorhomlie", "data")

# Dimensions (Z, B, H) pinned independently of the recorded reference.
EXPECTED_DIMS = {
    **{f"coh.d3.n2.free.r0.g{g}": [6, 4, 2] for g in ("00", "01", "10", "11")},
    **{f"coh.d3.n2.compatible.r0.g{g}": [4, 4, 0] for g in ("00", "01", "10", "11")},
    "coh.d6.n1.free.r0.g10": [6, 2, 4],
    "coh.d6.n1.compatible.r0.g10": [2, 2, 0],
    "coh.d6.n2.compatible.r0.g10": [18, 18, 0],
}


def lib():
    """The ``colorhomlie`` modules the workloads use, looked up at call time.

    The set-up measurement re-imports the package, so module objects are
    fetched afresh rather than bound when this file is imported.
    """
    names = ("algebra_core", "cli", "cohomology", "fileio", "linalg",
             "morphisms_twists", "representations", "scalars_grading",
             "structure_theory")
    pkg = importlib.import_module("colorhomlie")
    for name in names:
        importlib.import_module(f"colorhomlie.{name}")
    return pkg


# ---------------------------------------------------------------------------
# algebra constructions (after tests/conftest.py: build_algebra, heis_z3,
# _rescale) plus the block-diagonal direct sum
# ---------------------------------------------------------------------------

def _sc(value, m):
    return lib().scalars_grading.CycloScalar.from_rational(Fraction(value), m)


def build_algebra(orders, eps_exponents, m, names, degrees, bracket_entries, alpha,
                  name=""):
    ch = lib()
    ac, sg = ch.algebra_core, ch.scalars_grading
    group = sg.FiniteAbelianGroup(tuple(orders))
    eps = sg.BiCharacter(group, eps_exponents, m)
    degs = tuple(group.element(tuple(d)) for d in degrees)
    basis = ac.GradedBasis(tuple(names), degs, group)
    entries = {key: [_sc(v, m) for v in vec] for key, vec in bracket_entries.items()}
    table = ac.BracketTable(basis, eps, entries, m)
    alpha_m = [[_sc(v, m) for v in row] for row in alpha]
    return ac.ColorHomAlgebra(basis, eps, table, alpha_m, m, name=name)


def rescale(A, scales):
    """Conjugate by the invertible diagonal map e_i -> c_i e_i."""
    ch = lib()
    CycloScalar = ch.scalars_grading.CycloScalar
    m = A.m
    cs = [_sc(c, m) for c in scales]
    entries = {}
    for (i, j), vec in A.bracket.pairs.items():
        coeff = cs[i] * cs[j]
        entries[(i, j)] = [coeff * v / cs[k] for k, v in enumerate(vec)]
    table = ch.algebra_core.BracketTable(A.basis, A.eps, entries, m)
    D = [[cs[i] if i == j else CycloScalar.zero(m) for j in range(A.dim)]
         for i in range(A.dim)]
    Dinv = [[cs[i].inverse() if i == j else CycloScalar.zero(m)
             for j in range(A.dim)] for i in range(A.dim)]
    alpha = ch.linalg.mat_mul(D, ch.linalg.mat_mul(A.alpha, Dinv))
    return ch.algebra_core.ColorHomAlgebra(A.basis, A.eps, table, alpha, m,
                                           name=A.name)


def seeded(A, rng):
    """A rescaled by the next draw of rng; unchanged when rng is None."""
    if rng is None:
        return A
    return rescale(A, [rng.choice([1, 2, 3, Fraction(1, 2)]) for _ in range(A.dim)])


def direct_sum(A, B, name):
    """Block-diagonal sum of two algebras over the same grading and root order."""
    ch = lib()
    ac = ch.algebra_core
    zero = ch.scalars_grading.CycloScalar.zero(A.m)
    dim = A.dim + B.dim
    basis = ac.GradedBasis(tuple(f"e{i + 1}" for i in range(dim)),
                           A.basis.degrees + B.basis.degrees, A.basis.group)
    entries = {key: list(vec) + [zero] * B.dim for key, vec in A.bracket.pairs.items()}
    for (i, j), vec in B.bracket.pairs.items():
        entries[(i + A.dim, j + A.dim)] = [zero] * A.dim + list(vec)
    alpha = ([list(row) + [zero] * B.dim for row in A.alpha]
             + [[zero] * A.dim + list(row) for row in B.alpha])
    return ac.ColorHomAlgebra(basis, A.eps, ac.BracketTable(basis, A.eps, entries, A.m),
                              alpha, A.m, name=name)


def heis_zeta3():
    """The Z3 Heisenberg algebra with alpha = diag(2,3,6), Yau-twisted by
    diag(zeta, zeta, zeta^2); its structure constants lie in Q(zeta_3)."""
    ch = lib()
    H = build_algebra([3], [[0]], 3, ["e1", "e2", "e3"], [(1,), (1,), (2,)],
                      {(0, 1): [0, 0, 1]}, [[2, 0, 0], [0, 3, 0], [0, 0, 6]],
                      name="heis_z3")
    CycloScalar = ch.scalars_grading.CycloScalar
    z, o = CycloScalar.root_of_unity(3, 1), CycloScalar.zero(3)
    beta = [[z, o, o], [o, z, o], [o, o, z * z]]
    return ch.morphisms_twists.twist(H, beta, name="heis_zeta3")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    id: str
    layer: str
    params: str
    run: Callable
    report: Callable
    invariant: Callable
    extra: Callable = lambda ctx, result: []
    seed_independent: bool = False


def _gname(gamma) -> str:
    return "".join(str(c) for c in gamma.components)


def build_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Every input of a workload; the result is the jobs' shared context."""
    ch = lib()
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    if workload == "cohomology_ladder":
        base = ch.fileio.parse_algebra_file(os.path.join(DATA, "sl2c_z2z2.alg"))
        A3 = seeded(base, rng)
        A6 = direct_sum(seeded(base, rng), seeded(base, rng), "sl2c_z2z2^2")
        return {"A3": A3, "A6": A6, "R3": ch.adjoint(A3), "R6": ch.adjoint(A6),
                "R3_inv": ch.alpha_s_adjoint(A3, -1)}
    if workload == "structure_zeta3":
        base = heis_zeta3()
        A3 = seeded(base, rng)
        A6 = direct_sum(seeded(base, rng), seeded(base, rng), "heis_zeta3^2")
        return {"A3": A3, "A6": A6}
    if workload == "cli_examples":
        terms = {
            "alpha_terms.json": {"schema": 1, "terms": [
                [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]]},
            "terms.json": {"schema": 1, "terms": [
                {"e1,e2": {"e3": "1"}, "e1,e3": {"e2": "-1"}, "e2,e3": {"e1": "-1"}},
                {"e1,e2": {"e2": "1"}, "e1,e3": {"e3": "1"}}]},
        }
        paths = {}
        for name, doc in terms.items():
            paths[name] = os.path.join(workdir, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return {"paths": paths}
    raise ValueError(f"unknown workload {workload!r}")


def build_jobs(workload: str, ctx: dict) -> list:
    return {"cohomology_ladder": _cohomology_jobs,
            "structure_zeta3": _structure_jobs,
            "cli_examples": _cli_jobs}[workload](ctx)


# -- cohomology_ladder -------------------------------------------------------

def _cohomology_job(alg, rep, n, r, gamma, restrict, tag):
    def run(ctx):
        return lib().cohomology_group(ctx[alg], ctx[rep], n, r, ctx[alg].basis.group
                                      .element(gamma), restrict=restrict)

    def extra(ctx, res):
        coboundary = lib().cohomology.coboundary_of_coords
        for vec in res.representatives:
            image, _ = coboundary(ctx[alg], ctx[rep], res.space, vec, r)
            if any(not c.is_zero() for c in image):
                return ["a reported cocycle has a nonzero coboundary"]
        return []

    g = "".join(str(c) for c in gamma)
    return Job(id=f"coh.{tag}.n{n}.{restrict}.r{r}.g{g}", layer="cohomology",
               params=f"{alg} module={rep} n={n} r={r} gamma=({','.join(map(str, gamma))})"
                      f" restrict={restrict}",
               run=run, report=lambda res: json.dumps(res.to_dict()),
               invariant=lambda res: [res.dim_Z, res.dim_B, res.dim_H], extra=extra)


def _cohomology_jobs(ctx):
    gammas = [tuple(g.components) for g in ctx["A3"].basis.group.elements()]
    jobs = [_cohomology_job("A3", "R3", n, 0, g, restrict, "d3")
            for n in (1, 2, 3) for restrict in ("free", "compatible") for g in gammas]
    jobs.append(_cohomology_job("A3", "R3", 2, 1, (1, 0), "compatible", "d3"))
    jobs.append(_cohomology_job("A3", "R3_inv", 2, 0, (1, 0), "compatible", "d3.ad-1"))
    for n, restrict in ((1, "free"), (1, "compatible"), (2, "compatible")):
        jobs.append(_cohomology_job("A6", "R6", n, 0, (1, 0), restrict, "d6"))
    return jobs


# -- structure_zeta3 ---------------------------------------------------------

def _matrices(mats):
    return [lib().fileio.serialize_matrix(M) for M in mats]


def _space_jobs(alg, tag, kind, k, gamma):
    sid = f"st.{tag}.{kind}.k{k}.g{_gname(gamma)}"

    def solve(ctx):
        return lib().structure_theory.solve_space(ctx[alg], kind, k, gamma)

    def reverify(ctx):
        return lib().structure_theory.reverify_space(ctx[alg], ctx["results"][sid])

    params = f"{alg} kind={kind} k={k} gamma={gamma}"
    return [
        Job(id=sid, layer="structure_theory", params=params, run=solve,
            report=lambda s: json.dumps({"kind": s.kind, "k": s.k, "dim": s.dim,
                                         "basis": _matrices(s.basis)}),
            invariant=lambda s: s.dim),
        Job(id="rv" + sid[2:], layer="structure_theory", params=params, run=reverify,
            report=lambda c: json.dumps(c.to_dict()), invariant=lambda c: c.ok,
            extra=lambda ctx, c: [] if c.ok else ["reverify_space failed"]),
    ]


def _structure_jobs(ctx):
    ch = lib()
    A3 = ctx["A3"]
    gammas = list(A3.basis.group.elements())
    jobs = [job for kind in ch.structure_theory.KINDS for k in (0, 1) for g in gammas
            for job in _space_jobs("A3", "d3", kind, k, g)]

    def jordan(ctx):
        return ch.quasi_centroid_jordan(ctx["A3"], max_power=2)

    def jordan_report(J):
        return json.dumps({"span_dim": J.dim, "elements": _matrices(J.matrices),
                           "degrees": [list(g.components) for g in J.degrees],
                           "product_table": [[[str(c) for c in cell] for cell in row]
                                             for row in J.table],
                           "alpha_action": [[str(c) for c in row]
                                            for row in J.alpha_action]})

    jobs.append(Job(id="jordan.d3.p2", layer="structure_theory",
                    params="A3 quasi_centroid_jordan max_power=2", run=jordan,
                    report=jordan_report, invariant=lambda J: J.dim))
    jobs.append(Job(id="homjordan.d3.p2", layer="structure_theory",
                    params="A3 check_hom_jordan",
                    run=lambda ctx: ch.check_hom_jordan(ctx["results"]["jordan.d3.p2"]),
                    report=lambda rep: json.dumps({k: v.to_dict() for k, v in rep.items()}),
                    invariant=lambda rep: {k: v.ok for k, v in rep.items()}))
    jobs.append(Job(id="lattice.d3.k012", layer="structure_theory",
                    params="A3 check_inclusion_lattice k=0..2, all gamma",
                    run=lambda ctx: ch.check_inclusion_lattice(
                        ctx["A3"], range(3), list(ctx["A3"].basis.group.elements())),
                    report=lambda rep: json.dumps({k: v.to_dict() for k, v in rep.items()}),
                    invariant=lambda rep: {k: v.ok for k, v in rep.items()}))
    for kind in ("der", "centroid", "qcentroid"):
        for g in gammas:
            jobs.extend(_space_jobs("A6", "d6", kind, 1, g))
    return jobs


# -- cli_examples ------------------------------------------------------------

def _cli_commands(paths):
    def alg(name):
        return os.path.join(DATA, name)
    return [
        ("validate.sl2c_z2z2", "algebra_core", ["validate", alg("sl2c_z2z2.alg")]),
        ("twists.sl2c_z2z3", "morphisms_twists",
         ["twists", "--algebra", alg("sl2c_z2z3.alg"), "--entries", "-1,0,1"]),
        ("twists.sl2c_z2z2", "morphisms_twists",
         ["twists", "--algebra", alg("sl2c_z2z2.alg"), "--entries", "-1,0,1"]),
        ("cohomology.sl2c_z2z2", "cohomology",
         ["cohomology", "--algebra", alg("sl2c_z2z2.alg"), "--module", "adjoint",
          "--n", "2", "--r", "0", "--restrict", "free"]),
        ("structure.gder.sl2c_z2z2", "structure_theory",
         ["structure", "--algebra", alg("sl2c_z2z2.alg"), "--kind", "gder", "--k", "1"]),
        ("jordan.sl2c_z2z2", "structure_theory",
         ["jordan", "--algebra", alg("sl2c_z2z2.alg"), "--k", "2"]),
        ("derived.sl2c_z2z2", "algebra_core",
         ["derived", "--algebra", alg("sl2c_z2z2.alg"), "--n", "1"]),
        ("hls.qwitt_trunc_q2", "hls_bracket",
         ["hls", "--algebra", alg("qwitt_trunc_q2.alg"),
          "--sigma", '[["1","0","0"],["0","2","0"],["0","0","4"]]',
          "--delta-map", '[["0","1","0"],["0","0","3"],["0","0","0"]]',
          "--delta-scalar", "2"]),
        ("hls.qwitt_trunc_zeta3", "hls_bracket",
         ["hls", "--algebra", alg("qwitt_trunc_zeta3.alg"),
          "--sigma", '[["1","0","0"],["0","[0;1]","0"],["0","0","[-1;-1]"]]',
          "--delta-map", '[["0","1","0"],["0","0","[1;1]"],["0","0","0"]]',
          "--delta-scalar", "[0;1]"]),
        ("deform.compose.sl2c_z2z3", "deformations",
         ["deform", "compose", "--algebra", alg("sl2c_z2z3.alg"),
          "--alpha-terms", paths["alpha_terms.json"], "--order", "3"]),
        ("deform.check.sl2c_z2z2", "deformations",
         ["deform", "check", "--algebra", alg("sl2c_z2z2.alg"),
          "--bracket-terms", paths["terms.json"]]),
        ("validate.motion_z2z3", "algebra_core", ["validate", alg("motion_z2z3.alg")]),
        ("structure.der.motion_z2z3", "structure_theory",
         ["structure", "--algebra", alg("motion_z2z3.alg"), "--kind", "der"]),
    ]


# The pinned A6-leibniz contradiction: hls on the q = 2 instance exits 1.
EXPECTED_EXIT = {"cli.hls.qwitt_trunc_q2": 1}


def run_cli(argv):
    """Run one ``colorhom`` command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib().cli.run_command(argv)
    return code, out.getvalue()


def _cli_jobs(ctx):
    jobs = []
    for name, layer, argv in _cli_commands(ctx["paths"]):
        jid = f"cli.{name}"
        jobs.append(Job(
            id=jid, layer=layer, params="colorhom " + " ".join(argv[:2]),
            run=lambda ctx, argv=argv: run_cli(argv),
            report=lambda res: res[1], invariant=lambda res: res[0],
            extra=lambda ctx, res, jid=jid: (
                [] if res[0] == EXPECTED_EXIT.get(jid, 0) else [f"exit code {res[0]}"]),
            seed_independent=True))
    return jobs


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def check_job(job: Job, ctx: dict, result, seed: int, reference: dict) -> list:
    """Problems with one job's result; an empty list means it is correct."""
    ref = reference.get(job.id)
    if ref is None:
        return ["no reference recorded for this job"]
    problems = []
    inv = job.invariant(result)
    if inv != ref["invariant"]:
        problems.append(f"invariant {inv!r} != reference {ref['invariant']!r}")
    expected = EXPECTED_DIMS.get(job.id)
    if expected is not None and inv != expected:
        problems.append(f"dims {inv!r} != pinned {expected!r}")
    problems.extend(job.extra(ctx, result))
    if seed == DEFAULT_SEED or job.seed_independent:
        if job.report(result) != ref["report"]:
            problems.append("report differs from the recorded reference")
    return problems
