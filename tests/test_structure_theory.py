"""Derivation-type spaces, inclusion laws, and the quasi-centroid product."""
import hashlib
import json
import random
import re
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from colorhomlie import linalg, structure_theory
from colorhomlie.algebra_core import StructureConstants
from colorhomlie.scalars_grading import CycloScalar
from colorhomlie.structure_theory import (KINDS, HomogeneousMapSpace,
                                          NotClosedError, ProductAlgebraData,
                                          _COMMUTE, _defining_rows, _partner_rows,
                                          check_hom_jordan,
                                          check_inclusion_lattice,
                                          degree_pattern, jordan_product,
                                          quasi_centroid_jordan,
                                          reverify_space, solve_space)
from conftest import (_express_in_span, assert_rref, assert_zero_free, build_algebra,
                      clock3, clock3_twisted, defining_rows_direct, direct_sum, heis_zeta,
                      heis_zeta3, hom_jordan_direct,
                      identity_holds_on_all_pairs_direct, inclusion_lattice_direct,
                      inverse_direct, mat_add, mat_mul_direct,
                      mat_scale, member_of, motion_z2z3, partner_rows_direct,
                      quasi_centroid_jordan_direct, random_multiplicative_algebra, sc,
                      sl2c_z2z2, sl2c_z2z3, solve_direct, solve_space_two_pass_direct,
                      zero_algebra, zeros)


def all_degrees(A):
    return list(A.basis.group.elements())


def test_zero_bracket_derivations_are_all_even_matrices():
    # dimension = sum over degrees of (component dimension)^2 for gamma = 0
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2,
                     [(1, 0), (1, 0), (0, 1), (1, 1)])
    space = solve_space(A, "der", 0, A.basis.group.zero())
    assert space.dim == 2 * 2 + 1 + 1


def test_degree_pattern_respects_components():
    A = sl2c_z2z2()
    assert degree_pattern(A, A.basis.group.zero()) == [(0, 0), (1, 1), (2, 2)]
    g1 = A.basis.group.element((1, 0))
    # a degree-g1 map kills e1 (no zero-degree component exists)
    assert sorted(degree_pattern(A, g1)) == [(1, 2), (2, 1)]


def test_z2z2_space_dimensions_frozen():
    # computed by the solver and cross-checked by an independently written
    # dense eliminator during development
    A = sl2c_z2z2()
    G = A.basis.group
    degs = [G.zero(), G.element((1, 0)), G.element((0, 1)), G.element((1, 1))]
    for k in (0, 1):
        assert [solve_space(A, "der", k, g).dim for g in degs] == [0, 0, 0, 1]
        assert [solve_space(A, "gder", k, g).dim for g in degs] == [3, 0, 0, 2]
        assert [solve_space(A, "qder", k, g).dim for g in degs] == [3, 0, 0, 2]
        assert [solve_space(A, "centroid", k, g).dim for g in degs] == [1, 0, 0, 0]
        assert [solve_space(A, "qcentroid", k, g).dim for g in degs] == [1, 0, 0, 0]


def test_every_space_reverifies_independently():
    A = sl2c_z2z2()
    for kind in ("der", "gder", "qder", "centroid", "qcentroid"):
        for k in (0, 1):
            for g in all_degrees(A):
                space = solve_space(A, kind, k, g)
                assert reverify_space(A, space).ok, (kind, k, g)


def test_identity_in_centroid_when_alpha_is_identity():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    space = solve_space(A, "centroid", 0, A.basis.group.zero())
    assert member_of(space, linalg.dense(A.alpha_sparse(0), A.dim, A.m), A.m)


def test_centroid_of_twisted_example():
    # k = 0 centroid is the scalar line; k = 1 is spanned by diag(1,1,-1)
    A = sl2c_z2z2()
    c0 = solve_space(A, "centroid", 0, A.basis.group.zero())
    assert member_of(c0, linalg.dense(A.alpha_sparse(0), A.dim, A.m), A.m)
    c1 = solve_space(A, "centroid", 1, A.basis.group.zero())
    want = [[sc(1), sc(0), sc(0)], [sc(0), sc(1), sc(0)], [sc(0), sc(0), sc(-1)]]
    assert member_of(c1, want, A.m)
    assert c1.dim == 1


def test_derivation_space_membership_of_inner_maps():
    # inner maps by alpha-fixed elements commute with alpha; check membership
    # of ad(e3) in the degree-g3 derivation space at k = 0
    A = sl2c_z2z2()
    from colorhomlie.representations import adjoint
    R = adjoint(A)
    g3 = A.basis.group.element((1, 1))
    space = solve_space(A, "der", 0, g3)
    assert space.dim == 1
    # ad(e3) has degree g3 and alpha fixes e3; the identity defining the
    # 1-cocycles makes it a twisted derivation here
    ad3 = R.rho[2]
    assert member_of(space, ad3, A.m) or all(
        c.is_zero() for row in ad3 for c in row) is False


def test_centroid_inside_quasi_derivations():
    A = sl2c_z2z2()
    for k in (0, 1):
        for g in all_degrees(A):
            cent = solve_space(A, "centroid", k, g)
            qder = solve_space(A, "qder", k, g)
            for M in cent.basis:
                assert member_of(qder, M, A.m)


def test_inclusion_lattice_zero_bracket():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    report = check_inclusion_lattice(A, (0, 1), all_degrees(A))
    assert all(result.ok for result in report.values())


def test_inclusion_lattice_z2z2():
    A = sl2c_z2z2()
    report = check_inclusion_lattice(A, (0, 1), all_degrees(A))
    for name, result in report.items():
        assert result.ok, (name, result.failures[:2])


def test_inclusion_lattice_randomized(rng):
    for _ in range(4):
        A = random_multiplicative_algebra(rng)
        if A.dim > 3:
            continue
        report = check_inclusion_lattice(A, (0, 1), all_degrees(A))
        for name, result in report.items():
            assert result.ok, (A.name, name)


@pytest.mark.parametrize("build, verdicts", [
    (heis_zeta3, (True, True, False)),
    (sl2c_z2z2, (True, True, True)),
])
def test_inclusion_lattice_matches_per_use_oracle(build, verdicts):
    # heis_zeta3 fails qcentroid_brackets, so its failure list is compared too
    A = build()
    got = check_inclusion_lattice(A, range(3), all_degrees(A))
    want = inclusion_lattice_direct(A, range(3), all_degrees(A))
    assert {name: res.to_dict() for name, res in got.items()} == \
        {name: res.to_dict() for name, res in want.items()}
    assert tuple(got[name].ok for name in ("centroid_in_qder", "centroid_compose_gder",
                                           "qcentroid_brackets")) == verdicts


def test_jordan_product_square():
    A = sl2c_z2z2()
    g0 = A.basis.group.zero()
    D = [[sc(1), sc(0), sc(0)], [sc(0), sc(2), sc(0)], [sc(0), sc(0), sc(3)]]
    P = jordan_product(D, g0, D, g0, A.eps)
    DD = linalg.mat_mul(D, D)
    assert P == mat_add(DD, DD)


def test_jordan_product_eps_symmetry():
    A = sl2c_z2z2()
    rng = random.Random(23)
    G = A.basis.group
    for _ in range(10):
        g1 = rng.choice(list(G.elements()))
        g2 = rng.choice(list(G.elements()))
        D1 = [[sc(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        D2 = [[sc(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        e = A.eps(g1, g2)
        lhs = jordan_product(D1, g1, D2, g2, A.eps)
        rhs = mat_scale(e, jordan_product(D2, g2, D1, g1, A.eps))
        assert lhs == rhs


def test_quasi_centroid_jordan_closure_and_axioms():
    # powers 0..2 collect {Id, diag(1,1,-1)}; a single power is not closed
    # (the power-1 generator squares into power 2)
    A = sl2c_z2z2()
    J = quasi_centroid_jordan(A, max_power=2)
    assert J.dim == 2
    report = check_hom_jordan(J)
    assert report["hcj1"].ok
    assert report["hcj2"].ok


def test_quasi_centroid_single_power_not_closed():
    A = sl2c_z2z2()
    # restricting the span to powers {1} only cannot host the square
    with pytest.raises(NotClosedError):
        # max_power = 1 keeps Id (power 0) and diag(1,1,-1) (power 1): closed;
        # build a deliberately broken span by hand instead
        space = solve_space(A, "qcentroid", 1, A.basis.group.zero())
        mats = list(space.basis)
        for i, M1 in enumerate(mats):
            for j, M2 in enumerate(mats):
                P = jordan_product(M1, A.basis.group.zero(), M2,
                                   A.basis.group.zero(), A.eps)
                if _express_in_span(mats, P, A.m) is None:
                    raise NotClosedError("power-1 span misses the square")


def _plain_heisenberg(alpha):
    """[e1,e2] = e3, [e1,e3] = e2 with one degree and the given twist."""
    return build_algebra([2], [[0]], 2, ["e1", "e2", "e3"], [(0,), (0,), (0,)],
                         {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0]}, alpha, name="plain")


# (algebra, max_power, commute_with_alpha); the last three raise
# NotClosedError: the twist conjugation leaves the span at power 0, and the
# square of a power-1 element misses powers 0..1
JORDAN_INPUTS = [(heis_zeta3(), p, c) for p in (0, 1, 2) for c in (False, True)] + [
    (sl2c_z2z2(), p, False) for p in (0, 1, 2)] + [
    (build_algebra([2], [[0]], 2, ["e1", "e2", "e3"], [(0,), (0,), (0,)],
                   {(0, 1): [0, 0, 1]}, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]), p, False)
    for p in (0, 1)] + [
    (_plain_heisenberg([[1, 0, 0], [0, 2, 0], [0, 0, -1]]), 1, False)] + [
    (heis_zeta(5), 2, False)]


@pytest.mark.parametrize("case", range(len(JORDAN_INPUTS)))
def test_quasi_centroid_jordan_matches_per_call_solve(case):
    A, max_power, commute = JORDAN_INPUTS[case]
    try:
        want = quasi_centroid_jordan_direct(A, max_power, commute)
    except NotClosedError as exc:
        with pytest.raises(NotClosedError, match=re.escape(str(exc))):
            quasi_centroid_jordan(A, max_power, commute)
        return
    J = quasi_centroid_jordan(A, max_power, commute)
    assert (J.matrices, J.degrees, J.table, J.alpha_action) == want


def test_a_degree_four_field_solves_every_kind_and_inverts_sparse():
    # heis_zeta(5): every pivot and inverse is a scalar of Q(zeta_5), whose
    # inverse goes through its conjugates over its norm at phi = 4
    A = heis_zeta(5)
    gamma = A.basis.group.zero()
    dims = {}
    for kind in KINDS:
        space = solve_space(A, kind, 1, gamma)
        dims[kind] = len(space.basis)
        assert reverify_space(A, space).ok, kind
    assert dims == {"der": 2, "gder": 3, "qder": 3, "centroid": 1, "qcentroid": 2}
    J = quasi_centroid_jordan(A)
    assert J.dim == 5
    # the twist, the twist action on J and a Vandermonde matrix in zeta_5
    zeta = [CycloScalar.root_of_unity(A.m, k) for k in range(A.m)]
    vandermonde = [[zeta[i * j % A.m] for j in range(4)] for i in range(4)]
    for M in (A.alpha, J.alpha_action, vandermonde):
        want = linalg.sparse(inverse_direct(M, A.m))
        assert linalg.inverse(linalg.sparse(M), len(M), A.m) == want
    assert A.alpha_sparse(-1) == linalg.sparse(inverse_direct(A.alpha, A.m))


def test_jordan_inputs_cover_both_closure_failures():
    messages = set()
    for A, max_power, commute in JORDAN_INPUTS:
        try:
            quasi_centroid_jordan_direct(A, max_power, commute)
        except NotClosedError as exc:
            messages.add(str(exc).split(" ")[0])
    assert messages == {"twist", "quasi-centroid"}


def plain_matrix_pair_jordan():
    """The anticommutator on {Id, diag(1,1,-1)}, built by hand, identity twist."""
    A = sl2c_z2z2()
    G = A.basis.group
    m = A.m
    mats = [linalg.dense(A.alpha_sparse(0), A.dim, m),
            [[sc(1), sc(0), sc(0)], [sc(0), sc(1), sc(0)], [sc(0), sc(0), sc(-1)]]]
    degs = [G.zero(), G.zero()]
    table = []
    for i in range(2):
        row = []
        for j in range(2):
            P = jordan_product(mats[i], degs[i], mats[j], degs[j], A.eps)
            coords = _express_in_span(mats, P, m)
            assert coords is not None
            row.append(coords)
        table.append(row)
    return ProductAlgebraData(mats, A.dim, degs, table, {0: {0: sc(1)}, 1: {1: sc(1)}}, A.eps, m)


def test_hom_jordan_on_plain_matrix_pair():
    # sanity for the checker itself: the anticommutator on a commuting family
    # of even operators satisfies the twisted Jordan law with identity twist
    report = check_hom_jordan(plain_matrix_pair_jordan())
    assert report["hcj1"].ok and report["hcj2"].ok


def random_table_jordan():
    """A product with random structure constants and twist: neither
    eps-commutative nor Jordan, so every residual of the checker shows."""
    A = sl2c_z2z2()
    rng = random.Random(20261018)
    def entry():
        return sc(rng.randint(-2, 2))
    table = [[[entry() for _ in range(3)] for _ in range(3)] for _ in range(3)]
    alpha = [[entry() for _ in range(3)] for _ in range(3)]
    # no operator span behind it: the checker reads only the count of matrices
    return ProductAlgebraData([{}] * 3, A.dim, list(A.basis.degrees), table, alpha, A.eps, A.m)


# builder and (hcj1, hcj2) verdicts; the failing cases compare their failure
# lists, residual strings included
JORDAN_CASES = {
    "heis_zeta3": (lambda: quasi_centroid_jordan(heis_zeta3(), max_power=2),
                   (True, False)),
    "sl2c_z2z2": (lambda: quasi_centroid_jordan(sl2c_z2z2(), max_power=2),
                  (True, True)),
    "plain_pair": (plain_matrix_pair_jordan, (True, True)),
    "random_table": (random_table_jordan, (False, False)),
}


@pytest.mark.parametrize("case", sorted(JORDAN_CASES))
def test_hom_jordan_matches_quadruple_oracle(case):
    build, verdicts = JORDAN_CASES[case]
    J = build()
    got = {name: res.to_dict() for name, res in check_hom_jordan(J).items()}
    assert got == {name: res.to_dict() for name, res in hom_jordan_direct(J).items()}
    assert (got["hcj1"]["ok"], got["hcj2"]["ok"]) == verdicts


def test_heis_zeta3_jordan_and_lattice_verdicts_are_pinned():
    # the quasi-centroid of heis_zeta3 does not commute with alpha by default;
    # these verdicts are pinned so that settling that default shows up as an
    # intended change of output
    import sympy
    A = heis_zeta3()
    J = quasi_centroid_jordan(A, max_power=2)
    report = check_hom_jordan(J)
    assert J.dim == 5 and report["hcj1"].ok and len(report["hcj2"].failures) == 162
    [failure] = [f for f in report["hcj2"].failures if f["quadruple"] == [0, 0, 0, 2]]
    assert failure["residual"] == ["0", "0", "[-34;-54]", "0", "0"]
    # that residual again, by sympy over Q[x]/(x^2 + x + 1): the eps-weighted
    # cyclic sum over (p, q, r) of as(e_p e_q, alpha e_z, alpha e_r) at z = 0
    x, n = sympy.Symbol("x"), J.dim
    def sym(c):
        return sum(sympy.Rational(a, c.den) * x ** i for i, a in enumerate(c.num))
    def reduce(expr):
        return sympy.rem(sympy.expand(expr), x ** 2 + x + 1, x)
    def mul(u, v):
        return [reduce(sum(u[i] * v[j] * sym(J.table[i][j][k])
                           for i in range(n) for j in range(n))) for k in range(n)]
    def alpha(u):
        return [reduce(sum(sym(J.alpha_action[k][i]) * u[i] for i in range(n)))
                for k in range(n)]
    def unit(i):
        return [sympy.Integer(int(i == k)) for k in range(n)]
    residual, d, z = [0] * n, J.degrees, 0
    for p, q, r in ((0, 0, 2), (0, 2, 0), (2, 0, 0)):
        u, v, w = mul(unit(p), unit(q)), alpha(unit(z)), alpha(unit(r))
        e = sym(J.eps(d[r], d[p] + d[z]))
        residual = [acc + e * (a - b) for acc, a, b in
                    zip(residual, mul(mul(u, v), alpha(w)), mul(alpha(u), mul(v, w)))]
    assert [reduce(c) for c in residual] == [0, 0, -54 * x - 34, 0, 0]
    # the alpha-commuting quasi-centroid passes both laws
    J = quasi_centroid_jordan(A, max_power=2, commute_with_alpha=True)
    report = check_hom_jordan(J)
    assert J.dim == 3 and report["hcj1"].ok and report["hcj2"].ok
    lattice = check_inclusion_lattice(A, range(3), all_degrees(A))
    assert {name: len(res.failures) for name, res in lattice.items()} == \
        {"centroid_in_qder": 0, "centroid_compose_gder": 0, "qcentroid_brackets": 72}


def sparse_random_jordan(seed, n):
    """A random sparse product and twist on n basis elements of heis_zeta3's
    grading, over Q(zeta_3).  Every square e_p.e_p is nonzero, so the
    quadruples (p, p, z, p), where the three cyclic terms coincide, fail."""
    A, rng = heis_zeta3(), random.Random(seed)
    degrees = [rng.choice(all_degrees(A)) for _ in range(n)]
    def entry(density):
        if rng.random() > density:
            return sc(0, A.m)
        return CycloScalar((rng.randint(-2, 2), rng.randint(-2, 2)), A.m) or sc(1, A.m)
    table = [[[entry(0.3 if p == q else 0.15) for _ in range(n)] for q in range(n)]
             for p in range(n)]
    for p in range(n):
        table[p][p][rng.randrange(n)] = sc(rng.choice((-1, 1, 2)), A.m)
    alpha = [[entry(0.8 if i == j else 0.2) for j in range(n)] for i in range(n)]
    return ProductAlgebraData([{}] * n, A.dim, degrees, table, alpha, A.eps, A.m)


# no shrinking: each example runs the n^4 oracle, about 1.5 s
@settings(derandomize=True, max_examples=4, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(0, 2 ** 32), st.sampled_from((6, 7)))
def test_hom_jordan_matches_quadruple_oracle_on_sparse_tables(seed, n):
    J = sparse_random_jordan(seed, n)
    got = {name: res.to_dict() for name, res in check_hom_jordan(J).items()}
    assert got == {name: res.to_dict() for name, res in hom_jordan_direct(J).items()}
    assert any(x == y == w for x, y, z, w in
               (f["quadruple"] for f in got["hcj2"]["failures"]))


def test_hom_jordan_report_at_jordan_dim_16_is_pinned():
    # the report of the quadruple loop that the linear-in-the-first-slot
    # check replaced, hashed before the change
    J = quasi_centroid_jordan(direct_sum(heis_zeta3(), heis_zeta3(), "heis_zeta3^2"),
                              max_power=2)
    report = {name: res.to_dict() for name, res in check_hom_jordan(J).items()}
    assert J.dim == 16 and report["hcj1"]["ok"]
    assert len(report["hcj2"]["failures"]) == 2448
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
        "1220ad47636f42cdf7cdb1db061c2f7cee4d76c143e79abc4083932af48112a2"


def test_hom_jordan_forms_each_eps_once_per_triple():
    # eps(d_r, d_p + d_z) once per degree triple, plus one eps per pair for hcj1
    A = heis_zeta3()
    J = quasi_centroid_jordan(A, max_power=2)
    want = {name: res.to_dict() for name, res in hom_jordan_direct(J).items()}
    calls = []
    eps = J.eps
    def counting_eps(a, b):
        calls.append((a, b))
        return eps(a, b)
    J.eps = counting_eps
    got = {name: res.to_dict() for name, res in check_hom_jordan(J).items()}
    assert got == want
    assert len(calls) <= len(all_degrees(A)) ** 3 + J.dim ** 2


def test_each_space_is_solved_once_per_algebra(monkeypatch):
    """The benchmark's heis_zeta3 solve jobs, then quasi_centroid_jordan and
    check_inclusion_lattice: every (kind, k, gamma, commute) assembles its
    rows once, each term table is built once per (k, gamma, name), the two
    precomposed tables once per k, and the degree pattern once per gamma."""
    A = heis_zeta3()
    solves, assembled, precomposed, built, patterns = [], [], [], [], []
    class CountingPatterns(dict):
        def __setitem__(self, gamma, pattern):
            patterns.append(gamma)
            super().__setitem__(gamma, pattern)
    A._patterns = CountingPatterns()
    rows, precompose = structure_theory._defining_rows, StructureConstants.precompose
    term_rows = structure_theory._term_rows
    def counting_solve(B, kind, k, gamma, commute_with_alpha=None):
        solves.append((kind, k, gamma, commute_with_alpha))
        return solve_space(B, kind, k, gamma, commute_with_alpha)
    def counting_rows(B, k, gamma, kind, pattern, commute):
        assembled.append((kind, k, gamma, commute))
        return rows(B, k, gamma, kind, pattern, commute)
    def counting_precompose(table, left, right):
        precomposed.append(1)
        return precompose(table, left, right)
    def counting_terms(B, k, gamma, pattern, name):
        built.append((k, gamma, name))
        return term_rows(B, k, gamma, pattern, name)
    monkeypatch.setattr(structure_theory, "solve_space", counting_solve)
    monkeypatch.setattr(structure_theory, "_term_rows", counting_terms)
    monkeypatch.setattr(structure_theory, "_defining_rows", counting_rows)
    monkeypatch.setattr(StructureConstants, "precompose", counting_precompose)
    for kind in KINDS:
        for k in (0, 1):
            for g in all_degrees(A):
                structure_theory.solve_space(A, kind, k, g)
    quasi_centroid_jordan(A, max_power=2)
    check_inclusion_lattice(A, range(3), all_degrees(A))
    assert len(assembled) == len(set(assembled))
    assert len(solves) > len(set(solves)) >= len(assembled) > 0
    assert len(precomposed) == 2 * len({k for _, k, _, _ in assembled})
    assert len(built) == len(set(built)) > 0
    assert {(k, g) for k, g, _ in built} == {(k, g) for _, k, g, _ in assembled}
    assert {name for _, _, name in built} == {"d", "L", "-L", "-R"}
    assert len(patterns) == len(set(patterns)) == len(all_degrees(A))


@pytest.mark.parametrize("build", [heis_zeta3, sl2c_z2z2])
def test_inclusion_lattice_reads_each_space_once(build, monkeypatch):
    A = build()
    want = check_inclusion_lattice(A, range(3), all_degrees(A))
    calls = []
    def counting_solve(B, kind, k, gamma, **flags):
        calls.append((kind, k, gamma))
        return solve_space(B, kind, k, gamma, **flags)
    monkeypatch.setattr(structure_theory, "solve_space", counting_solve)
    got = check_inclusion_lattice(A, range(3), all_degrees(A))
    assert {name: res.to_dict() for name, res in got.items()} == \
        {name: res.to_dict() for name, res in want.items()}
    assert len(calls) == len(set(calls))
    assert {kind for kind, _, _ in calls} == {"centroid", "qder", "gder", "qcentroid"}
    assert ("gder", 4, A.basis.group.zero()) in calls


def test_mutating_a_returned_space_leaves_the_next_call_unchanged():
    A, fresh = heis_zeta3(), heis_zeta3()
    for kind in KINDS:
        for k in (0, 1):
            for g in all_degrees(A):
                space = solve_space(A, kind, k, g)
                want, dense = space.basis, space.basis
                # the dense basis is a fresh copy, and the space's own sparse
                # matrices are a copy of what A keeps
                if dense:
                    dense[0][0][0] = sc(7, A.m)
                    dense[0].append([])
                    space._basis[0][0] = {0: sc(7, A.m)}
                dense.append(linalg.dense(A.alpha_sparse(0), A.dim, A.m))
                space._basis.append(A.alpha_sparse(0))
                again = solve_space(A, kind, k, g)
                assert again is not space and again.basis == want
                assert solve_space(fresh, kind, k, g).basis == want


def test_solve_space_refuses_what_no_kind_defines():
    A, g = sl2c_z2z2(), sl2c_z2z2().basis.group.zero()
    for kind in ("der", "gder", "qder"):
        with pytest.raises(ValueError, match=kind):
            solve_space(A, kind, 0, g, commute_with_alpha=False)
        assert solve_space(A, kind, 0, g, commute_with_alpha=True).commute
    with pytest.raises(ValueError, match="unknown space kind"):
        solve_space(A, "ider", 0, g)
    for kind in KINDS:
        with pytest.raises(ValueError, match="non-negative"):
            solve_space(A, kind, -1, g)


def test_the_commute_table_covers_the_kinds_and_sets_each_default():
    assert tuple(_COMMUTE) == KINDS
    A, g = sl2c_z2z2(), sl2c_z2z2().basis.group.zero()
    assert [solve_space(A, kind, 0, g).commute for kind in KINDS] == \
        [True, True, True, True, False]


def test_kept_spaces_tell_the_commute_flag_apart():
    # the centroid and quasi-centroid of heis_zeta3 differ with and without
    # [D, alpha] = 0; one algebra answers both flags in turn as fresh ones do
    A, differ = heis_zeta3(), 0
    for kind, k, g in product(("centroid", "qcentroid"), (0, 1, 2), all_degrees(A)):
        want = [solve_space(heis_zeta3(), kind, k, g, commute_with_alpha=c).basis
                for c in (False, True)]
        for commute in (False, True, False, True):
            assert solve_space(A, kind, k, g, commute_with_alpha=commute).basis \
                == want[commute]
        differ += want[0] != want[1]
    assert differ


def test_spaces_do_not_depend_on_the_order_the_kinds_are_solved_in():
    # the kinds share the term tables of each (k, gamma) and the commute rows
    # of each gamma: a kind solved after the others, on a fresh algebra in
    # reverse order, finds the same space, and the kept rows come out equal
    A, B = heis_zeta3(), heis_zeta3()
    keys = [(k, g) for k in (0, 1, 2) for g in all_degrees(A)]
    want = {(kind, k, g): solve_space(A, kind, k, g).basis for kind in KINDS for k, g in keys}
    got = {(kind, k, g): solve_space(B, kind, k, g).basis
           for kind in reversed(KINDS) for k, g in keys}
    assert got == want
    assert A._terms == B._terms and A._commute == B._commute


def test_a_lone_kind_builds_only_the_terms_it_uses():
    for kind in KINDS:
        A = heis_zeta3()
        g = A.basis.group.zero()
        solve_space(A, kind, 1, g)
        uses = {"L", "-R"} if kind == "qcentroid" else {"d", "-L", "-R"}
        assert set(A._terms) == {(1, g)} and set(A._terms[(1, g)]) == uses


@pytest.mark.parametrize("build", [heis_zeta3, sl2c_z2z2])
def test_reverify_is_independent_of_the_solver_rows(build, monkeypatch):
    # reverify_space evaluates each identity pointwise: it must not reach the
    # solver's row assembly or the derived-table product
    A = build()
    spaces = [solve_space(A, kind, k, g) for kind in KINDS for k in (0, 1)
              for g in all_degrees(A)]
    def forbidden(*args, **kwargs):
        raise AssertionError("reverify_space reached the solver's code path")
    monkeypatch.setattr(structure_theory, "_defining_rows", forbidden)
    monkeypatch.setattr(structure_theory, "_term_rows", forbidden)
    monkeypatch.setattr(StructureConstants, "precompose", forbidden)
    monkeypatch.setattr(A, "_terms", None)  # the kept term tables are out of reach
    for space in spaces:
        assert reverify_space(A, space).ok, (space.kind, space.k, space.gamma)


@pytest.mark.parametrize("build", [heis_zeta3, sl2c_z2z2])
def test_reverify_rejects_a_matrix_pushed_out_of_the_space(build):
    # a spanning matrix (the zero matrix for an empty space) plus each unit
    # matrix E_ij of the degree pattern that takes it out of the space
    A = build()
    checked = set()
    for kind in KINDS:
        for k in (0, 1):
            for g in all_degrees(A):
                space = solve_space(A, kind, k, g)
                base = space.basis[0] if space.basis else zeros(A.dim, A.dim, A.m)
                for i, j in degree_pattern(A, g):
                    M = [list(row) for row in base]
                    M[i][j] = M[i][j] + sc(1, A.m)
                    if not member_of(space, M, A.m):
                        mutated = HomogeneousMapSpace(kind, k, g, [M], A.dim, A.m, space.commute)
                        assert not reverify_space(A, mutated).ok, (kind, k, g, (i, j))
                        checked.add(kind)
    assert checked == set(KINDS)


# the seeds draw each conftest family whose identities can fail; the zero
# bracket over Z3 has alpha = Id, so every perturbation of it passes
REVERIFY_CASES = [heis_zeta3(), sl2c_z2z2(), motion_z2z3()] + [
    random_multiplicative_algebra(random.Random(seed)) for seed in (0, 5, 7, 9, 12, 14, 19)]


@pytest.mark.parametrize("case", range(len(REVERIFY_CASES)))
def test_support_only_reverification_matches_the_all_pairs_oracle(case):
    # every spanning matrix, and the first one (the zero matrix for an empty
    # space) plus E_ij at each pattern cell; where column j of that matrix is
    # zero, the perturbation alone makes D e_j nonzero, so the pairs (j, y)
    # that were skipped must be evaluated
    A = REVERIFY_CASES[case]
    verdicts, untouched = set(), 0
    for kind in ("der", "centroid", "qcentroid"):
        for k in (0, 1):
            for g in all_degrees(A):
                space = solve_space(A, kind, k, g)
                base = space.basis[0] if space.basis else zeros(A.dim, A.dim, A.m)
                matrices = list(space.basis)
                for i, j in degree_pattern(A, g):
                    M = [list(row) for row in base]
                    M[i][j] = M[i][j] + sc(1, A.m)
                    matrices.append(M)
                    untouched += all(row[j].is_zero() for row in base)
                for M in matrices:
                    want = identity_holds_on_all_pairs_direct(A, space, M)
                    single = HomogeneousMapSpace(kind, k, g, [M], A.dim, A.m, space.commute)
                    assert reverify_space(A, single).ok == want, (A.name, kind, k, g, M)
                    verdicts.add(want)
    assert verdicts == {True, False} and untouched


def _row_cases():
    """Ten seeded random algebras, heis_zeta3, its direct square, motion_z2z3,
    and the sl2c_z2z2 bracket under a dense twist (every generated twist is
    diagonal; the rows are defined for any twist, multiplicative or not)."""
    rng = random.Random(20261020)
    cases = [random_multiplicative_algebra(rng) for _ in range(10)]
    H = heis_zeta3()
    dense = build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"], [(1, 0), (0, 1), (1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
        [[1, 2, 0], [0, 1, -1], [1, 0, 3]], name="sl2c_z2z2_dense_twist")
    return cases + [H, direct_sum(H, H, "heis_zeta3^2"), motion_z2z3(), dense]


ROW_CASES = _row_cases()


def _nonzero_rows(rows):
    """The dense oracle's rows as sparse {column: value} dicts, in order, less
    the rows that vanish."""
    sparse = [{c: a for c, a in enumerate(row) if not a.is_zero()} for row in rows]
    return [row for row in sparse if row]


TWO_PASS_CASES = [heis_zeta3(), sl2c_z2z2(), sl2c_z2z3(), motion_z2z3()] + [
    random_multiplicative_algebra(random.Random(seed)) for seed in range(4)]


def test_one_elimination_gives_the_two_pass_bases_of_the_multi_block_kinds():
    # qder and gder carry partner blocks after the D block; the rref kernel
    # projected onto the D block must be the rref of the projection, which
    # the two-pass oracle forms by a second elimination
    dropped = 0
    for A in TWO_PASS_CASES:
        for kind, k in product(("qder", "gder"), (0, 1)):
            for gamma in all_degrees(A):
                space = solve_space(A, kind, k, gamma)
                assert space.basis == solve_space_two_pass_direct(A, kind, k, gamma), \
                    (A.name, kind, k, gamma.components)
                assert_rref([[c for row in M for c in row] for M in space.basis])
                pattern = degree_pattern(A, gamma)
                if pattern:
                    rows, nvars, _ = _defining_rows(A, k, gamma, kind, pattern, space.commute)
                    dropped += len(linalg.sparse_kernel_basis(rows, nvars, A.m)) - \
                        len(space.basis)
    # some kernel vectors lead past the D block and project to zero
    assert dropped > 0


@pytest.mark.parametrize("case", range(len(ROW_CASES)))
def test_defining_rows_match_dense_oracle(case):
    A = ROW_CASES[case]
    # The dense oracle needs about 80 s for the full range on the dim-6
    # square, so there it runs at k = 1 with the commute rows on only; the
    # rows without them are checked to be a prefix of those.
    full = A.dim <= 3
    for kind in KINDS:
        for k in ((0, 1, 2) if full else (1,)):
            for gamma in A.basis.group.elements():
                pattern = degree_pattern(A, gamma)
                if not pattern:
                    continue
                for commute in ((True, False) if full else (True,)):
                    rows, nvars, nD = defining_rows_direct(A, k, gamma, kind, pattern,
                                                           commute)
                    want = (_nonzero_rows(rows), nvars, nD)
                    got = _defining_rows(A, k, gamma, kind, pattern, commute)
                    assert_zero_free(got[0])
                    assert got == want, (A.name, kind, k, gamma.components, commute)
                if not full:
                    rows, _, _ = _defining_rows(A, k, gamma, kind, pattern, False)
                    assert rows == want[0][:len(rows)]


def test_row_cases_cover_the_edge_shapes():
    names = {A.name for A in ROW_CASES}
    # eps(a,a) = -1 self-brackets, m = 3 scalars, the twisted Z2^3 bracket,
    # dim 6, and a twist with entries off the diagonal
    assert {"super_z2_rescaled", "heis_z3_rescaled", "sl2_twisted_rescaled",
            "heis_zeta3^2"} <= names
    assert any(not A.alpha[i][j].is_zero() for A in ROW_CASES
               for i in range(A.dim) for j in range(A.dim) if i != j)


PARTNER_CASES = [heis_zeta3(), sl2c_z2z2(), motion_z2z3()] + [
    random_multiplicative_algebra(random.Random(seed)) for seed in range(4)]


@pytest.mark.parametrize("case", range(len(PARTNER_CASES)))
def test_partner_rows_match_dense_oracle(case):
    A = PARTNER_CASES[case]
    solved = 0
    for kind in ("qder", "gder"):
        for k in (0, 1):
            for gamma in A.basis.group.elements():
                pattern = degree_pattern(A, gamma)
                if not pattern:
                    continue
                # every spanning matrix of the solved space, and one pattern
                # matrix whose identity fails, so the right-hand sides differ
                probe = zeros(A.dim, A.dim, A.m)
                for t, (i, j) in enumerate(pattern):
                    probe[i][j] = sc(t + 1, A.m)
                basis = solve_space(A, kind, k, gamma).basis
                solved += len(basis)
                for D in basis + [probe]:
                    # the oracle's rows augmented by their right-hand sides, past every unknown
                    rows, rhs = partner_rows_direct(A, k, gamma, D, kind)
                    aug = len(rows[0])
                    got = _partner_rows(A, k, gamma, linalg.sparse(D), kind, pattern)
                    assert got == (_nonzero_rows([row + [t] for row, t in zip(rows, rhs)]), aug), \
                        (A.name, kind, k, gamma.components)
    assert solved > 0


def test_partner_maps_exist_exactly_when_the_dense_system_is_solvable():
    # every spanning matrix of a qder/gder space, and the first one plus E_ij
    # at each pattern cell: reverify_space accepts exactly the matrices that
    # commute with alpha and whose dense partner system solve_direct solves;
    # on motion_z2z3 some matrices commute with alpha and still have no partner
    A = motion_z2z3()
    verdicts = set()
    for kind in ("qder", "gder"):
        for k in (0, 1):
            for g in all_degrees(A):
                space = solve_space(A, kind, k, g)
                base = space.basis[0] if space.basis else zeros(A.dim, A.dim, A.m)
                matrices = list(space.basis)
                for i, j in degree_pattern(A, g):
                    M = [list(row) for row in base]
                    M[i][j] = M[i][j] + sc(1, A.m)
                    matrices.append(M)
                for M in matrices:
                    if mat_mul_direct(M, A.alpha) != mat_mul_direct(A.alpha, M):
                        continue
                    want = solve_direct(*partner_rows_direct(A, k, g, M, kind), A.m) is not None
                    single = HomogeneousMapSpace(kind, k, g, [M], A.dim, A.m, space.commute)
                    assert reverify_space(A, single).ok == want, (A.name, kind, k, g, M)
                    verdicts.add(want)
    assert verdicts == {True, False}


def test_gder_includes_centroid_construction():
    # centroid elements are generalized derivations with D' = 0, D'' = D
    A = sl2c_z2z2()
    for k in (0, 1):
        for g in all_degrees(A):
            cent = solve_space(A, "centroid", k, g)
            gder = solve_space(A, "gder", k, g)
            for M in cent.basis:
                assert member_of(gder, M, A.m)


# -- the eps argument orders on the clock algebras --------------------------------
#
# eps(b, a) = eps(a, b)^-1, so the two orders differ only where eps(a, b) is
# not +-1, which needs m >= 3, a nonzero degree gamma and brackets that do not
# vanish on it.  The clock algebras have all three: m = 3, and [e_i, e_j] != 0
# for most pairs of distinct degrees.

CLOCKS = {"clock3": clock3, "clock3_twisted": clock3_twisted}
# the space dimensions per (kind, k), at the degrees in group order
CLOCK_DIMS = {
    "clock3": {("der", 0): [1] * 9, ("gder", 0): [2] * 9, ("qder", 0): [2] * 9,
               ("centroid", 0): [2] + [0] * 8, ("qcentroid", 0): [2] + [1] * 8},
    "clock3_twisted": {("der", 0): [1] * 3 + [0] * 6, ("gder", 0): [2] * 3 + [0] * 6,
                       ("qder", 0): [2] * 3 + [0] * 6, ("centroid", 0): [2] + [0] * 8,
                       ("qcentroid", 0): [2] + [1] * 8},
}


@pytest.mark.parametrize("name", sorted(CLOCKS))
def test_every_kind_reverifies_on_the_clock_algebras_at_all_nine_degrees(name):
    # every space at k = 0, 1 and each degree: reverify_space accepts it, and
    # each der, centroid and qcentroid matrix holds on all pairs of the
    # dense-pair oracle, which forms its own eps(gamma, x)
    A = CLOCKS[name]()
    dims = {}
    for kind, k in product(KINDS, (0, 1)):
        for g in all_degrees(A):
            space = solve_space(A, kind, k, g)
            assert reverify_space(A, space).ok, (name, kind, k, g.components)
            if kind in ("der", "centroid", "qcentroid"):
                assert all(identity_holds_on_all_pairs_direct(A, space, M)
                           for M in space.basis), (name, kind, k, g.components)
            dims.setdefault((kind, k), []).append(space.dim)
    assert dims == {(kind, k): want for (kind, _), want in CLOCK_DIMS[name].items()
                    for k in (0, 1)}


# the dense oracle costs about 0.3 s per system at dim 9, so it checks two:
# a one-block kind and the three-block gder, each at a degree where
# eps(gamma, x) != eps(x, gamma) for some x
@pytest.mark.parametrize("name, kind, k, degree", [("clock3", "der", 0, (1, 0)),
                                                   ("clock3_twisted", "gder", 1, (2, 1))])
def test_clock_rows_match_the_dense_oracle(name, kind, k, degree):
    A = CLOCKS[name]()
    gamma = A.basis.group.element(degree)
    pattern = degree_pattern(A, gamma)
    rows, nvars, nD = defining_rows_direct(A, k, gamma, kind, pattern, True)
    assert _defining_rows(A, k, gamma, kind, pattern, True) == (_nonzero_rows(rows), nvars, nD)


def test_the_quasi_centroid_product_refuses_a_singular_twist():
    from colorhomlie.algebra_core import AlgebraStructureError
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)], alpha=[[1, 0], [0, 0]])
    with pytest.raises(AlgebraStructureError,
                       match="^quasi-centroid twist action needs invertible alpha$"):
        quasi_centroid_jordan(A)
