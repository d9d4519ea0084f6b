"""Truncated formal deformations, equivalences, composition families."""
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from colorhomlie import linalg
from colorhomlie.algebra_core import BracketTable, ColorHomAlgebra, derived_algebra
from colorhomlie.cohomology import delta_matrix
from colorhomlie.deformations import (DeformationError, FormalAutomorphism,
                                      TruncatedBracket, bracket_term_as_cochain,
                                      check_deformation, check_equivalence,
                                      composition_deformation, first_order_class,
                                      transport_bracket)
from colorhomlie.scalars_grading import CycloScalar, euler_phi
from conftest import (assert_rotations_share_residuals, assert_zero_free, build_algebra,
                      check_deformation_direct, check_equivalence_direct,
                      composition_failing_orders_direct, coord_index, heis_zeta3, in_span,
                      mat_add, mat_scale, motion_z2z3, phi_coefficient, sc,
                      series_product_direct, sl2c_z2z2, sl2c_z2z3, sparse_vector,
                      transport_bracket_direct, zero_algebra, zeros)


def _alpha1(A):
    return [[sc(-1, A.m), sc(0, A.m), sc(0, A.m)],
            [sc(0, A.m), sc(-1, A.m), sc(0, A.m)],
            [sc(0, A.m), sc(0, A.m), sc(1, A.m)]]


def _zero_term(A):
    return BracketTable(A.basis, A.eps, {}, A.m)


def test_order_zero_is_the_base_jacobi_check():
    A = sl2c_z2z2()
    B = TruncatedBracket(A, 0, [A.bracket])
    per = check_deformation(A, B)
    assert set(per) == {0}
    assert per[0].ok


def test_term_zero_must_match_base():
    A = sl2c_z2z2()
    with pytest.raises(DeformationError):
        TruncatedBracket(A, 0, [_zero_term(A)])


def test_arbitrary_skew_term_fails_at_order_one():
    # a term that is not a two-cocycle breaks the order-1 equation
    A = sl2c_z2z2()
    term = BracketTable(A.basis, A.eps, {(0, 1): [sc(0), sc(1), sc(0)]}, A.m)
    B = TruncatedBracket(A, 1, [A.bracket, term])
    per = check_deformation(A, B)
    assert per[0].ok
    assert not per[1].ok
    res = first_order_class(A, B)
    assert not res["is_cocycle"]


def test_worked_example_representative_is_an_integrable_start():
    A = sl2c_z2z2()
    term = BracketTable(A.basis, A.eps, {
        (0, 1): [sc(0), sc(1), sc(0)],
        (0, 2): [sc(0), sc(0), sc(1)],
    }, A.m)
    B = TruncatedBracket(A, 1, [A.bracket, term])
    assert all(r.ok for r in check_deformation(A, B).values())
    res = first_order_class(A, B)
    assert res["is_cocycle"]
    assert res["class_is_zero"] is False


def test_first_order_class_works_on_sparse_coordinates():
    A = sl2c_z2z2()
    term = BracketTable(A.basis, A.eps, {
        (0, 1): [sc(0), sc(1), sc(0)],
        (0, 2): [sc(0), sc(0), sc(1)],
    }, A.m)
    space, coords = bracket_term_as_cochain(A, term)
    assert coords == {coord_index(space, (0, 1), 1): sc(1),
                      coord_index(space, (0, 2), 2): sc(1)}
    for i in range(A.dim):
        for j in range(A.dim):
            assert space.evaluate_basis(coords, (i, j)) == sparse_vector(term.of_basis(i, j))
    B = TruncatedBracket(A, 1, [A.bracket, term])
    rep = first_order_class(A, B)["class_representative"]
    # the term less a coboundary of a compatible 1-cochain, and not zero
    lower, _ = delta_matrix(A, space.module, 1, 0, A.basis.group.zero(), domain="compatible")
    diff = dict(coords)
    linalg._add_scaled(diff, -sc(1), rep.coords)
    assert isinstance(rep.coords, dict) and not rep.is_zero()
    assert in_span(lower, diff)


def test_trivial_deformation_first_order():
    A = sl2c_z2z2()
    B = TruncatedBracket(A, 2, [A.bracket, _zero_term(A), _zero_term(A)])
    res = first_order_class(A, B)
    assert res["is_cocycle"] and res["class_is_zero"]
    assert "warning" not in res and res["adjoint_convention"].startswith("r=0")


def test_first_order_class_warns_on_a_singular_twist():
    A = zero_algebra([2], [[0]], 2, [(0,), (1,)], alpha=[[1, 0], [0, 0]])
    res = first_order_class(A, TruncatedBracket(A, 1, [A.bracket, _zero_term(A)]))
    assert res["warning"].startswith("twist is singular") and "adjoint_convention" not in res
    assert res["is_cocycle"] and res["class_is_zero"]


def test_malformed_series_are_refused():
    A = sl2c_z2z2()
    with pytest.raises(DeformationError, match="order 1 needs 2 bracket terms, got 1"):
        TruncatedBracket(A, 1, [A.bracket])
    with pytest.raises(DeformationError, match="alpha_terms must be None or non-empty"):
        TruncatedBracket(A, 0, [A.bracket], alpha_terms=[])
    with pytest.raises(DeformationError, match="formal automorphism needs at least phi_0"):
        FormalAutomorphism([])
    base = TruncatedBracket(A, 0, [A.bracket])
    with pytest.raises(DeformationError, match="first-order analysis needs order >= 1"):
        first_order_class(A, base)
    with pytest.raises(DeformationError, match="must share the truncation order"):
        check_equivalence(A, base, TruncatedBracket(A, 1, [A.bracket, _zero_term(A)]),
                          FormalAutomorphism([A.alpha_sparse(0)]))


def test_composition_deformation_identity_series():
    L = sl2c_z2z3()
    B = composition_deformation(L, [L.alpha_sparse(0)])
    assert B.order == 0
    assert B.terms[0].equals(L.bracket)
    assert B.endomorphism_failing_orders == []


def test_composition_deformation_no_endomorphism_orders_recorded():
    L = sl2c_z2z3()
    B = composition_deformation(L, [L.alpha_sparse(0), _alpha1(L)], order=3)
    # Id + t a1 never satisfies the coefficient-wise endomorphism law:
    # order 1 wants a derivation, order 2 wants vanishing pairwise brackets
    assert B.endomorphism_failing_orders == [1, 2]
    with pytest.raises(DeformationError):
        composition_deformation(L, [L.alpha_sparse(0), _alpha1(L)],
                                order=3, require_endomorphism=True)


def test_composition_deformation_closes_orderwise():
    L = sl2c_z2z3()
    for rows in ([[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
                 [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
                 [[-1, 0, 0], [0, 0, 1], [0, -1, 0]]):
        a1 = [[sc(v, L.m) for v in row] for row in rows]
        B = composition_deformation(L, [L.alpha_sparse(0), a1], order=3)
        per = check_deformation(B.algebra, B)
        assert all(res.ok for res in per.values()), rows
        assert first_order_class(B.algebra, B)["is_cocycle"]


def test_composition_requires_untwisted_start():
    A = sl2c_z2z2()  # alpha != Id
    with pytest.raises(DeformationError):
        composition_deformation(A, [A.alpha_sparse(0)])


def test_derived_composition_series_expansion():
    # level 1: bracket (Id + t a)^2 o [.,.] = [.,.] + 2t a[.,.] + t^2 a^2 [.,.]
    L = sl2c_z2z3()
    a1 = _alpha1(L)
    B = composition_deformation(L, [L.alpha_sparse(0), a1],
                                order=2, derived=1)
    two_a = mat_scale(sc(2, L.m), a1)
    want1 = L.bracket.compose_with(linalg.sparse(two_a))
    assert B.terms[1].equals(want1)
    want2 = L.bracket.compose_with(linalg.sparse(linalg.mat_mul(a1, a1)))
    assert B.terms[2].equals(want2)
    # twist series Id + 2t a + t^2 a^2
    assert B.alpha_terms[1] == linalg.sparse(two_a)
    assert B.alpha_terms[2] == linalg.sparse(linalg.mat_mul(a1, a1))
    per = check_deformation(B.algebra, B)
    assert all(res.ok for res in per.values())


def test_a_derived_composition_family_starts_at_level_n_of_the_alpha0_composed_algebra():
    # alpha_t = alpha_0 = diag(-1, -1, 1), a constant automorphism: level n of
    # the alpha_0-composed algebra is (L, [.,.], Id), and every order passes
    L = sl2c_z2z3()
    a0 = linalg.sparse(_alpha1(L))
    composed = ColorHomAlgebra(L.basis, L.eps, L.bracket.compose_with(a0), a0, L.m)
    for n in (1, 2):
        B = composition_deformation(L, [_alpha1(L)], order=2, derived=n,
                                    require_endomorphism=True)
        D = derived_algebra(composed, n)
        assert B.algebra.bracket.equals(D.bracket) and D.bracket.equals(L.bracket)
        assert B.algebra.alpha_sparse(1) == D.alpha_sparse(1) == L.alpha_sparse(0)
        assert all(res.ok for res in check_deformation(B.algebra, B).values())


def test_skew_and_grading_reports():
    A = sl2c_z2z2()
    term = BracketTable(A.basis, A.eps, {(0, 1): [sc(1), sc(0), sc(0)]}, A.m)
    B = TruncatedBracket(A, 1, [A.bracket, term])
    assert B.skew_report().ok
    grading = ColorHomAlgebra(A.basis, A.eps, term, A.alpha, A.m).check_grading()
    assert not grading.ok  # e1 is not in the degree of [e1, e2]


def test_equivalence_reflexive():
    A = sl2c_z2z2()
    B = TruncatedBracket(A, 1, [A.bracket, _zero_term(A)])
    phi = FormalAutomorphism([A.alpha_sparse(0)])
    rep = check_equivalence(A, B, B, phi)
    assert rep["bracket"].ok and rep["twist"].ok and rep["automorphism"].ok


def test_transport_round_trip():
    A = sl2c_z2z2()
    term = BracketTable(A.basis, A.eps, {
        (0, 1): [sc(0), sc(1), sc(0)],
        (0, 2): [sc(0), sc(0), sc(1)],
    }, A.m)
    B1 = TruncatedBracket(A, 2, [A.bracket, term, _zero_term(A)])
    # phi_1 even: diagonal works (all components are one-dimensional)
    phi1 = [[sc(2), sc(0), sc(0)], [sc(0), sc(-1), sc(0)], [sc(0), sc(0), sc(3)]]
    phi = FormalAutomorphism([A.alpha_sparse(0), phi1,
                              zeros(3, 3, A.m)])
    B2 = transport_bracket(A, B1, phi)
    rep = check_equivalence(A, B1, B2, phi)
    assert rep["bracket"].ok
    assert rep["twist"].ok


def test_equivalence_twist_mismatch_detected():
    A = sl2c_z2z2()
    B1 = TruncatedBracket(A, 1, [A.bracket, _zero_term(A)])
    other_alpha = [A.alpha_sparse(0), zeros(3, 3, A.m)]
    B2 = TruncatedBracket(A, 1, [A.bracket, _zero_term(A)],
                          alpha_terms=other_alpha)
    phi = FormalAutomorphism([A.alpha_sparse(0)])
    rep = check_equivalence(A, B1, B2, phi)
    assert not rep["twist"].ok
    assert rep["twist"].failures[0]["order"] == 0


def test_formal_automorphism_validation():
    A = sl2c_z2z2()
    bad = FormalAutomorphism([zeros(3, 3, A.m)])
    assert not bad.validate(A).ok
    odd = zeros(3, 3, A.m)
    odd[0][1] = sc(1, A.m)  # moves e2 into the e1 component
    phi = FormalAutomorphism([A.alpha_sparse(0), odd])
    assert not phi.validate(A).ok
    with pytest.raises(DeformationError):
        transport_bracket(A, TruncatedBracket(A, 1, [A.bracket, _zero_term(A)]),
                          phi)


def test_inverse_series_is_exact():
    A = sl2c_z2z2()
    phi1 = [[sc(1), sc(0), sc(0)], [sc(0), sc(2), sc(0)], [sc(0), sc(0), sc(-1)]]
    phi = FormalAutomorphism([A.alpha_sparse(0), phi1])
    psis = phi.inverse_series(A, 3)
    # convolution phi * psi must be the identity series
    for s in range(4):
        acc = zeros(3, 3, A.m)
        for i in range(s + 1):
            pi = phi_coefficient(phi, i, A)
            if pi is None:
                continue
            acc = mat_add(acc, linalg.mat_mul(pi, psis[s - i]))
        want = linalg.dense(A.alpha_sparse(0), A.dim, A.m) if s == 0 else zeros(3, 3, A.m)
        assert acc == want


# -- the derived-table evaluations against the pointwise oracles --------------

def _rand(rng, m):
    return CycloScalar([rng.choice([0, 0, 1, -1, 2]) for _ in range(euler_phi(m))], m)


def _rand_matrix(rng, A, even=False):
    return [[_rand(rng, A.m) if not even or A.degree(i) == A.degree(j)
             else CycloScalar.zero(A.m) for j in range(A.dim)] for i in range(A.dim)]


def _rand_term(rng, A):
    """A random skew term, generally neither graded nor a cocycle."""
    return BracketTable(A.basis, A.eps, {
        (i, j): [_rand(rng, A.m) for _ in range(A.dim)]
        for i in range(A.dim) for j in range(i, A.dim) if rng.random() < 0.6}, A.m)


def _rand_deformation(rng, A, order):
    terms = [A.bracket] + [_rand_term(rng, A) for _ in range(order)]
    alpha_terms = None if rng.random() < 0.4 else \
        [A.alpha] + [_rand_matrix(rng, A) for _ in range(rng.randint(0, order + 1))]
    return TruncatedBracket(A, order, terms, alpha_terms)


def _rand_automorphism(rng, A, order, even=False):
    return FormalAutomorphism([A.alpha_sparse(0)] + [
        _rand_matrix(rng, A, even) for _ in range(rng.randint(0, order + 1))])


def _dump(report):
    return json.dumps({key: value.to_dict() for key, value in report.items()})


def _skew_part(A, B):
    """B without the diagonal values [e_i, e_i] that skew maps must not have."""
    def skew(term):
        return BracketTable(A.basis, A.eps, {
            (i, j): row for (i, j), row in term.rows.items()
            if i != j or A.eps.sign_is_minus_one(A.degree(i), A.degree(i))}, A.m)
    return TruncatedBracket(A, B.order, [skew(t) for t in B.terms], B.alpha_terms)


@pytest.mark.parametrize("make", [sl2c_z2z2, sl2c_z2z3, heis_zeta3])
def test_deformation_equations_match_the_pointwise_oracle(make):
    # non-cocycle terms up to order 3, with a fixed and a deformed twist; the
    # residual is formed once per rotation class, and every failing triple
    # is still listed, in row-major order
    A, rng = make(), random.Random(20261020)
    failing = rotated = 0
    for order in (2, 3, 2, 3):
        B = _rand_deformation(rng, A, order)
        per = check_deformation(A, B)
        assert _dump(per) == _dump(check_deformation_direct(A, B))
        failing += sum(not per[s].ok for s in range(2, order + 1))
        rotated += sum(assert_rotations_share_residuals(res.failures) for res in per.values())
    assert failing >= 4 and rotated


@pytest.mark.parametrize("make", [sl2c_z2z2, sl2c_z2z3, heis_zeta3])
def test_equivalence_and_transport_match_the_pointwise_oracles(make):
    A, rng = make(), random.Random(20261021)
    failing = refused = 0
    for order in (1, 2, 3):
        B1, B2 = _rand_deformation(rng, A, order), _rand_deformation(rng, A, order)
        # a non-equivalence: unrelated deformations and an arbitrary phi
        phi = _rand_automorphism(rng, A, order)
        rep = check_equivalence(A, B1, B2, phi)
        assert _dump(rep) == _dump(check_equivalence_direct(A, B1, B2, phi))
        failing += (not rep["bracket"].ok) + (not rep["twist"].ok)
        # the transport along an even phi: a B1 with a diagonal value where
        # eps(x,x) = +1 is refused, and its skew part is transported instead
        even = _rand_automorphism(rng, A, order, even=True)
        if not B1.skew_report().ok:
            with pytest.raises(DeformationError, match="skew"):
                transport_bracket(A, B1, even)
            refused += 1
            B1 = _skew_part(A, B1)
        T = transport_bracket(A, B1, even)
        terms, alphas = transport_bracket_direct(A, B1, even)
        assert all(t.equals(u) for t, u in zip(T.terms, terms))
        assert all(a == linalg.sparse(b) for a, b in zip(T.alpha_terms, alphas))
        rep = check_equivalence(A, B1, T, even)
        assert rep["twist"].ok and rep["bracket"].ok
        assert _dump(rep) == _dump(check_equivalence_direct(A, B1, T, even))
    assert failing >= 3 and refused >= 1


def test_transport_refuses_a_non_skew_deformation():
    # [e1, e1]_1 = e3 with eps(d1, d1) = +1, and phi_1 e2 = e1 mixing the
    # degree of e1: transporting the pairs i <= j and completing them by the
    # skew rule gave a table not equivalent to B1, failing at (e2, e1)
    A = heis_zeta3()
    zero = [CycloScalar.zero(A.m)] * A.dim
    term = BracketTable(A.basis, A.eps, {(0, 0): [zero[0], zero[1], sc(1, A.m)]}, A.m)
    B1 = TruncatedBracket(A, 2, [A.bracket, term, _zero_term(A)])
    phi1 = zeros(A.dim, A.dim, A.m)
    phi1[0][1] = sc(1, A.m)
    phi = FormalAutomorphism([A.alpha_sparse(0), phi1])
    assert phi.validate(A).ok
    assert B1.skew_report().failures[0]["pair"] == ["e1", "e1"]
    with pytest.raises(DeformationError, match="e1"):
        transport_bracket(A, B1, phi)


@pytest.mark.parametrize("make", [sl2c_z2z3, motion_z2z3])
def test_composition_failing_orders_match_the_pointwise_oracle(make):
    L, rng = make(), random.Random(20261022)
    for n in (1, 2, 3):
        alphas = [L.alpha] + [_rand_matrix(rng, L) for _ in range(n)]
        for order in (n - 1, n, n + 1):
            B = composition_deformation(L, alphas, order=order)
            assert B.endomorphism_failing_orders == \
                composition_failing_orders_direct(L, alphas, order)


# -- series arithmetic against the dense convolution ----------------------------

def _heis_untwisted():
    """The Z3 Heisenberg algebra with the identity twist: m = 3, untwisted."""
    return build_algebra([3], [[0]], 3, ["e1", "e2", "e3"], [(1,), (1,), (2,)],
                         {(0, 1): [0, 0, 1]}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


# per root order: an algebra for the twist series, and an untwisted one for
# the composition family
SERIES_ALGEBRAS = {2: (sl2c_z2z2, sl2c_z2z3), 3: (heis_zeta3, _heis_untwisted)}
# a coefficient: None is the zero matrix, else two integer coefficients per
# entry (the second unused at m = 2)
COEFFICIENT = st.none() | st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)),
                                   min_size=18, max_size=18)
TAIL = st.lists(COEFFICIENT, max_size=3)
CELLS = [1, 0, 0, 1, 0, 0, -1, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1, -1]


def _series(A, head, tail):
    """head, then one dense matrix per tail coefficient."""
    phi = euler_phi(A.m)
    return [head] + [zeros(A.dim, A.dim, A.m) if cells is None else
                     [[CycloScalar(cells[6 * i + 2 * j:][:phi], A.m) for j in range(3)]
                      for i in range(3)] for cells in tail]


def _is_dense_series(series, n):
    return all(isinstance(M, list) and len(M) == n and
               all(isinstance(row, list) and len(row) == n for row in M) for M in series)


def _series_eq(got, want):
    return len(got) == len(want) and all(linalg.sparse(a) == linalg.sparse(b)
                                         for a, b in zip(got, want))


# order 3 takes four coefficients: each explicit series is shorter, padded
# with zero coefficients, and has a zero coefficient at t^1
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@example(m=2, order=3, phi_tail=[None, CELLS], alpha_tails=([None, CELLS], [CELLS]),
         derived=1)
@example(m=3, order=3, phi_tail=[None, CELLS], alpha_tails=([None, CELLS], [None]),
         derived=2)
@given(m=st.sampled_from((2, 3)), order=st.integers(1, 3), phi_tail=TAIL,
       alpha_tails=st.tuples(TAIL, TAIL), derived=st.integers(0, 3))
def test_series_arithmetic_matches_the_dense_convolution(m, order, phi_tail, alpha_tails,
                                                         derived):
    A, L = (build() for build in SERIES_ALGEBRAS[m])
    n, ident = A.dim, linalg.dense(A.alpha_sparse(0), A.dim, m)
    phis = _series(A, ident, phi_tail)
    phi = FormalAutomorphism(phis)
    # inverse_series: phi_t psi_t = Id mod t^(order+1), dense
    psis = phi.inverse_series(A, order)
    assert _is_dense_series(psis, n)
    assert _series_eq(series_product_direct(phis, psis, order, n, m),
                      [ident] + [zeros(n, n, m)] * order)
    # the composition family's twist series alpha_t^(2^derived), kept sparse
    alphas = _series(L, ident, alpha_tails[0])
    want = [ident]
    for _ in range(1 << derived):
        want = series_product_direct(want, alphas, order, n, m)
    B = composition_deformation(L, alphas, order=order, derived=derived)
    assert all(isinstance(M, dict) for M in B.alpha_terms)
    assert_zero_free([row for M in B.alpha_terms for row in M.values()])
    assert _series_eq(B.alpha_terms, want)
    # the twist verdicts, column x of phi_t alpha_t against alpha'_t phi_t, on
    # a drawn alpha'_t and on the conjugate phi_t alpha_t psi_t, which passes
    a1, a2 = (_series(A, A.alpha, tail) for tail in alpha_tails)
    conjugate = series_product_direct(series_product_direct(phis, a1, order, n, m),
                                      psis, order, n, m)
    terms = [A.bracket] + [_zero_term(A)] * order
    B1 = TruncatedBracket(A, order, terms, a1)
    lhs = series_product_direct(phis, a1, order, n, m)
    def twist_failures(other):
        rhs = series_product_direct(other, phis, order, n, m)
        return [{"order": s, "basis": A.basis.names[x]}
                for s in range(order + 1) for x in range(n)
                if any(not (lhs[s][i][x] - rhs[s][i][x]).is_zero() for i in range(n))]
    for other in (a2, conjugate):
        got = check_equivalence(A, B1, TruncatedBracket(A, order, terms, other), phi)
        assert got["twist"].failures == twist_failures(other)
    assert twist_failures(conjugate) == []
