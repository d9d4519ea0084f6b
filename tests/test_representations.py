"""Module and representation axiom checks, adjoint families, coadjoint duals."""
import random

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import AlgebraStructureError
from colorhomlie.representations import (CoadjointUnavailableError,
                                         Representation,
                                         adjoint, alpha_s_adjoint,
                                         check_coadjoint_condition, check_module,
                                         check_representation,
                                         dual_representation)
from conftest import (build_algebra, random_multiplicative_algebra, sc,
                      sl2c_z2z2, zero_algebra)


def test_adjoint_of_z2z2_example_passes():
    A = sl2c_z2z2()
    R = adjoint(A)
    assert check_representation(A, R).ok
    assert R.degree_report(A).ok


def test_zero_rho_passes():
    A = sl2c_z2z2()
    zero = linalg.zeros(3, 3, A.m)
    R = Representation(A.basis, [zero, zero, zero], A.alpha, A.m)
    assert check_representation(A, R).ok


def test_adjoint_with_identity_beta_fails():
    A = sl2c_z2z2()
    R = adjoint(A)
    broken = Representation(R.carrier, R.rho, linalg.identity(3, A.m), A.m)
    result = check_representation(A, broken)
    assert not result.ok
    assert result.failures  # witness pair reported


def test_adjoint_matrices_match_bracket_columns():
    A = sl2c_z2z2()
    R = adjoint(A)
    for i in range(3):
        for j in range(3):
            want = A.bracket.of_basis(i, j)
            got = [R.rho[i][k][j] for k in range(3)]
            assert all((a - b).is_zero() for a, b in zip(got, want))


def test_module_axioms_for_self_action():
    A = sl2c_z2z2()
    action = adjoint(A).rho
    M = Representation(A.basis, action, A.alpha, A.m)
    assert check_module(A, M).ok


def test_zero_action_module_passes():
    A = sl2c_z2z2()
    zero = linalg.zeros(3, 3, A.m)
    M = Representation(A.basis, [zero] * 3, A.alpha, A.m)
    assert check_module(A, M).ok


def test_perturbed_action_fails():
    A = sl2c_z2z2()
    action = [linalg.mat_scale(sc(2, A.m), m) for m in adjoint(A).rho[:1]] \
        + adjoint(A).rho[1:]
    M = Representation(A.basis, action, A.alpha, A.m)
    assert not check_module(A, M).ok


def test_alpha_s_adjoint_family():
    A = sl2c_z2z2()
    for s in (0, 1, 2):
        R = alpha_s_adjoint(A, s)
        assert check_representation(A, R).ok, s
    # alpha here is an involution, so s = -1 coincides with s = 1
    R_minus = alpha_s_adjoint(A, -1)
    R_plus = alpha_s_adjoint(A, 1)
    for a, b in zip(R_minus.rho, R_plus.rho):
        assert linalg.mat_eq(a, b)
    assert check_representation(A, R_minus).ok


def test_alpha_s_adjoint_zero_bracket():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    R = alpha_s_adjoint(A, 0)
    assert all(linalg.is_zero_matrix(m) for m in R.rho)


def test_ad_minus_one_requires_invertible_alpha():
    A = build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2"], [(1, 0), (0, 1)],
        {}, [[1, 0], [0, 0]])
    with pytest.raises(AlgebraStructureError):
        alpha_s_adjoint(A, -1)


def test_ad_s_intertwining_identities():
    # ad_s(alpha x) o alpha = alpha o ad_s(x) on the shipped example
    A = sl2c_z2z2()
    for s in (0, 1, -1):
        R = alpha_s_adjoint(A, s)
        for i in range(3):
            lhs = linalg.mat_mul(R.rho_of(A.apply_alpha(A.basis_vector(i))), A.alpha)
            rhs = linalg.mat_mul(A.alpha, R.rho[i])
            assert linalg.mat_eq(lhs, rhs), (s, i)


def test_coadjoint_condition_and_dual_for_zero_rho():
    A = sl2c_z2z2()
    zero = linalg.zeros(3, 3, A.m)
    R = Representation(A.basis, [zero] * 3, A.alpha, A.m)
    assert check_coadjoint_condition(A, R).ok
    dual = dual_representation(A, R)
    assert check_representation(A, dual).ok
    assert all(linalg.is_zero_matrix(m) for m in dual.rho)


def test_coadjoint_condition_value_for_z2z2_adjoint():
    # value computed by the exhaustive check and frozen: the adjoint of this
    # example does not satisfy the dual-transfer condition
    A = sl2c_z2z2()
    R = adjoint(A)
    result = check_coadjoint_condition(A, R)
    assert not result.ok
    with pytest.raises(CoadjointUnavailableError):
        dual_representation(A, R)


def test_coadjoint_iff_dual_passes_randomized(rng):
    # both directions: the dual action is a representation exactly when the
    # transfer condition holds
    from colorhomlie.algebra_core import GradedBasis
    held = 0
    for _ in range(30):
        A = random_multiplicative_algebra(rng)
        R = adjoint(A)
        cond = check_coadjoint_condition(A, R).ok
        dual_degrees = tuple(-d for d in R.carrier.degrees)
        db = GradedBasis(tuple(n + "*" for n in R.carrier.names), dual_degrees,
                         R.carrier.group)
        rho = [linalg.mat_scale(sc(-1, R.m), linalg.transpose(m)) for m in R.rho]
        dual = Representation(db, rho, linalg.transpose(R.beta), R.m)
        assert cond == check_representation(A, dual).ok
        held += cond
    assert 0 < held < 30  # both branches exercised


def test_one_dimensional_algebra_dual():
    A = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1"], [(1, 0)], {},
                      [[1]])
    zero = linalg.zeros(1, 1, A.m)
    R = Representation(A.basis, [zero], [[sc(3, A.m)]], A.m)
    assert check_coadjoint_condition(A, R).ok
    dual = dual_representation(A, R)
    assert check_representation(A, dual).ok


def test_dual_passes_whenever_condition_holds_randomized(rng):
    hits = 0
    for _ in range(25):
        A = random_multiplicative_algebra(rng)
        R = adjoint(A)
        if check_coadjoint_condition(A, R).ok:
            hits += 1
            dual = dual_representation(A, R)
            assert check_representation(A, dual).ok
    assert hits > 0  # zero brackets in the pool always qualify
