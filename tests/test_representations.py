"""Module and representation axiom checks, adjoint families, coadjoint duals."""
import random

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import AlgebraStructureError, GradedBasis
from colorhomlie.cohomology import CochainError, cohomology_group
from colorhomlie.representations import (CoadjointUnavailableError,
                                         Representation,
                                         adjoint, alpha_s_adjoint,
                                         check_coadjoint_condition, check_module,
                                         check_representation,
                                         dual_representation)
from conftest import (alpha_s_adjoint_direct, basis_vector, build_algebra,
                      check_coadjoint_direct, check_module_direct, clock3, clock3_twisted,
                      check_representation_direct, degree_report, is_zero_matrix,
                      mat_scale, mat_vec_direct, random_multiplicative_algebra, rho_of, sc,
                      sl2c_z2z2, zero_algebra, zeros)


def test_adjoint_of_z2z2_example_passes():
    A = sl2c_z2z2()
    R = adjoint(A)
    assert check_representation(A, R).ok
    assert degree_report(R, A).ok


def test_zero_rho_passes():
    A = sl2c_z2z2()
    zero = zeros(3, 3, A.m)
    R = Representation(A.basis, [zero, zero, zero], A.alpha, A.m)
    assert check_representation(A, R).ok


def test_adjoint_with_identity_beta_fails():
    A = sl2c_z2z2()
    R = adjoint(A)
    broken = Representation(R.carrier, R.rho, A.alpha_sparse(0), A.m)
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
    zero = zeros(3, 3, A.m)
    M = Representation(A.basis, [zero] * 3, A.alpha, A.m)
    assert check_module(A, M).ok


def _perturbed_module(A):
    """The adjoint action with rho(e1) doubled: not a module."""
    action = [mat_scale(sc(2, A.m), m) for m in adjoint(A).rho[:1]] \
        + adjoint(A).rho[1:]
    return Representation(A.basis, action, A.alpha, A.m)


def test_perturbed_action_fails():
    A = sl2c_z2z2()
    assert not check_module(A, _perturbed_module(A)).ok


@pytest.mark.parametrize("restrict", ["free", "compatible"])
@pytest.mark.parametrize("n", [1, 2])
def test_coboundaries_outside_the_cocycles_are_refused(n, restrict):
    # delta o delta != 0 on a non-module, so B is not inside Z
    A = sl2c_z2z2()
    M = _perturbed_module(A)
    for gamma in A.basis.group.elements():
        with pytest.raises(CochainError, match="coboundary escaped the cocycle space"):
            cohomology_group(A, M, n, 0, gamma, restrict=restrict)


def test_alpha_s_adjoint_family():
    A = sl2c_z2z2()
    for s in (0, 1, 2):
        R = alpha_s_adjoint(A, s)
        assert check_representation(A, R).ok, s
    # alpha here is an involution, so s = -1 coincides with s = 1
    R_minus = alpha_s_adjoint(A, -1)
    R_plus = alpha_s_adjoint(A, 1)
    assert R_minus.action == R_plus.action and R_minus.rho == R_plus.rho
    assert check_representation(A, R_minus).ok
    with pytest.raises(ValueError, match="adjoint twist power must be >= -1"):
        alpha_s_adjoint(A, -2)


def test_alpha_s_adjoint_zero_bracket():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    R = alpha_s_adjoint(A, 0)
    assert all(is_zero_matrix(m) for m in R.rho)


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
            alpha_ei = mat_vec_direct(A.alpha, basis_vector(A, i))
            lhs = linalg.mat_mul(rho_of(R, alpha_ei), A.alpha)
            rhs = linalg.mat_mul(A.alpha, R.rho[i])
            assert lhs == rhs, (s, i)


def test_coadjoint_condition_and_dual_for_zero_rho():
    A = sl2c_z2z2()
    zero = zeros(3, 3, A.m)
    R = Representation(A.basis, [zero] * 3, A.alpha, A.m)
    assert check_coadjoint_condition(A, R).ok
    dual = dual_representation(A, R)
    assert check_representation(A, dual).ok
    assert all(is_zero_matrix(m) for m in dual.rho)


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
        # rho~(e_i) = -rho(e_i)^T and beta~ = beta^T, entry by entry
        rho = [[[-M[c][r] for c in range(R.dim)] for r in range(R.dim)] for M in R.rho]
        beta = R.beta
        dual = Representation(db, rho, [[beta[c][r] for c in range(R.dim)]
                                        for r in range(R.dim)], R.m)
        assert cond == check_representation(A, dual).ok
        held += cond
    assert 0 < held < 30  # both branches exercised


def test_one_dimensional_algebra_dual():
    A = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1"], [(1, 0)], {},
                      [[1]])
    zero = zeros(1, 1, A.m)
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


def _random_modules(rng, A):
    """The adjoint module, the adjoint with rho(e_1) doubled, and two carriers
    of random dimension with random rho and beta (almost never modules)."""
    def scalar():
        return sc(rng.choice([0, 0, 1, -1, 2, 0.5]), A.m)
    R = adjoint(A)
    yield R
    yield Representation(R.carrier, [mat_scale(sc(2, A.m), R.rho[0])] + R.rho[1:],
                         R.beta, A.m)
    group = A.basis.group
    for _ in range(2):
        n = rng.randint(1, 3)
        carrier = GradedBasis(tuple(f"v{k}" for k in range(n)),
                              tuple(rng.choice(list(group.elements())) for _ in range(n)),
                              group)
        rho = [[[scalar() for _ in range(n)] for _ in range(n)] for _ in range(A.dim)]
        yield Representation(carrier, rho, [[scalar() for _ in range(n)] for _ in range(n)],
                             A.m)


@pytest.mark.parametrize("seed", range(3))
def test_representation_checks_match_the_dense_oracles(seed):
    # the failure lists of the checks on sparse operators, and the adjoint
    # family, equal the former dense evaluations
    rng = random.Random(20261018 + seed)
    checks = [(check_representation, check_representation_direct),
              (check_module, check_module_direct),
              (check_coadjoint_condition, check_coadjoint_direct)]
    failing = 0
    for _ in range(5):
        A = random_multiplicative_algebra(rng)
        for R in _random_modules(rng, A):
            for check, oracle in checks:
                got = check(A, R)
                assert got.to_dict() == oracle(A, R).to_dict()
                failing += len(got.failures)
        powers = (-1, 0, 1, 2) if linalg.rank(list(A.alpha_sparse(1).values())) == A.dim \
            else (0, 1, 2)
        for s in powers:
            assert alpha_s_adjoint(A, s).rho == alpha_s_adjoint_direct(A, s)
    assert failing >= 20


@pytest.mark.parametrize("build", [clock3, clock3_twisted])
def test_the_clock_algebras_act_on_themselves(build):
    # m = 3 and brackets on most pairs of degrees, so eps(x, y) != eps(y, x)
    # in the Leibniz rule: the adjoint and ad_1 pass both checks
    A = build()
    for R in (adjoint(A), alpha_s_adjoint(A, 1)):
        assert check_representation(A, R).ok and check_module(A, R).ok
