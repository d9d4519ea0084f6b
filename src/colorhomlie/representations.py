"""Modules and representations of a color Hom-Lie algebra.

A representation stores one carrier-space matrix per algebra basis vector
(column convention) plus the carrier twist beta.  The adjoint family ad_s
acts by x -> [alpha^s(a), x]; s = -1 needs an invertible twist.
"""
from __future__ import annotations

from . import linalg
from .algebra_core import (AlgebraStructureError, CheckResult, ColorHomAlgebra,
                           GradedBasis)
from .scalars_grading import CycloScalar


class Representation:
    __slots__ = ("carrier", "rho", "beta", "m", "_cochain_complexes", "__weakref__")

    def __init__(self, carrier: GradedBasis, rho: list, beta: list, m: int):
        # rho[i] is the matrix of rho(e_i) on the carrier
        self.carrier, self.rho, self.beta, self.m = carrier, rho, beta, m
        # algebra -> cohomology._Complex; R must not be mutated once it is used
        self._cochain_complexes = {}

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def rho_of(self, coords):
        """rho extended linearly to an algebra element given by coordinates."""
        n = self.dim
        out = linalg.zeros(n, n, self.m)
        for i, c in enumerate(coords):
            if c.is_zero():
                continue
            out = linalg.mat_add(out, linalg.mat_scale(c, self.rho[i]))
        return out

    def act(self, coords, mvec):
        return linalg.mat_vec(self.rho_of(coords), mvec)

    def degree_report(self, A: ColorHomAlgebra) -> CheckResult:
        """rho(e_i) must raise carrier degree by deg(e_i); beta must preserve it."""
        failures = []
        for i, mat in enumerate(self.rho):
            for r in range(self.dim):
                for c in range(self.dim):
                    if mat[r][c].is_zero():
                        continue
                    if self.carrier.degrees[r] != self.carrier.degrees[c] + A.degree(i):
                        failures.append({"map": A.basis.names[i],
                                         "entry": [r, c], "kind": "rho-degree"})
        for r in range(self.dim):
            for c in range(self.dim):
                if not self.beta[r][c].is_zero() and \
                        self.carrier.degrees[r] != self.carrier.degrees[c]:
                    failures.append({"entry": [r, c], "kind": "beta-not-even"})
        return CheckResult(not failures, failures)


def check_representation(A: ColorHomAlgebra, R: Representation) -> CheckResult:
    """rho([x,y]) o beta = rho(alpha x) o rho(y) - eps(x,y) rho(alpha y) o rho(x),
    exhaustively over basis pairs."""
    failures = []
    for i in range(A.dim):
        rho_ai = R.rho_of(A.apply_alpha(A.basis_vector(i)))
        for j in range(A.dim):
            rho_aj = R.rho_of(A.apply_alpha(A.basis_vector(j)))
            lhs = linalg.mat_mul(R.rho_of(A.bracket.of_basis(i, j)), R.beta)
            e = A.eps(A.degree(i), A.degree(j))
            rhs = linalg.mat_add(
                linalg.mat_mul(rho_ai, R.rho[j]),
                linalg.mat_scale(-e, linalg.mat_mul(rho_aj, R.rho[i])))
            if not linalg.mat_eq(lhs, rhs):
                failures.append({"pair": [A.basis.names[i], A.basis.names[j]]})
    return CheckResult(not failures, failures)


def check_module(A: ColorHomAlgebra, M: Representation) -> CheckResult:
    """Module axioms of the action [x, m]_M = rho(x) m with carrier twist
    beta (the two-axiom variant): twist compatibility and the Leibniz rule."""
    failures = []
    n = M.carrier.dim
    E = linalg.identity(n, M.m)
    for i in range(A.dim):
        ai = A.apply_alpha(A.basis_vector(i))
        for mv in range(n):
            # compatibility: beta([x, m]) = [alpha(x), beta(m)]
            lhs = linalg.mat_vec(M.beta, M.act(A.basis_vector(i), E[mv]))
            rhs = M.act(ai, linalg.mat_vec(M.beta, E[mv]))
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                failures.append({"kind": "twist-compatibility",
                                 "witness": [A.basis.names[i], mv]})
    for i in range(A.dim):
        ai = A.apply_alpha(A.basis_vector(i))
        for j in range(A.dim):
            aj = A.apply_alpha(A.basis_vector(j))
            e = A.eps(A.degree(i), A.degree(j))
            bij = A.bracket.of_basis(i, j)
            for mv in range(n):
                bm = linalg.mat_vec(M.beta, E[mv])
                lhs = M.act(bij, bm)
                t1 = M.act(ai, M.act(A.basis_vector(j), E[mv]))
                t2 = M.act(aj, M.act(A.basis_vector(i), E[mv]))
                rhs = [a - e * b for a, b in zip(t1, t2)]
                if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                    failures.append({"kind": "leibniz",
                                     "witness": [A.basis.names[i], A.basis.names[j], mv]})
    return CheckResult(not failures, failures)


def alpha_s_adjoint(A: ColorHomAlgebra, s: int) -> Representation:
    """ad_s(a) = [alpha^s(a), .] on the algebra itself, with beta = alpha."""
    if s < -1:
        raise ValueError("adjoint twist power must be >= -1")
    rho = []
    for i in range(A.dim):
        shifted = A.apply_alpha(A.basis_vector(i), s) if s != 0 else A.basis_vector(i)
        cols = [A.bracket.bilinear(shifted, A.basis_vector(j)) for j in range(A.dim)]
        rho.append(linalg.transpose(cols))
    return Representation(A.basis, rho, A.alpha, A.m)


def adjoint(A: ColorHomAlgebra) -> Representation:
    return alpha_s_adjoint(A, 0)


def check_coadjoint_condition(A: ColorHomAlgebra, R: Representation) -> CheckResult:
    """beta o rho([x,y]) = eps(x,y) rho(x) o rho(alpha y) - rho(y) o rho(alpha x).

    This is the condition that makes the transposed action a representation;
    it is rederived here from the dual pairing (the commonly displayed form
    carries the eps factor on the other composition, which does not match the
    dual construction and would break the if-and-only-if below).
    """
    failures = []
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = linalg.mat_mul(R.beta, R.rho_of(A.bracket.of_basis(i, j)))
            e = A.eps(A.degree(i), A.degree(j))
            rhs = linalg.mat_add(
                linalg.mat_scale(e, linalg.mat_mul(
                    R.rho[i], R.rho_of(A.apply_alpha(A.basis_vector(j))))),
                linalg.mat_scale(CycloScalar.from_rational(-1, A.m), linalg.mat_mul(
                    R.rho[j], R.rho_of(A.apply_alpha(A.basis_vector(i))))))
            if not linalg.mat_eq(lhs, rhs):
                failures.append({"pair": [A.basis.names[i], A.basis.names[j]]})
    return CheckResult(not failures, failures)


class CoadjointUnavailableError(AlgebraStructureError):
    pass


def dual_representation(A: ColorHomAlgebra, R: Representation) -> Representation:
    """Dual action rho~(x) = -rho(x)^T with beta~ = beta^T on the dual basis.

    Refused unless the coadjoint condition holds, in which case the result
    passes check_representation.  Dual basis degrees are negated so that the
    degree bookkeeping of rho~ stays consistent.
    """
    cond = check_coadjoint_condition(A, R)
    if not cond.ok:
        raise CoadjointUnavailableError(
            f"coadjoint condition fails; witness: {cond.failures[0]}")
    dual_degrees = tuple(-d for d in R.carrier.degrees)
    dual_basis = GradedBasis(tuple(n + "*" for n in R.carrier.names),
                             dual_degrees, R.carrier.group)
    rho = [linalg.mat_scale(CycloScalar.from_rational(-1, R.m), linalg.transpose(mat))
           for mat in R.rho]
    return Representation(dual_basis, rho, linalg.transpose(R.beta), R.m)
