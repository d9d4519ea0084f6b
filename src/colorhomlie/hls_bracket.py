"""Twisted derivations on commutative associative color algebras and the
bracket they induce on A.Delta, realized on the quotient A/Ann(Delta).

The scalar ``delta`` multiplying the second Jacobi-type term is restricted to
a central scalar; a general central element is a documented extension point.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra_core import (AlgebraStructureError, CheckResult, GradedBasis,
                           HomAssociativeColorAlgebra, StructureConstants)
from .scalars_grading import BiCharacter, CycloScalar, GroupElement


class HLSError(AlgebraStructureError):
    pass


class CommutativeColorAlgebra(HomAssociativeColorAlgebra):
    """Associative, eps-commutative graded algebra: a Hom-associative color
    algebra whose twist is the identity."""

    def __init__(self, basis: GradedBasis, eps: BiCharacter, mu, m: int):
        super().__init__(basis, eps, mu, linalg.identity(basis.dim, m), m)

    def check_commutative_associative(self) -> CheckResult:
        assoc = self.check_hom_associative()
        if self.is_eps_commutative():
            return assoc
        return CheckResult(False, [{"kind": "commutativity"}] + assoc.failures)


@dataclass
class SigmaDerivation:
    sigma: list            # even algebra endomorphism, matrix
    delta_map: list        # the twisted derivation, matrix
    grade_d: GroupElement  # degree of the derivation
    delta_scalar: CycloScalar


def check_sigma_endomorphism(A: CommutativeColorAlgebra, sigma) -> CheckResult:
    failures = [{"pair": [i, j]} for i, j in A.mu.endomorphism_failures(sigma)]
    return CheckResult(not failures, failures)


def check_sigma_derivation(A: CommutativeColorAlgebra, D: SigmaDerivation) -> dict:
    """Degree pattern (CD1) and the twisted Leibniz rule (CD2), exhaustively."""
    cd1_failures = []
    for j in range(A.dim):
        target = A.basis.degrees[j] + D.grade_d
        for i in range(A.dim):
            if not D.delta_map[i][j].is_zero() and A.basis.degrees[i] != target:
                cd1_failures.append({"from": A.basis.names[j], "to": A.basis.names[i]})
    cd2_failures = []
    for i in range(A.dim):
        si = linalg.mat_vec(D.sigma, A.basis_vector(i))
        di = linalg.mat_vec(D.delta_map, A.basis_vector(i))
        e = A.eps(D.grade_d, A.basis.degrees[i])
        for j in range(A.dim):
            dj = linalg.mat_vec(D.delta_map, A.basis_vector(j))
            lhs = linalg.mat_vec(D.delta_map, A.mu.of_basis(i, j))
            rhs = [a + e * b for a, b in
                   zip(A.mu.bilinear(di, A.basis_vector(j)), A.mu.bilinear(si, dj))]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                lhs_s = [str(c) for c in lhs]
                rhs_s = [str(c) for c in rhs]
                cd2_failures.append({"pair": [A.basis.names[i], A.basis.names[j]],
                                     "lhs": lhs_s, "rhs": rhs_s})
    return {
        "sigma_endomorphism": check_sigma_endomorphism(A, D.sigma),
        "cd1": CheckResult(not cd1_failures, cd1_failures),
        "cd2": CheckResult(not cd2_failures, cd2_failures),
    }


def annihilator(A: CommutativeColorAlgebra, D: SigmaDerivation):
    """Basis of Ann(Delta) = {a : a . Delta = 0 as an operator on A}."""
    rows = []
    for w in range(A.dim):
        dw = linalg.mat_vec(D.delta_map, A.basis_vector(w))
        products = [A.mu.bilinear(A.basis_vector(a), dw) for a in range(A.dim)]
        for comp in range(A.dim):
            rows.append([products[a][comp] for a in range(A.dim)])
    return linalg.kernel_basis(rows, A.dim, A.m)


def check_ann_invariance(A: CommutativeColorAlgebra, D: SigmaDerivation) -> bool:
    """sigma(Ann) <= Ann, by membership of the sigma-images."""
    ann = annihilator(A, D)
    for v in ann:
        if not linalg.in_span(ann, linalg.mat_vec(D.sigma, v)):
            return False
    return True


class QuotientSpace:
    """A / span(ann), with a fixed row-reduced complement basis."""

    def __init__(self, A: CommutativeColorAlgebra, ann_basis):
        self.A = A
        self.ann_rref = linalg.row_space_basis(ann_basis)
        _, pivots = linalg.rref(self.ann_rref) if self.ann_rref else ([], [])
        self.pivots = pivots
        self.complement_indices = [i for i in range(A.dim) if i not in pivots]

    def reduce(self, v):
        v = list(v)
        for row, pc in zip(self.ann_rref, self.pivots):
            c = v[pc]
            if not c.is_zero():
                v = [a - c * b for a, b in zip(v, row)]
        return v


def hls_bracket_element(A: CommutativeColorAlgebra, D: SigmaDerivation, x, y,
                        quotient: QuotientSpace = None):
    """Representative of [x.Delta, y.Delta] = (sigma(x)Delta(y) - eps(x,y)sigma(y)Delta(x)).Delta.

    x, y are coordinate vectors; homogeneous inputs use their degrees for eps;
    non-homogeneous inputs are expanded bilinearly.
    """
    def value(i, j):
        e = A.eps(A.basis.degrees[i], A.basis.degrees[j])
        si = linalg.mat_vec(D.sigma, A.basis_vector(i))
        sj = linalg.mat_vec(D.sigma, A.basis_vector(j))
        di = linalg.mat_vec(D.delta_map, A.basis_vector(i))
        dj = linalg.mat_vec(D.delta_map, A.basis_vector(j))
        return [p - e * q for p, q in zip(A.mu.bilinear(si, dj), A.mu.bilinear(sj, di))]

    # the bracket's structure constants on the basis pairs the inputs reach
    values = {(i, j): value(i, j) for i, a in enumerate(x) if not a.is_zero()
              for j, b in enumerate(y) if not b.is_zero()}
    out = StructureConstants(A.dim, A.m, values).bilinear(x, y)
    return quotient.reduce(out) if quotient is not None else out


def hls_bracket(A: CommutativeColorAlgebra, D: SigmaDerivation, x, y):
    """Class of the induced bracket in A/Ann(Delta); refused without invariance."""
    if not check_ann_invariance(A, D):
        raise HLSError("sigma(Ann) <= Ann fails; the bracket is not well defined")
    quotient = QuotientSpace(A, annihilator(A, D))
    return hls_bracket_element(A, D, x, y, quotient)


def check_ijkl(A: CommutativeColorAlgebra, D: SigmaDerivation,
               delta_scalar=None) -> CheckResult:
    """Delta(sigma(x)) = delta . sigma(Delta(x)) on the basis."""
    d = D.delta_scalar if delta_scalar is None else delta_scalar
    failures = []
    for i in range(A.dim):
        lhs = linalg.mat_vec(D.delta_map, linalg.mat_vec(D.sigma, A.basis_vector(i)))
        rhs = [d * c for c in linalg.mat_vec(D.sigma,
                                             linalg.mat_vec(D.delta_map, A.basis_vector(i)))]
        if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
            failures.append({"basis": A.basis.names[i],
                             "lhs": [str(c) for c in lhs],
                             "rhs": [str(c) for c in rhs]})
    return CheckResult(not failures, failures)


def check_fgh(A: CommutativeColorAlgebra, D: SigmaDerivation,
              quotient: QuotientSpace) -> CheckResult:
    failures = []
    for i in range(A.dim):
        for j in range(A.dim):
            e = A.eps(A.basis.degrees[i], A.basis.degrees[j])
            lhs = hls_bracket_element(A, D, A.basis_vector(i), A.basis_vector(j), quotient)
            rhs = [-e * c for c in hls_bracket_element(A, D, A.basis_vector(j),
                                                       A.basis_vector(i), quotient)]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                failures.append({"pair": [A.basis.names[i], A.basis.names[j]]})
    return CheckResult(not failures, failures)


def check_mnop(A: CommutativeColorAlgebra, D: SigmaDerivation,
               quotient: QuotientSpace, delta_scalar=None) -> CheckResult:
    """Cyclic sum eps(z,x)([sigma(x).Delta, [y.Delta, z.Delta]] +
    delta [x.Delta, [y.Delta, z.Delta]]) = 0 on basis triples, mod Ann."""
    d = D.delta_scalar if delta_scalar is None else delta_scalar
    failures = []
    for x in range(A.dim):
        for y in range(A.dim):
            for z in range(A.dim):
                acc = [CycloScalar.zero(A.m)] * A.dim
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    e = A.eps(A.basis.degrees[c], A.basis.degrees[a])
                    inner = hls_bracket_element(A, D, A.basis_vector(b),
                                                A.basis_vector(c), quotient)
                    sx = linalg.mat_vec(D.sigma, A.basis_vector(a))
                    t1 = hls_bracket_element(A, D, sx, inner, quotient)
                    t2 = hls_bracket_element(A, D, A.basis_vector(a), inner, quotient)
                    acc = [u + e * (p + d * q) for u, p, q in zip(acc, t1, t2)]
                acc = quotient.reduce(acc)
                if any(not u.is_zero() for u in acc):
                    failures.append({
                        "triple": [A.basis.names[x], A.basis.names[y], A.basis.names[z]],
                        "residual": [str(c) for c in acc]})
    return CheckResult(not failures, failures)


def check_hls_jacobi(A: CommutativeColorAlgebra, D: SigmaDerivation) -> dict:
    """Full report: derivation laws, annihilator invariance, the scalar
    intertwining law, skewness, and the deformed Jacobi identity."""
    base = check_sigma_derivation(A, D)
    ann = annihilator(A, D)
    invariance = check_ann_invariance(A, D)
    quotient = QuotientSpace(A, ann)
    report = dict(base)
    report["abc"] = CheckResult(invariance, [] if invariance else
                                [{"reason": "sigma image escapes the annihilator"}])
    report["ijkl"] = check_ijkl(A, D)
    report["fgh"] = check_fgh(A, D, quotient)
    report["mnop"] = check_mnop(A, D, quotient)
    report["annihilator_dim"] = len(ann)
    return report


def induced_bracket_table(A: CommutativeColorAlgebra, D: SigmaDerivation):
    """Bracket values on basis pairs, reduced to the quotient representatives."""
    quotient = QuotientSpace(A, annihilator(A, D))
    values = {(i, j): hls_bracket_element(A, D, A.basis_vector(i), A.basis_vector(j), quotient)
              for i in range(A.dim) for j in range(A.dim)}
    return StructureConstants(A.dim, A.m, values).report(A.basis.names)
