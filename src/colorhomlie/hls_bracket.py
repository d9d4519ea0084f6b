"""Twisted derivations on commutative associative color algebras and the
bracket they induce on A.Delta, realized on the quotient A/Ann(Delta).

The scalar ``delta`` multiplying the second Jacobi-type term is restricted to
a central scalar; a general central element is a documented extension point.
"""
from __future__ import annotations

from itertools import product

from . import linalg
from .algebra_core import (AlgebraStructureError, CheckResult, GradedBasis,
                           HomAssociativeColorAlgebra, StructureConstants,
                           cyclic_failures)
from .linalg import _add_scaled, _combine, _product, _transpose
from .scalars_grading import BiCharacter, CycloScalar, GroupElement


class HLSError(AlgebraStructureError):
    pass


class CommutativeColorAlgebra(HomAssociativeColorAlgebra):
    """Associative, eps-commutative graded algebra: a Hom-associative color
    algebra whose twist is the identity."""

    def __init__(self, basis: GradedBasis, eps: BiCharacter, mu, m: int):
        super().__init__(basis, eps, mu, {i: {i: CycloScalar.one(m)} for i in range(basis.dim)}, m)

    def check_commutative_associative(self) -> CheckResult:
        assoc = self.check_hom_associative()
        if self.is_eps_commutative():
            return assoc
        return CheckResult(False, [{"kind": "commutativity"}] + assoc.failures)


class SigmaDerivation:
    __slots__ = ("maps", "grade_d", "delta_scalar", "size", "m")

    def __init__(self, sigma, delta_map, grade_d: GroupElement, delta_scalar: CycloScalar,
                 size: int, m: int):
        # sigma: an even algebra endomorphism; delta_map: the twisted derivation of
        # degree grade_d; size x size, dense or sparse, kept once, sparse, as maps
        self.maps = tuple(linalg.sparse(M) for M in (sigma, delta_map))
        self.grade_d, self.delta_scalar = grade_d, delta_scalar
        self.size, self.m = size, m

    # fresh dense copies of sigma and Delta
    sigma = property(lambda self: linalg.dense(self.maps[0], self.size, self.m))
    delta_map = property(lambda self: linalg.dense(self.maps[1], self.size, self.m))


def check_sigma_endomorphism(A: CommutativeColorAlgebra, sigma) -> CheckResult:
    """sigma [x, y] = [sigma x, sigma y] on basis pairs, for a sparse sigma."""
    failures = [{"pair": [i, j]} for i, j in A.mu.endomorphism_failures(sigma)]
    return CheckResult(not failures, failures)


def _strings(A: CommutativeColorAlgebra, **vectors):
    """Sparse vectors of a report as lists of dense entry strings."""
    return {key: [str(c) for c in dense]
            for key, dense in zip(vectors, linalg.dense(vectors.values(), A.dim, A.m))}


def check_sigma_derivation(A: CommutativeColorAlgebra, D: SigmaDerivation) -> dict:
    """Degree pattern (CD1) and the twisted Leibniz rule (CD2), exhaustively."""
    sigma, delta = (_transpose(M) for M in D.maps)
    degrees, names = A.basis.degrees, A.basis.names
    cd1_failures = [{"from": names[j], "to": names[i]} for j, col in sorted(delta.items())
                    for i in col if degrees[i] != degrees[j] + D.grade_d]
    cd2_failures, one = [], CycloScalar.one(A.m)
    for i, j in product(range(A.dim), repeat=2):
        # Delta(x y) = Delta(x) y + eps(d, x) sigma(x) Delta(y)
        e = A.eps(D.grade_d, degrees[i])
        lhs = A.mu.mapped_row(i, j, delta)
        rhs = A.mu.sparse_bilinear(delta.get(i, {}), {j: one})
        _add_scaled(rhs, e, A.mu.sparse_bilinear(sigma.get(i, {}), delta.get(j, {})))
        if lhs != rhs:
            cd2_failures.append({"pair": [names[i], names[j]],
                                 **_strings(A, lhs=lhs, rhs=rhs)})
    return {
        "sigma_endomorphism": check_sigma_endomorphism(A, D.maps[0]),
        "cd1": CheckResult(not cd1_failures, cd1_failures),
        "cd2": CheckResult(not cd2_failures, cd2_failures),
    }


def annihilator(A: CommutativeColorAlgebra, D: SigmaDerivation):
    """rref basis of Ann(Delta) = {a : a . Delta = 0 as an operator on A}, as
    sparse vectors: one equation row per (w, component) of e_a . Delta(e_w)
    over the unknowns a."""
    one, delta, rows = CycloScalar.one(A.m), _transpose(D.maps[1]), {}
    for w, a in product(range(A.dim), repeat=2):
        for comp, c in A.mu.sparse_bilinear({a: one}, delta.get(w, {})).items():
            rows.setdefault((w, comp), {})[a] = c
    return linalg.sparse_kernel_basis(list(rows.values()), A.dim, A.m)


def _invariant(ann: linalg.Echelon, sigma) -> bool:
    """sigma(span ann) <= span ann for a sparse sigma: the rows of ann
    sigma^T lie in span ann."""
    images = _product(ann.rows, _transpose(sigma))
    return all(v in ann for v in images.values())


def check_ann_invariance(A: CommutativeColorAlgebra, D: SigmaDerivation) -> bool:
    """sigma(Ann) <= Ann."""
    return _invariant(linalg.Echelon(annihilator(A, D)), D.maps[0])


class QuotientSpace:
    """A / span(ann), a class represented by its reduction against ``ann``,
    sparse vectors such as ``annihilator`` returns."""

    def __init__(self, A: CommutativeColorAlgebra, ann_basis):
        self.A = A
        self.ann = linalg.Echelon(ann_basis)
        self._induced = None

    def induced_table(self, D: SigmaDerivation) -> StructureConstants:
        """Structure constants of the induced bracket of D, every value
        reduced: the eps-commutator of (x, y) -> sigma(x) Delta(y).  Built on
        the first call for D and kept for later calls with the same D."""
        if self._induced is None or self._induced[0] is not D:
            A = self.A
            table = A.mu.precompose(*D.maps).commutator(A.basis.degrees, A.eps)
            self._induced = (D, StructureConstants(A.dim, A.m, {
                key: self.ann._reduce(row) for key, row in table.rows.items()}))
        return self._induced[1]


def hls_bracket_element(A: CommutativeColorAlgebra, D: SigmaDerivation, x, y,
                        quotient: QuotientSpace = None):
    """Representative of [x.Delta, y.Delta] = (sigma(x)Delta(y) - eps(x,y)sigma(y)Delta(x)).Delta.

    x, y are coordinate vectors; homogeneous inputs use their degrees for eps;
    non-homogeneous inputs are expanded bilinearly.  Without a quotient the
    value is not reduced.
    """
    return (quotient or QuotientSpace(A, [])).induced_table(D).bilinear(x, y)


def hls_bracket(A: CommutativeColorAlgebra, D: SigmaDerivation, x, y):
    """Class of the induced bracket in A/Ann(Delta); refused without invariance.
    Each call solves Ann(Delta) and builds the induced table: for many pairs,
    check ``check_ann_invariance(A, D)`` once, build ``QuotientSpace(A,
    annihilator(A, D))`` once, and call ``hls_bracket_element`` with it."""
    quotient = QuotientSpace(A, annihilator(A, D))
    if not _invariant(quotient.ann, D.maps[0]):
        raise HLSError("sigma(Ann) <= Ann fails; the bracket is not well defined")
    return hls_bracket_element(A, D, x, y, quotient)


def check_ijkl(A: CommutativeColorAlgebra, D: SigmaDerivation) -> CheckResult:
    """Delta(sigma(x)) = delta . sigma(Delta(x)) on the basis."""
    sigma, delta = D.maps
    # column i of Delta o sigma against column i of delta sigma o Delta
    lhs = _transpose(_product(delta, sigma))
    rhs = _transpose(_combine([(D.delta_scalar, _product(sigma, delta))]))
    failures = [{"basis": A.basis.names[i],
                 **_strings(A, lhs=lhs.get(i, {}), rhs=rhs.get(i, {}))}
                for i in range(A.dim) if lhs.get(i, {}) != rhs.get(i, {})]
    return CheckResult(not failures, failures)


def check_fgh(A: CommutativeColorAlgebra, D: SigmaDerivation,
              quotient: QuotientSpace) -> CheckResult:
    failures = [{"pair": [A.basis.names[i], A.basis.names[j]]} for i, j in
                quotient.induced_table(D).commutation_failures(A.basis.degrees, A.eps, -1)]
    return CheckResult(not failures, failures)


def check_mnop(A: CommutativeColorAlgebra, D: SigmaDerivation,
               quotient: QuotientSpace) -> CheckResult:
    """Cyclic sum eps(z,x)([sigma(x).Delta, [y.Delta, z.Delta]] +
    delta [x.Delta, [y.Delta, z.Delta]]) = 0 on basis triples, mod Ann: the
    cyclic residual with outer(x, w) = [(sigma + delta Id)(x).Delta, w]."""
    H = quotient.induced_table(D)
    I = {i: {i: CycloScalar.one(A.m)} for i in range(A.dim)}
    outer = H.precompose(_combine([(None, D.maps[0]), (D.delta_scalar, I)]), I)
    failures = cyclic_failures([(outer, H)], A.basis, A.eps)
    return CheckResult(not failures, failures)


def check_hls_jacobi(A: CommutativeColorAlgebra, D: SigmaDerivation) -> dict:
    """Full report: derivation laws, annihilator invariance, the scalar
    intertwining law, skewness, the deformed Jacobi identity, and the
    induced bracket on basis pairs, reduced to the quotient representatives;
    Ann(Delta) is solved, and its echelon form and the induced table built once."""
    base = check_sigma_derivation(A, D)
    ann = annihilator(A, D)
    quotient = QuotientSpace(A, ann)
    invariance = _invariant(quotient.ann, D.maps[0])
    report = dict(base)
    report["abc"] = CheckResult(invariance, [] if invariance else
                                [{"reason": "sigma image escapes the annihilator"}])
    report["ijkl"] = check_ijkl(A, D)
    report["fgh"] = check_fgh(A, D, quotient)
    report["mnop"] = check_mnop(A, D, quotient)
    report["annihilator_dim"] = len(ann)
    report["induced_bracket"] = quotient.induced_table(D).report(A.basis.names)
    return report
