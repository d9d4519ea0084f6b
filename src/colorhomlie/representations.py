"""Modules and representations of a color Hom-Lie algebra.

A representation stores one carrier-space matrix per algebra basis vector
(column convention) plus the carrier twist beta, each once, sparse; ``rho``
and ``beta`` are fresh dense copies.  The adjoint family ad_s acts by
x -> [alpha^s(a), x]; s = -1 needs an invertible twist.
"""
from __future__ import annotations

from itertools import product

from . import linalg
from .algebra_core import (AlgebraStructureError, CheckResult, ColorHomAlgebra,
                           GradedBasis)
from .linalg import _combine, _product, _transpose
from .scalars_grading import CycloScalar


class Representation:
    __slots__ = ("carrier", "m", "action", "_cochain_complexes", "__weakref__")

    def __init__(self, carrier: GradedBasis, rho: list, beta, m: int):
        # rho[i], dense or sparse, is the matrix of rho(e_i) on the carrier;
        # action = (rho(e_i) per i, beta), sparse, is the only copy
        self.carrier, self.m = carrier, m
        *rho, beta = (linalg.sparse(mat) for mat in (*rho, beta))
        self.action = (rho, beta)
        self._cochain_complexes = {}  # algebra -> cohomology._Complex

    dim = property(lambda self: self.carrier.dim)
    # fresh dense copies of rho(e_i) and beta
    rho = property(lambda self: [linalg.dense(M, self.dim, self.m) for M in self.action[0]])
    beta = property(lambda self: linalg.dense(self.action[1], self.dim, self.m))


def _rho_sum(rho, vec):
    """rho(sum_j v_j e_j) = sum_j v_j rho(e_j) for sparse rho(e_j) and v."""
    return _combine((c, rho[j]) for j, c in vec.items())


def _sparse_action(A: ColorHomAlgebra, R: Representation):
    """rho(e_i), beta and rho(alpha e_i) in linalg's sparse form."""
    (rho, beta), alpha = R.action, _transpose(A.alpha_sparse(1))
    return rho, beta, [_rho_sum(rho, alpha.get(i, {})) for i in range(A.dim)]


def _leibniz(A: ColorHomAlgebra, R: Representation):
    """Per basis pair (i, j) in row-major order, the two sides of
    rho([x,y]) o beta = rho(alpha x) o rho(y) - eps(x,y) rho(alpha y) o rho(x)
    at x = e_i, y = e_j as sparse operators."""
    rho, beta, ra = _sparse_action(A, R)
    for i, j in product(range(A.dim), repeat=2):
        e = A.eps(A.degree(i), A.degree(j))
        lhs = _product(_rho_sum(rho, A.bracket.rows.get((i, j), {})), beta)
        rhs = _combine([(None, _product(ra[i], rho[j])), (-e, _product(ra[j], rho[i]))])
        yield i, j, lhs, rhs


def check_representation(A: ColorHomAlgebra, R: Representation) -> CheckResult:
    """rho([x,y]) o beta = rho(alpha x) o rho(y) - eps(x,y) rho(alpha y) o rho(x),
    exhaustively over basis pairs."""
    failures = [{"pair": [A.basis.names[i], A.basis.names[j]]}
                for i, j, lhs, rhs in _leibniz(A, R) if lhs != rhs]
    return CheckResult(not failures, failures)


def check_module(A: ColorHomAlgebra, M: Representation) -> CheckResult:
    """Module axioms of the action [x, m]_M = rho(x) m with carrier twist
    beta (the two-axiom variant): twist compatibility
    beta o rho(x) = rho(alpha x) o beta and the Leibniz rule of
    ``check_representation``, each carrier basis vector m where the two
    sides differ a witness."""
    (rho, beta, ra), names = _sparse_action(A, M), A.basis.names
    def differing(lhs, rhs):  # the columns m of two operators that differ
        lhs, rhs = _transpose(lhs), _transpose(rhs)
        return [mv for mv in range(M.dim) if lhs.get(mv, {}) != rhs.get(mv, {})]
    failures = [{"kind": "twist-compatibility", "witness": [names[i], mv]}
                for i in range(A.dim)
                for mv in differing(_product(beta, rho[i]), _product(ra[i], beta))]
    failures += [{"kind": "leibniz", "witness": [names[i], names[j], mv]}
                 for i, j, lhs, rhs in _leibniz(A, M) for mv in differing(lhs, rhs)]
    return CheckResult(not failures, failures)


def alpha_s_adjoint(A: ColorHomAlgebra, s: int) -> Representation:
    """ad_s(a) = [alpha^s(a), .] on the algebra itself, with beta = alpha."""
    if s < -1:
        raise ValueError("adjoint twist power must be >= -1")
    # the columns [alpha^s e_i, e_j] of rho(e_i) are rows of the precomposed bracket
    table = A.bracket.precompose(A.alpha_sparse(s), A.alpha_sparse(0)).rows
    rho = [_transpose({j: row for j in range(A.dim) if (row := table.get((i, j)))})
           for i in range(A.dim)]
    return Representation(A.basis, rho, A.alpha_sparse(1), A.m)


def adjoint(A: ColorHomAlgebra) -> Representation:
    return alpha_s_adjoint(A, 0)


def check_coadjoint_condition(A: ColorHomAlgebra, R: Representation) -> CheckResult:
    """beta o rho([x,y]) = eps(x,y) rho(x) o rho(alpha y) - rho(y) o rho(alpha x).

    This is the condition that makes the transposed action a representation;
    it is rederived here from the dual pairing (the commonly displayed form
    carries the eps factor on the other composition, which does not match the
    dual construction and would break the if-and-only-if below).
    """
    (rho, beta, ra), failures, minus = _sparse_action(A, R), [], -CycloScalar.one(A.m)
    for i, j in product(range(A.dim), repeat=2):
        e = A.eps(A.degree(i), A.degree(j))
        lhs = _product(beta, _rho_sum(rho, A.bracket.rows.get((i, j), {})))
        if lhs != _combine([(e, _product(rho[i], ra[j])), (minus, _product(rho[j], ra[i]))]):
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
    rho = [{r: {c: -a for c, a in row.items()} for r, row in _transpose(mat).items()}
           for mat in R.action[0]]
    return Representation(dual_basis, rho, _transpose(R.action[1]), R.m)
