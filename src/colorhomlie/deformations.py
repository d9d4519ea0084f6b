"""Truncated one-parameter formal deformations.

All series live in t modulo t^(order+1) with exact scalar coefficients.  A
``TruncatedBracket`` may deform the twist map together with the bracket
(a list of matrix coefficients alpha_0, alpha_1, ...); the classical case of
a fixed twist is the default.  The order-by-order deformation equation then
reads, for every s,

    cyclic  sum_(l+i+j = s)  eps(z,x) [alpha_l(x), [y,z]_i]_j  =  0,

which for a fixed twist is the usual convolution system and for a deformed
twist is exactly what the composition construction satisfies.  Matrix series
are taken dense or sparse and kept sparse; ``inverse_series`` returns dense.
"""
from __future__ import annotations

from functools import reduce
from operator import add

from . import linalg
from .linalg import _combine, _product, _transpose
from .algebra_core import (AlgebraStructureError, BracketTable, CheckResult,
                           ColorHomAlgebra, StructureConstants, cyclic_failures)
from .cohomology import Cochain, _complex, cochain_basis, coboundary_of_coords
from .representations import adjoint


class DeformationError(AlgebraStructureError):
    pass


class TruncatedBracket:
    __slots__ = ("algebra", "order", "terms", "alpha_terms",
                 "endomorphism_failing_orders", "alphas")

    def __init__(self, algebra: ColorHomAlgebra, order: int, terms: list,
                 alpha_terms: list = None, endomorphism_failing_orders: list = None):
        if order < 0:
            raise DeformationError(f"order must be non-negative, got {order}")
        if len(terms) != order + 1:
            raise DeformationError(
                f"order {order} needs {order + 1} bracket terms, got {len(terms)}")
        if not terms[0].equals(algebra.bracket):
            raise DeformationError("term 0 must equal the base bracket")
        if alpha_terms is not None and not alpha_terms:
            raise DeformationError("alpha_terms must be None or non-empty")
        self.algebra, self.order = algebra, order
        self.terms = terms  # BracketTable per power of t; terms[0] = base bracket
        # the sparse matrix series of the twist; None = fixed
        self.alpha_terms = alpha_terms and [linalg.sparse(M) for M in alpha_terms]
        self.endomorphism_failing_orders = endomorphism_failing_orders or []
        # the twist series alpha_0..alpha_order, zero-padded, sharing its matrices
        self.alphas = _padded(self.alpha_terms or [algebra.alpha_sparse(1)], order)

    def skew_report(self) -> CheckResult:
        """``ColorHomAlgebra.check_skew`` run on every term's table."""
        A = self.algebra
        failures = [{"order": s, **failure} for s, table in enumerate(self.terms)
                    for failure in ColorHomAlgebra(A.basis, A.eps, table, A.alpha_sparse(1),
                                                   A.m).check_skew().failures]
        return CheckResult(not failures, failures)


def check_deformation(A: ColorHomAlgebra, B: TruncatedBracket) -> dict:
    """Order-by-order deformation equations, exhaustively on basis triples:
    at t^s the cyclic residual of the pairs (outer_(s-i), [.,.]_i), with
    outer_u(x, w) = sum_(l+j=u) [alpha_l(x), w]_j."""
    I = A.alpha_sparse(0)
    outers = [reduce(add, (B.terms[u - l].precompose(B.alphas[l], I) for l in range(u + 1)))
              for u in range(B.order + 1)]
    per_order = {}
    for s in range(B.order + 1):
        pairs = [(outers[s - i], B.terms[i]) for i in range(s + 1)]
        failures = [{"order": s, **failure}
                    for failure in cyclic_failures(pairs, A.basis, A.eps)]
        per_order[s] = CheckResult(not failures, failures)
    return per_order


def bracket_term_as_cochain(A: ColorHomAlgebra, table: BracketTable):
    """Sparse coordinates of a skew bilinear term on the canonical 2-tuples."""
    R = adjoint(A)
    space = cochain_basis(A, R, 2, A.basis.group.zero())
    coords = {t * A.dim + k: c for t, tup in enumerate(space.tuples)
              for k, c in table.rows.get(tup, {}).items()}
    return space, coords


def first_order_class(A: ColorHomAlgebra, B: TruncatedBracket) -> dict:
    """Cocycle verdict for the first-order term, and its class modulo
    coboundaries of twist-compatible 1-cochains.

    The adjoint action with r = 0 is used; when the twist is invertible this
    coincides with the inverse-twist adjoint convention at the shifted power.
    """
    if B.order < 1:
        raise DeformationError("first-order analysis needs order >= 1")
    space, coords = bracket_term_as_cochain(A, B.terms[1])
    R = space.module
    image, _ = coboundary_of_coords(A, R, space, coords, r=0)
    is_cocycle = all(c.is_zero() for c in image)
    result = {"is_cocycle": is_cocycle}
    if linalg.rank(list(A.alpha_sparse(1).values())) == A.dim:
        result["adjoint_convention"] = "r=0; equals the inverse-twist adjoint pattern"
    else:
        result["warning"] = ("twist is singular; the inverse-twist adjoint "
                             "formulation is unavailable, using r=0")
    if is_cocycle:
        # coords less its part in B^2, the rref image of the compatible 1-cochains
        b2 = _complex(A, R).coboundaries(2, A.basis.group.zero(), 0)
        residue = linalg.Echelon(b2)._reduce(coords)
        result["class_is_zero"] = not residue
        result["class_representative"] = Cochain(space, residue)
    return result


class FormalAutomorphism:
    __slots__ = ("phis",)

    def __init__(self, phis: list):
        if not phis:
            raise DeformationError("formal automorphism needs at least phi_0")
        self.phis = [linalg.sparse(M) for M in phis]  # phi_0, phi_1, ... with phi_0 = Id

    def validate(self, A: ColorHomAlgebra) -> CheckResult:
        failures = []
        if self.phis[0] != A.alpha_sparse(0):
            failures.append({"kind": "phi0-not-identity"})
        failures += [{"kind": "not-even", "order": s, "entry": [i, j]}
                     for s, mat in enumerate(self.phis) for i, row in mat.items()
                     for j in row if A.degree(i) != A.degree(j)]
        return CheckResult(not failures, failures)

    def _inverse(self, A: ColorHomAlgebra, order: int):
        """The sparse psi with phi_t o psi_t = Id mod t^(order+1); needs phi_0 = Id."""
        phis = _padded(self.phis, order)
        psis = [A.alpha_sparse(0)]
        for s in range(1, order + 1):
            psis.append(_combine((-1, _product(phis[i], psis[s - i])) for i in range(1, s + 1)))
        return psis

    def inverse_series(self, A: ColorHomAlgebra, order: int):
        """psi with phi_t o psi_t = Id mod t^(order+1), dense; needs phi_0 = Id."""
        return [linalg.dense(psi, A.dim, A.m) for psi in self._inverse(A, order)]


def _padded(series, order: int):
    """The coefficients 0..order of a sparse matrix series, filled with {}."""
    return series[:order + 1] + [{}] * (order + 1 - len(series))


def _series_product(f, g):
    """The product of two padded sparse matrix series of one length."""
    return [_combine((None, _product(f[a], g[s - a])) for a in range(s + 1))
            for s in range(len(f))]


def _morphism_failures(phis, terms1, terms2, order: int):
    """Per order s, the basis pairs where phi_t([x,y]_t) = [phi_t x, phi_t y]'_t
    fails at t^s: sum_i phi_i o [.,.]_(s-i) against
    sum_(a+b+c=s) [phi_a x, phi_b y]'_c.  Every series is padded."""
    for s in range(order + 1):
        lhs = reduce(add, (terms1[s - i].compose_with(phis[i]) for i in range(s + 1)))
        rhs = reduce(add, (terms2[s - a - b].precompose(phis[a], phis[b])
                           for a in range(s + 1) for b in range(s - a + 1)))
        yield s, lhs.differing_pairs(rhs)


def check_equivalence(A: ColorHomAlgebra, B1: TruncatedBracket, B2: TruncatedBracket,
                      phi: FormalAutomorphism) -> dict:
    """phi_t([x,y]_t) = [phi_t x, phi_t y]'_t and phi_t o alpha_t = alpha'_t o phi_t,
    order by order on basis pairs."""
    if B1.order != B2.order:
        raise DeformationError("deformations must share the truncation order")
    k = B1.order
    phis = _padded(phi.phis, k)
    names = A.basis.names
    bracket_failures = [{"order": s, "pair": [names[x], names[y]]}
                        for s, pairs in _morphism_failures(phis, B1.terms, B2.terms, k)
                        for x, y in pairs]
    # column x of phi_t o alpha_t against that of alpha'_t o phi_t, per order
    lhs = [_transpose(M) for M in _series_product(phis, B1.alphas)]
    rhs = [_transpose(M) for M in _series_product(B2.alphas, phis)]
    twist_failures = [{"order": s, "basis": names[x]}
                      for s in range(k + 1) for x in range(A.dim)
                      if lhs[s].get(x) != rhs[s].get(x)]
    return {
        "bracket": CheckResult(not bracket_failures, bracket_failures),
        "twist": CheckResult(not twist_failures, twist_failures),
        "automorphism": phi.validate(A),
    }


def transport_bracket(A: ColorHomAlgebra, B1: TruncatedBracket,
                      phi: FormalAutomorphism) -> TruncatedBracket:
    """B2 with [x,y]'_t = phi_t([phi_t^-1 x, phi_t^-1 y]_t), truncated; the
    twist series transports by conjugation.  Requires an even phi and a
    skew B1."""
    val = phi.validate(A)
    if not val.ok:
        raise DeformationError(f"transport needs an even formal automorphism: {val.failures[0]}")
    skew = B1.skew_report()
    if not skew.ok:
        raise DeformationError(f"transport needs a skew deformation: {skew.failures[0]}")
    k = B1.order
    phis = _padded(phi.phis, k)
    psis = phi._inverse(A, k)
    # inner[u](x, y) = sum_(b+c+d=u) [psi_b x, psi_c y]_d
    inner = [reduce(add, (B1.terms[u - b - c].precompose(psis[b], psis[c])
                          for b in range(u + 1) for c in range(u - b + 1)))
             for u in range(k + 1)]
    new_terms = []
    for s in range(k + 1):
        table = reduce(add, (inner[s - a].compose_with(phis[a]) for a in range(s + 1)))
        # the pairs i <= j: B1 is skew and phi even, so the skew rule gives the rest
        new_terms.append(BracketTable(A.basis, A.eps, {
            (i, j): row for (i, j), row in table.rows.items() if i <= j}, A.m))
    new_alpha = _series_product(_series_product(phis, B1.alphas), psis)
    return TruncatedBracket(A, k, new_terms, new_alpha)


def composition_deformation(L: ColorHomAlgebra, alphas, order: int = None,
                            derived: int = 0,
                            require_endomorphism: bool = False) -> TruncatedBracket:
    """Deformation [.,.]_t = alpha_t o [.,.] of an untwisted algebra.

    The coefficient-wise endomorphism identity alpha_t[x,y] = [alpha_t x,
    alpha_t y] mod t^(order+1) is checked and its failing orders recorded; it
    only raises under require_endomorphism.  (For alpha_t = Id + t a with an
    invertible bracket endomorphism a, the order-2 coefficient [a x, a y] is
    never identically zero, yet the deformation equations still close; the
    relaxed default keeps that construction available.)
    """
    if derived < 0:
        raise DeformationError("derived level must be non-negative")
    if L.alpha_sparse(1) != L.alpha_sparse(0):
        raise DeformationError("composition deformation starts from an untwisted algebra")
    if order is None:
        order = len(alphas) - 1
    # the bracket as the constant series [.,.] + 0 t + 0 t^2 + ...
    terms = [L.bracket] + [StructureConstants(L.dim, L.m, {})] * order
    alphas = [linalg.sparse(M) for M in alphas]
    series = _padded(alphas, order)
    failing_orders = [s for s, pairs in _morphism_failures(series, terms, terms, order) if pairs]
    if failing_orders and require_endomorphism:
        raise DeformationError(
            f"alpha_t is not a coefficient-wise endomorphism; failing orders "
            f"{failing_orders}")
    # the family starts at the alpha_0-composed algebra (L itself when alpha_0 = Id)
    base = ColorHomAlgebra(L.basis, L.eps, L.bracket.compose_with(alphas[0]),
                           alphas[0], L.m, name=L.name)
    # bracket alpha_t^(2^n - 1) o [.,.]_t = alpha_t^(2^n) o [.,.], twist alpha_t^(2^n)
    power = series
    for _ in range(derived):
        power = _series_product(power, power)
    return TruncatedBracket(base, order, [L.bracket.compose_with(a) for a in power],
                            power, failing_orders)
