"""Truncated one-parameter formal deformations.

All series live in t modulo t^(order+1) with exact scalar coefficients.  A
``TruncatedBracket`` may deform the twist map together with the bracket
(a list of matrix coefficients alpha_0, alpha_1, ...); the classical case of
a fixed twist is the default.  The order-by-order deformation equation then
reads, for every s,

    cyclic  sum_(l+i+j = s)  eps(z,x) [alpha_l(x), [y,z]_i]_j  =  0,

which for a fixed twist is the usual convolution system and for a deformed
twist is exactly what the composition construction satisfies.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .algebra_core import (AlgebraStructureError, BracketTable, CheckResult,
                           ColorHomAlgebra)
from .cohomology import (Cochain, cochain_basis, coboundary_of_coords,
                         delta_matrix)
from .representations import adjoint
from .scalars_grading import CycloScalar


class DeformationError(AlgebraStructureError):
    pass


@dataclass
class TruncatedBracket:
    algebra: ColorHomAlgebra
    order: int
    terms: list                 # BracketTable per power of t; terms[0] = base bracket
    alpha_terms: list = None    # matrix series for the twist; None = fixed base twist
    endomorphism_failing_orders: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.terms) != self.order + 1:
            raise DeformationError(
                f"order {self.order} needs {self.order + 1} bracket terms, "
                f"got {len(self.terms)}")
        if not self.terms[0].equals(self.algebra.bracket):
            raise DeformationError("term 0 must equal the base bracket")
        if self.alpha_terms is not None and not self.alpha_terms:
            raise DeformationError("alpha_terms must be None or non-empty")

    def alpha_coefficient(self, l: int):
        if self.alpha_terms is None:
            if l == 0:
                return self.algebra.alpha
            return None
        if l < len(self.alpha_terms):
            return self.alpha_terms[l]
        return None

    def term(self, i: int):
        return self.terms[i] if i <= self.order else None

    def _term_report(self, check) -> CheckResult:
        """An axiom check of ColorHomAlgebra run on every term's table."""
        A = self.algebra
        failures = [{"order": s, **failure} for s, table in enumerate(self.terms)
                    for failure in check(ColorHomAlgebra(A.basis, A.eps, table,
                                                         A.alpha, A.m)).failures]
        return CheckResult(not failures, failures)

    def skew_report(self) -> CheckResult:
        return self._term_report(ColorHomAlgebra.check_skew)

    def grading_report(self) -> CheckResult:
        return self._term_report(ColorHomAlgebra.check_grading)


def check_deformation(A: ColorHomAlgebra, B: TruncatedBracket) -> dict:
    """Order-by-order deformation equations, exhaustively on basis triples."""
    per_order = {}
    for s in range(B.order + 1):
        failures = []
        for x in range(A.dim):
            for y in range(A.dim):
                for z in range(A.dim):
                    acc = [CycloScalar.zero(A.m)] * A.dim
                    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                        e = A.eps(A.degree(c), A.degree(a))
                        for l in range(s + 1):
                            alpha_l = B.alpha_coefficient(l)
                            if alpha_l is None:
                                continue
                            ax = linalg.mat_vec(alpha_l, A.basis_vector(a))
                            for i in range(s - l + 1):
                                j = s - l - i
                                ti, tj = B.term(i), B.term(j)
                                if ti is None or tj is None:
                                    continue
                                inner = ti.of_basis(b, c)
                                outer = tj.bilinear(ax, inner)
                                acc = [u + e * v for u, v in zip(acc, outer)]
                    if any(not u.is_zero() for u in acc):
                        failures.append({
                            "order": s,
                            "triple": [A.basis.names[x], A.basis.names[y],
                                       A.basis.names[z]],
                            "residual": [str(c) for c in acc]})
        per_order[s] = CheckResult(not failures, failures)
    return per_order


def bracket_term_as_cochain(A: ColorHomAlgebra, table: BracketTable):
    """Coordinates of a skew bilinear term on the canonical 2-tuples."""
    R = adjoint(A)
    space = cochain_basis(A, R, 2, A.basis.group.zero())
    coords = space.zero_coords()
    for t, tup in enumerate(space.tuples):
        vec = table.of_basis(tup[0], tup[1])
        for k, c in enumerate(vec):
            coords[t * A.dim + k] = c
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
    if linalg.rank(A.alpha) == A.dim:
        result["adjoint_convention"] = "r=0; equals the inverse-twist adjoint pattern"
    else:
        result["warning"] = ("twist is singular; the inverse-twist adjoint "
                             "formulation is unavailable, using r=0")
    if is_cocycle:
        lower_cols, _ = delta_matrix(A, R, 1, 0, A.basis.group.zero(),
                                     domain="compatible")
        Bbasis = linalg.row_space_basis(lower_cols) if lower_cols else []
        residue = list(coords)
        if Bbasis:
            red, pivots = linalg.rref(Bbasis)
            for row, pc in zip(red, pivots):
                c = residue[pc]
                if not c.is_zero():
                    residue = [a - c * b for a, b in zip(residue, row)]
        result["class_is_zero"] = all(c.is_zero() for c in residue)
        result["class_representative"] = Cochain(space, residue)
    return result


@dataclass
class FormalAutomorphism:
    phis: list  # matrices phi_0, phi_1, ..., phi_k with phi_0 = Id

    def __post_init__(self):
        if not self.phis:
            raise DeformationError("formal automorphism needs at least phi_0")

    def validate(self, A: ColorHomAlgebra) -> CheckResult:
        failures = []
        if not linalg.mat_eq(self.phis[0], linalg.identity(A.dim, A.m)):
            failures.append({"kind": "phi0-not-identity"})
        for s, mat in enumerate(self.phis):
            for i in range(A.dim):
                for j in range(A.dim):
                    if not mat[i][j].is_zero() and A.degree(i) != A.degree(j):
                        failures.append({"kind": "not-even", "order": s,
                                         "entry": [i, j]})
        return CheckResult(not failures, failures)

    def coefficient(self, s: int, A: ColorHomAlgebra):
        if s < len(self.phis):
            return self.phis[s]
        return None

    def inverse_series(self, A: ColorHomAlgebra, order: int):
        """psi with phi_t o psi_t = Id mod t^(order+1); needs phi_0 = Id."""
        psis = [linalg.identity(A.dim, A.m)]
        for s in range(1, order + 1):
            acc = linalg.zeros(A.dim, A.dim, A.m)
            for i in range(1, s + 1):
                phi_i = self.coefficient(i, A)
                if phi_i is None:
                    continue
                acc = linalg.mat_add(acc, linalg.mat_mul(phi_i, psis[s - i]))
            psis.append(linalg.mat_scale(CycloScalar.from_rational(-1, A.m), acc))
        return psis


def check_equivalence(A: ColorHomAlgebra, B1: TruncatedBracket, B2: TruncatedBracket,
                      phi: FormalAutomorphism) -> dict:
    """phi_t([x,y]_t) = [phi_t x, phi_t y]'_t and phi_t o alpha_t = alpha'_t o phi_t,
    order by order on basis pairs."""
    if B1.order != B2.order:
        raise DeformationError("deformations must share the truncation order")
    k = B1.order
    bracket_failures, twist_failures = [], []
    for s in range(k + 1):
        for x in range(A.dim):
            for y in range(A.dim):
                lhs = [CycloScalar.zero(A.m)] * A.dim
                for i in range(s + 1):
                    phi_i = phi.coefficient(i, A)
                    if phi_i is None:
                        continue
                    lhs = [u + v for u, v in zip(
                        lhs, linalg.mat_vec(phi_i, B1.terms[s - i].of_basis(x, y)))]
                rhs = [CycloScalar.zero(A.m)] * A.dim
                for a in range(s + 1):
                    pa = phi.coefficient(a, A)
                    if pa is None:
                        continue
                    fx = linalg.mat_vec(pa, A.basis_vector(x))
                    for b in range(s - a + 1):
                        pb = phi.coefficient(b, A)
                        if pb is None:
                            continue
                        fy = linalg.mat_vec(pb, A.basis_vector(y))
                        c = s - a - b
                        rhs = [u + v for u, v in zip(rhs, B2.terms[c].bilinear(fx, fy))]
                if any(not (u - v).is_zero() for u, v in zip(lhs, rhs)):
                    bracket_failures.append({
                        "order": s, "pair": [A.basis.names[x], A.basis.names[y]]})
        for x in range(A.dim):
            lhs = [CycloScalar.zero(A.m)] * A.dim
            for i in range(s + 1):
                phi_i = phi.coefficient(i, A)
                alpha_j = B1.alpha_coefficient(s - i)
                if phi_i is None or alpha_j is None:
                    continue
                lhs = [u + v for u, v in zip(
                    lhs, linalg.mat_vec(phi_i,
                                        linalg.mat_vec(alpha_j, A.basis_vector(x))))]
            rhs = [CycloScalar.zero(A.m)] * A.dim
            for a in range(s + 1):
                alpha_a = B2.alpha_coefficient(a)
                phi_b = phi.coefficient(s - a, A)
                if alpha_a is None or phi_b is None:
                    continue
                rhs = [u + v for u, v in zip(
                    rhs, linalg.mat_vec(alpha_a,
                                        linalg.mat_vec(phi_b, A.basis_vector(x))))]
            if any(not (u - v).is_zero() for u, v in zip(lhs, rhs)):
                twist_failures.append({"order": s, "basis": A.basis.names[x]})
    return {
        "bracket": CheckResult(not bracket_failures, bracket_failures),
        "twist": CheckResult(not twist_failures, twist_failures),
        "automorphism": phi.validate(A),
    }


def transport_bracket(A: ColorHomAlgebra, B1: TruncatedBracket,
                      phi: FormalAutomorphism) -> TruncatedBracket:
    """B2 with [x,y]'_t = phi_t([phi_t^-1 x, phi_t^-1 y]_t), truncated; the
    twist series transports by conjugation.  Requires an even phi."""
    val = phi.validate(A)
    if not val.ok:
        raise DeformationError(f"transport needs an even formal automorphism: {val.failures[0]}")
    k = B1.order
    psis = phi.inverse_series(A, k)
    new_terms = []
    for s in range(k + 1):
        entries = {}
        for i in range(A.dim):
            for j in range(i, A.dim):
                acc = [CycloScalar.zero(A.m)] * A.dim
                for a in range(s + 1):
                    pa = phi.coefficient(a, A)
                    if pa is None:
                        continue
                    for b in range(s - a + 1):
                        for c in range(s - a - b + 1):
                            d = s - a - b - c
                            px = linalg.mat_vec(psis[b], A.basis_vector(i)) \
                                if b < len(psis) else None
                            py = linalg.mat_vec(psis[c], A.basis_vector(j)) \
                                if c < len(psis) else None
                            if px is None or py is None:
                                continue
                            inner = B1.terms[d].bilinear(px, py)
                            acc = [u + v for u, v in zip(acc, linalg.mat_vec(pa, inner))]
                entries[(i, j)] = acc
        new_terms.append(BracketTable(A.basis, A.eps, entries, A.m))
    if B1.alpha_terms is None:
        base_alpha = [A.alpha]
    else:
        base_alpha = B1.alpha_terms
    new_alpha = []
    for s in range(k + 1):
        acc = linalg.zeros(A.dim, A.dim, A.m)
        for a in range(s + 1):
            pa = phi.coefficient(a, A)
            if pa is None:
                continue
            for b in range(s - a + 1):
                c = s - a - b
                if b >= len(base_alpha) or c >= len(psis):
                    continue
                acc = linalg.mat_add(acc, linalg.mat_mul(
                    pa, linalg.mat_mul(base_alpha[b], psis[c])))
        new_alpha.append(acc)
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
    if not linalg.mat_eq(L.alpha, linalg.identity(L.dim, L.m)):
        raise DeformationError("composition deformation starts from an untwisted algebra")
    if order is None:
        order = len(alphas) - 1
    failing_orders = []
    for s in range(order + 1):
        for x in range(L.dim):
            for y in range(L.dim):
                lhs = [CycloScalar.zero(L.m)] * L.dim
                if s < len(alphas):
                    lhs = linalg.mat_vec(alphas[s], L.bracket.of_basis(x, y))
                rhs = [CycloScalar.zero(L.m)] * L.dim
                for a in range(s + 1):
                    b = s - a
                    if a >= len(alphas) or b >= len(alphas):
                        continue
                    rhs = [u + v for u, v in zip(rhs, L.bracket.bilinear(
                        linalg.mat_vec(alphas[a], L.basis_vector(x)),
                        linalg.mat_vec(alphas[b], L.basis_vector(y))))]
                if any(not (u - v).is_zero() for u, v in zip(lhs, rhs)):
                    if s not in failing_orders:
                        failing_orders.append(s)
    if failing_orders and require_endomorphism:
        raise DeformationError(
            f"alpha_t is not a coefficient-wise endomorphism; failing orders "
            f"{failing_orders}")
    if not linalg.mat_eq(alphas[0], linalg.identity(L.dim, L.m)):
        # the family starts at the alpha_0-composed algebra
        base = ColorHomAlgebra(L.basis, L.eps, L.bracket.compose_with(alphas[0]),
                               alphas[0], L.m, name=L.name)
    else:
        base = L
    # bracket alpha_t^(2^n - 1) o [.,.]_t = alpha_t^(2^n) o [.,.], twist alpha_t^(2^n)
    series = _matrix_series_power(alphas, 1 << derived, order, L.m, L.dim)
    result = TruncatedBracket(base, order, [L.bracket.compose_with(a) for a in series],
                              list(series))
    result.endomorphism_failing_orders = failing_orders
    return result


def _matrix_series_power(alphas, power: int, order: int, m: int, dim: int):
    z = linalg.zeros(dim, dim, m)
    series = [alphas[s] if s < len(alphas) else z for s in range(order + 1)]
    result = [linalg.identity(dim, m)] + [z] * order
    for _ in range(power):
        new = []
        for s in range(order + 1):
            acc = linalg.zeros(dim, dim, m)
            for a in range(s + 1):
                acc = linalg.mat_add(acc, linalg.mat_mul(result[a], series[s - a]))
            new.append(acc)
        result = new
    return result
