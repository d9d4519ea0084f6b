"""Graded algebras by structure constants and the color Hom-Lie axiom checks.

Every bilinear table of the package (brackets, products, induced brackets)
is a ``StructureConstants``.  A ``ColorHomAlgebra`` carries a homogeneous
basis, a bi-character, a skew ``BracketTable`` and a twist matrix.
Validation is reported, never enforced at construction: non-multiplicative
algebras (and twisted algebras whose bracket leaves the original grading)
are legal values everywhere except the few operations whose mathematics
genuinely needs more.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

from . import linalg
from .scalars_grading import (BiCharacter, CycloScalar, FiniteAbelianGroup,
                              GroupElement, format_scalar)


class AlgebraStructureError(ValueError):
    pass


class NotHomAssociativeError(AlgebraStructureError):
    pass


class NotMultiplicativeError(AlgebraStructureError):
    pass


@dataclass(frozen=True)
class GradedBasis:
    names: tuple
    degrees: tuple  # GroupElement per basis vector
    group: FiniteAbelianGroup

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise AlgebraStructureError(f"duplicate basis names in {self.names}")
        for d in self.degrees:
            if d.group != self.group:
                raise AlgebraStructureError(
                    f"degree {d} does not live in the declared grading group")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class StructureConstants:
    """A bilinear map by its structure constants on a basis of dim vectors.

    ``rows[(i, j)]`` is the image of (e_i, e_j) as ``{k: nonzero scalar}``; a
    pair without a row maps to zero.  Input vectors may be dense or sparse.
    """

    mirrored = False  # pairs with i > j follow from a commutation rule

    def __init__(self, dim: int, m: int, entries):
        self.dim = dim
        self.m = m
        self.rows = {}
        for (i, j), vec in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraStructureError(f"pair ({i},{j}) is out of range for dimension {dim}")
            if not isinstance(vec, dict) and len(vec) != dim:
                raise AlgebraStructureError(
                    f"entry ({i},{j}) has length {len(vec)}, expected {dim}")
            items = vec.items() if isinstance(vec, dict) else enumerate(vec)
            row = {k: c for k, c in items if not c.is_zero()}
            if row:
                self.rows[(i, j)] = row

    @classmethod
    def of_cells(cls, cells, m: int) -> "StructureConstants":
        """From a dense table: cells[i][j] is the image of (e_i, e_j)."""
        return cls(len(cells), m, {(i, j): cell for i, row in enumerate(cells)
                                   for j, cell in enumerate(row)})

    def of_basis(self, i: int, j: int):
        """The image of (e_i, e_j) as a dense coordinate vector."""
        out = [CycloScalar.zero(self.m)] * self.dim
        for k, c in self.rows.get((i, j), {}).items():
            out[k] = c
        return out

    def bilinear(self, u, v):
        """The image of (u, v), both dense coordinate vectors."""
        acc = {}
        v_support = [(j, b) for j, b in enumerate(v) if not b.is_zero()]
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in v_support:
                row = self.rows.get((i, j))
                if row is None:
                    continue
                coeff = a * b
                for k, c in row.items():
                    t = coeff * c
                    acc[k] = acc[k] + t if k in acc else t
        z = CycloScalar.zero(self.m)
        return [acc.get(k, z) for k in range(self.dim)]

    def compose_with(self, matrix) -> "StructureConstants":
        """Structure constants of matrix o (this map), under the same rule."""
        out = copy.copy(self)
        out.rows = StructureConstants(self.dim, self.m, {
            key: linalg.mat_vec(matrix, self.of_basis(*key)) for key in self.rows}).rows
        return out

    def endomorphism_failures(self, matrix):
        """The basis pairs (i, j), in order, with matrix(c(e_i, e_j)) !=
        c(matrix e_i, matrix e_j)."""
        cols = [[row[j] for row in matrix] for j in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = linalg.mat_vec(matrix, self.of_basis(i, j))
                rhs = self.bilinear(cols[i], cols[j])
                if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                    yield i, j

    def is_zero(self) -> bool:
        return not self.rows

    def equals(self, other: "StructureConstants") -> bool:
        return self.dim == other.dim and self.rows == other.rows

    def report(self, names):
        """{"x,y": {"z": "c"}} over the nonzero pairs in index order; a
        mirrored table lists only its pairs with i <= j."""
        return {f"{names[i]},{names[j]}": {names[k]: format_scalar(c)
                                          for k, c in sorted(row.items())}
                for (i, j), row in sorted(self.rows.items())
                if i <= j or not self.mirrored}


def _complete(dim: int, m: int, entries, degrees, eps: BiCharacter, sign: int, rule: str):
    """Sparse rows of entries with every missing pair (p, q) filled from the
    given (q, p) as sign * eps(d_p, d_q) * c_qp: sign -1 is skew-symmetry,
    +1 eps-commutativity.  A given pair (p, q) must agree with that value."""
    given = StructureConstants(dim, m, entries).rows
    rows = dict(given)
    for (q, p), row in given.items():
        if p == q:
            continue
        e = eps(degrees[p], degrees[q])
        mirror = {k: (-e if sign < 0 else e) * c for k, c in row.items()}
        if (p, q) not in entries:
            rows[(p, q)] = mirror
        elif given.get((p, q), {}) != mirror:
            raise AlgebraStructureError(
                f"redundant input at pair {(min(p, q), max(p, q))} violates {rule}")
    return rows


class BracketTable(StructureConstants):
    """Structure constants with the skew rule built in.

    Pairs may be given in either order; a missing (j, i) is derived via
    c_ji = -eps(d_j, d_i) c_ij, and redundant input is validated.
    """

    mirrored = True

    def __init__(self, basis: GradedBasis, eps: BiCharacter, entries, m: int):
        super().__init__(basis.dim, m, _complete(basis.dim, m, entries, basis.degrees,
                                                 eps, -1, "skew-symmetry"))
        self.basis = basis
        self.eps = eps

    @property
    def pairs(self):
        """Dense view {(i, j): [e_i, e_j]} of the nonzero pairs with i <= j."""
        return {(i, j): self.of_basis(i, j) for (i, j) in self.rows if i <= j}


@dataclass
class CheckResult:
    ok: bool
    failures: list = field(default_factory=list)

    def to_dict(self):
        return {"ok": self.ok, "failures": self.failures}


@dataclass
class AxiomReport:
    grading: CheckResult
    skew: CheckResult
    jacobi: CheckResult
    multiplicative: CheckResult

    @property
    def is_color_hom_lie(self) -> bool:
        """The two defining identities: skew-symmetry and the Hom-Jacobi sum."""
        return self.skew.ok and self.jacobi.ok

    @property
    def all_ok(self) -> bool:
        return self.grading.ok and self.skew.ok and self.jacobi.ok and self.multiplicative.ok

    def to_dict(self):
        return {
            "grading": self.grading.to_dict(),
            "skew": self.skew.to_dict(),
            "jacobi": self.jacobi.to_dict(),
            "multiplicative": self.multiplicative.to_dict(),
            "is_color_hom_lie": self.is_color_hom_lie,
        }


class ColorHomAlgebra:
    """Quadruple (basis/grading, bracket, bi-character, twist matrix)."""

    def __init__(self, basis: GradedBasis, eps: BiCharacter, bracket: BracketTable,
                 alpha, m: int, name: str = ""):
        self.basis = basis
        self.eps = eps
        self.bracket = bracket
        self.alpha = alpha
        self.m = m
        self.name = name
        self._alpha_pows = {0: linalg.identity(basis.dim, m), 1: alpha}
        self._alpha_inv = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def degree(self, i: int) -> GroupElement:
        return self.basis.degrees[i]

    def basis_vector(self, i: int):
        return [CycloScalar.one(self.m) if j == i else CycloScalar.zero(self.m)
                for j in range(self.dim)]

    def alpha_power(self, k: int):
        """alpha^k; negative k needs an invertible twist."""
        if k < 0:
            if self._alpha_inv is None:
                try:
                    self._alpha_inv = linalg.inverse(self.alpha)
                except ValueError:
                    raise AlgebraStructureError(
                        "negative twist power requested but alpha is singular")
            return linalg.mat_pow(self._alpha_inv, -k, self.m)
        if k not in self._alpha_pows:
            self._alpha_pows[k] = linalg.mat_mul(self.alpha, self.alpha_power(k - 1))
        return self._alpha_pows[k]

    def apply_alpha(self, v, k: int = 1):
        return linalg.mat_vec(self.alpha_power(k), v)

    # -- exhaustive axiom checks --------------------------------------------

    def check_grading(self) -> CheckResult:
        failures = []
        for (i, j), row in sorted(self.bracket.rows.items()):
            if i > j:
                continue
            target = self.degree(i) + self.degree(j)
            for k in sorted(row):
                if self.degree(k) != target:
                    failures.append({
                        "pair": [self.basis.names[i], self.basis.names[j]],
                        "component": self.basis.names[k],
                        "expected_degree": list(target.components),
                        "found_degree": list(self.degree(k).components),
                    })
        return CheckResult(not failures, failures)

    def check_skew(self) -> CheckResult:
        # the off-diagonal rule holds by construction; diagonal entries are
        # constrained only when eps(a,a) = +1
        failures = []
        for (i, j) in sorted(self.bracket.rows):
            if i == j and not self.eps.sign_is_minus_one(self.degree(i), self.degree(i)):
                failures.append({
                    "pair": [self.basis.names[i], self.basis.names[i]],
                    "reason": "diagonal bracket must vanish when eps(a,a) = +1",
                })
        return CheckResult(not failures, failures)

    def jacobi_residual(self, x: int, y: int, z: int):
        """Cyclic sum eps(z,x) [alpha(x), [y, z]] on one basis triple."""
        acc = [CycloScalar.zero(self.m)] * self.dim
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            e = self.eps(self.degree(c), self.degree(a))
            inner = self.bracket.of_basis(b, c)
            outer = self.bracket.bilinear(self.apply_alpha(self.basis_vector(a)), inner)
            acc = [t + e * o for t, o in zip(acc, outer)]
        return acc

    def check_jacobi(self) -> CheckResult:
        failures = []
        for x in range(self.dim):
            for y in range(self.dim):
                for z in range(self.dim):
                    res = self.jacobi_residual(x, y, z)
                    if any(not c.is_zero() for c in res):
                        failures.append({
                            "triple": [self.basis.names[x], self.basis.names[y],
                                       self.basis.names[z]],
                            "residual": [str(c) for c in res],
                        })
        return CheckResult(not failures, failures)

    def check_multiplicative(self) -> CheckResult:
        failures = []
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = self.apply_alpha(self.bracket.of_basis(i, j))
                rhs = self.bracket.bilinear(self.apply_alpha(self.basis_vector(i)),
                                            self.apply_alpha(self.basis_vector(j)))
                if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                    failures.append({
                        "pair": [self.basis.names[i], self.basis.names[j]],
                        "alpha_of_bracket": [str(c) for c in lhs],
                        "bracket_of_alphas": [str(c) for c in rhs],
                    })
        return CheckResult(not failures, failures)


def check_color_hom_lie(A: ColorHomAlgebra) -> AxiomReport:
    return AxiomReport(
        grading=A.check_grading(),
        skew=A.check_skew(),
        jacobi=A.check_jacobi(),
        multiplicative=A.check_multiplicative(),
    )


class HomAssociativeColorAlgebra:
    """Graded algebra (mu, alpha) with the twisted associativity law.

    mu is a ``StructureConstants`` or a dense table mu[i][j] of the images
    of (e_i, e_j).
    """

    def __init__(self, basis: GradedBasis, eps: BiCharacter, mu, alpha, m: int):
        self.basis = basis
        self.eps = eps
        self.mu = mu if isinstance(mu, StructureConstants) else \
            StructureConstants.of_cells(mu, m)
        self.alpha = alpha
        self.m = m

    @property
    def dim(self):
        return self.basis.dim

    def basis_vector(self, i: int):
        return [CycloScalar.one(self.m) if j == i else CycloScalar.zero(self.m)
                for j in range(self.dim)]

    def check_hom_associative(self) -> CheckResult:
        failures = []
        mu = self.mu
        E = linalg.identity(self.dim, self.m)
        for x in range(self.dim):
            ax = linalg.mat_vec(self.alpha, E[x])
            for y in range(self.dim):
                for z in range(self.dim):
                    az = linalg.mat_vec(self.alpha, E[z])
                    lhs = mu.bilinear(ax, mu.of_basis(y, z))
                    rhs = mu.bilinear(mu.of_basis(x, y), az)
                    if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                        failures.append({"triple": [self.basis.names[x],
                                                    self.basis.names[y],
                                                    self.basis.names[z]]})
        return CheckResult(not failures, failures)

    def is_eps_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(self.dim):
                e = self.eps(self.basis.degrees[i], self.basis.degrees[j])
                lhs = self.mu.of_basis(i, j)
                rhs = [e * c for c in self.mu.of_basis(j, i)]
                if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                    return False
        return True


def commutator_algebra(H: HomAssociativeColorAlgebra) -> ColorHomAlgebra:
    """Color Hom-Lie bracket [x,y] = mu(x,y) - eps(x,y) mu(y,x) of a
    Hom-associative color algebra, with the same twist."""
    assoc = H.check_hom_associative()
    if not assoc.ok:
        raise NotHomAssociativeError(
            f"input is not Hom-associative; first failing triple: {assoc.failures[0]}")
    entries = {}
    for i in range(H.dim):
        for j in range(i, H.dim):
            e = H.eps(H.basis.degrees[i], H.basis.degrees[j])
            entries[(i, j)] = [a - e * b for a, b in
                               zip(H.mu.of_basis(i, j), H.mu.of_basis(j, i))]
    bracket = BracketTable(H.basis, H.eps, entries, H.m)
    return ColorHomAlgebra(H.basis, H.eps, bracket, H.alpha, H.m)


def derived_algebra(A: ColorHomAlgebra, n: int) -> ColorHomAlgebra:
    """n-th derived Hom-algebra: bracket alpha^(2^n - 1) o [.,.], twist alpha^(2^n)."""
    if n < 0:
        raise ValueError("derived level must be non-negative")
    if n == 0:
        return A
    mult = A.check_multiplicative()
    if not mult.ok:
        raise NotMultiplicativeError(
            f"derived Hom-algebra needs a multiplicative twist; witness: {mult.failures[0]}")
    power = (1 << n) - 1
    bracket = A.bracket.compose_with(A.alpha_power(power))
    return ColorHomAlgebra(A.basis, A.eps, bracket, A.alpha_power(1 << n), A.m,
                           name=f"{A.name}^({n})" if A.name else "")
