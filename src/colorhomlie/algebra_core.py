"""Graded algebras by structure constants and the color Hom-Lie axiom checks.

Every bilinear table of the package (brackets, products, induced brackets)
is a ``StructureConstants``.  A ``ColorHomAlgebra`` carries a homogeneous
basis, a bi-character, a skew ``BracketTable`` and a sparse twist matrix.
Validation is reported, never enforced at construction: non-multiplicative
algebras (and twisted algebras whose bracket leaves the original grading)
are legal values everywhere except the few operations whose mathematics
genuinely needs more.
"""
from __future__ import annotations

import copy
from collections import namedtuple
from itertools import product

from . import linalg
from .linalg import _add_scaled, _combine, _product, _transpose
from .scalars_grading import (BiCharacter, CycloScalar, FiniteAbelianGroup,
                              GroupElement, format_scalar)


class AlgebraStructureError(ValueError):
    pass


class NotHomAssociativeError(AlgebraStructureError):
    pass


class NotMultiplicativeError(AlgebraStructureError):
    pass


class GradedBasis(namedtuple("GradedBasis", "names degrees group")):
    __slots__ = ()  # degrees: a GroupElement per name

    def __new__(cls, names: tuple, degrees: tuple, group: FiniteAbelianGroup):
        if len(set(names)) != len(names):
            raise AlgebraStructureError(f"duplicate basis names in {names}")
        if len(degrees) != len(names):
            raise AlgebraStructureError(
                f"{len(names)} basis names but {len(degrees)} degrees")
        for d in degrees:
            if d.group != group:
                raise AlgebraStructureError(
                    f"degree {d} does not live in the declared grading group")
        return super().__new__(cls, names, degrees, group)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class StructureConstants:
    """A bilinear map by its structure constants on a basis of dim vectors.

    ``rows[(i, j)]`` is the image of (e_i, e_j) as ``{k: nonzero scalar}``; a
    pair without a row maps to zero.  Vectors and matrices are sparse, but
    for the dense face ``bilinear``.
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
        return linalg.dense([self.rows.get((i, j), {})], self.dim, self.m)[0]

    def sparse_bilinear(self, u, v):
        """The image of sparse vectors (u, v) as {k: nonzero scalar}."""
        acc, rows = {}, self.rows
        for i, a in u.items():
            for j, b in v.items():
                row = rows.get((i, j))
                if row is not None:
                    _add_scaled(acc, a * b, row)
        return acc

    def bilinear(self, u, v):
        """The image of dense or sparse vectors (u, v) as a dense coordinate vector."""
        u, v = (linalg.sparse([u, v]).get(r, {}) for r in (0, 1))
        return linalg.dense([self.sparse_bilinear(u, v)], self.dim, self.m)[0]

    def precompose(self, left, right) -> "StructureConstants":
        """The plain table of (x, y) -> c(left x, right y) for matrices left, right."""
        acc = {}
        for (a, b), row in self.rows.items():
            for i, l in left.get(a, {}).items():
                for j, r in right.get(b, {}).items():
                    _add_scaled(acc.setdefault((i, j), {}), l * r, row)
        return StructureConstants(self.dim, self.m, acc)

    def __add__(self, other: "StructureConstants") -> "StructureConstants":
        """The plain table of the pointwise sum."""
        return StructureConstants(self.dim, self.m,
                                  _combine([(None, self.rows), (None, other.rows)]))

    def commutator(self, degrees, eps: BiCharacter) -> "StructureConstants":
        """The plain table of c(x, y) - eps(x, y) c(y, x) on the homogeneous
        basis with the given degrees."""
        return StructureConstants(self.dim, self.m, _combine(
            [(None, self.rows)] + [(-eps(degrees[i], degrees[j]), {(i, j): row})
                                   for (j, i), row in self.rows.items()]))

    def differing_pairs(self, other: "StructureConstants"):
        """The basis pairs (i, j), in row-major order, where the tables differ."""
        return sorted(key for key in self.rows.keys() | other.rows.keys()
                      if self.rows.get(key) != other.rows.get(key))

    def compose_with(self, matrix) -> "StructureConstants":
        """Structure constants of matrix o (this map), under the same rule."""
        out, cols = copy.copy(self), _transpose(matrix)
        out.rows = {key: row for key in self.rows if (row := self.mapped_row(*key, cols))}
        return out

    def mapped_row(self, i: int, j: int, cols):
        """f(c(e_i, e_j)) as {k: nonzero scalar}; cols[k] is the sparse column
        f e_k, and a zero column may be missing."""
        acc = {}
        for k, c in self.rows.get((i, j), {}).items():
            _add_scaled(acc, c, cols.get(k, {}))
        return acc

    def endomorphism_failures(self, matrix):
        """The basis pairs (i, j), in row-major order, with matrix(c(e_i, e_j))
        != c(matrix e_i, matrix e_j), both sides formed on sparse columns."""
        cols = _transpose(matrix)
        for i, j in product(range(self.dim), repeat=2):
            if self.mapped_row(i, j, cols) != self.sparse_bilinear(cols.get(i, {}),
                                                                   cols.get(j, {})):
                yield i, j

    def commutation_failures(self, degrees, eps: BiCharacter, sign: int):
        """The basis pairs (i, j), in row-major order, with c(e_i, e_j) !=
        sign * eps(d_i, d_j) c(e_j, e_i): sign +1 is eps-commutativity, -1
        eps-skew-symmetry."""
        rows = self.rows
        for i, j in product(range(self.dim), repeat=2):
            e = eps(degrees[i], degrees[j]) if sign > 0 else -eps(degrees[i], degrees[j])
            if rows.get((i, j), {}) != {k: e * c for k, c in rows.get((j, i), {}).items()}:
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


def cyclic_residual(pairs, degrees, eps: BiCharacter, x: int, y: int, z: int):
    """Sum over the rotations (a, b, c) of (x, y, z) and the (outer, inner)
    table pairs of eps(d_c, d_a) outer(e_a, inner(e_b, e_c)), as {k: nonzero scalar}.

    The Hom-Jacobi identity, the order-by-order deformation equations and
    the deformed Jacobi identity of the induced HLS bracket all say that
    this sum vanishes, for different (outer, inner) pairs.
    """
    acc = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        e = eps(degrees[c], degrees[a])
        for outer, inner in pairs:
            for k, w in inner.rows.get((b, c), {}).items():
                _add_scaled(acc, e * w, outer.rows.get((a, k), {}))
    return acc


def cyclic_failures(pairs, basis: GradedBasis, eps: BiCharacter):
    """The basis triples, in order, whose cyclic residual is nonzero, with
    the residual as dense entry strings.  Rotations share a residual, formed
    once at the least rotation of each class, which row-major order meets first."""
    failures, m, strings = [], pairs[0][0].m, {}
    for t in product(range(basis.dim), repeat=3):
        key = min(t, t[1:] + t[:1], t[2:] + t[:2])
        if key == t:
            res = cyclic_residual(pairs, basis.degrees, eps, *t)
            strings[t] = res and [str(c) for c in linalg.dense([res], basis.dim, m)[0]]
        if strings[key]:
            failures.append({"triple": [basis.names[i] for i in t],
                             "residual": list(strings[key])})
    return failures


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

    @property
    def pairs(self):
        """Dense view {(i, j): [e_i, e_j]} of the nonzero pairs with i <= j."""
        return {(i, j): self.of_basis(i, j) for (i, j) in self.rows if i <= j}


class CheckResult:
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures=None):
        self.ok, self.failures = ok, [] if failures is None else failures

    def to_dict(self):
        return {"ok": self.ok, "failures": self.failures}


class AxiomReport:
    __slots__ = ("grading", "skew", "jacobi", "multiplicative")

    def __init__(self, grading: CheckResult, skew: CheckResult, jacobi: CheckResult,
                 multiplicative: CheckResult):
        self.grading, self.skew, self.jacobi = grading, skew, jacobi
        self.multiplicative = multiplicative

    @property
    def is_color_hom_lie(self) -> bool:
        """The two defining identities: skew-symmetry and the Hom-Jacobi sum."""
        return self.skew.ok and self.jacobi.ok

    @property
    def all_ok(self) -> bool:
        return self.grading.ok and self.skew.ok and self.jacobi.ok and self.multiplicative.ok

    def to_dict(self):
        report = {name: getattr(self, name).to_dict() for name in self.__slots__}
        report["is_color_hom_lie"] = self.is_color_hom_lie
        return report


class ColorHomAlgebra:
    """Quadruple (basis/grading, bracket, bi-character, twist matrix).

    The twist, dense or sparse, is stored once, as ``alpha_sparse(1)``.
    Treated as immutable once built: twist powers and solved spaces are kept
    on the instance, a module keeps its ``cohomology`` cochain complex over it.
    """

    def __init__(self, basis: GradedBasis, eps: BiCharacter, bracket: BracketTable,
                 alpha, m: int, name: str = ""):
        self.basis = basis
        self.eps = eps
        self.bracket = bracket
        self.m = m
        self.name = name
        self._sparse_pows = {1: linalg.sparse(alpha)}  # k -> alpha^k in linalg's sparse form
        self._spaces = {}       # (kind, k, gamma, commute) -> spanning matrices
        self._precomposed = {}  # k -> rows of [e_i, a^k e_y] and [a^k e_x, e_i]
        self._terms = {}        # (k, gamma) -> term tables
        self._commute, self._patterns = {}, {}  # gamma -> [D, alpha] rows; degree pattern

    dim = property(lambda self: self.basis.dim)

    def degree(self, i: int) -> GroupElement:
        return self.basis.degrees[i]

    alpha = property(lambda self: linalg.dense(self._sparse_pows[1], self.dim, self.m),
                     doc="The twist as a fresh dense matrix.")

    def alpha_sparse(self, k: int):
        """alpha^k, formed once per k by repeated squaring and kept: never edit it."""
        if k not in self._sparse_pows:
            if k == 0:
                power = {i: {i: CycloScalar.one(self.m)} for i in range(self.dim)}
            elif k == -1:
                try:
                    power = linalg.inverse(self.alpha_sparse(1), self.dim, self.m)
                except ValueError:
                    raise AlgebraStructureError(
                        "negative twist power requested but alpha is singular")
            else:
                step = 1 if k > 0 else -1
                half = self.alpha_sparse(step * (abs(k) // 2))
                power = _product(half, half)
                if k % 2:
                    power = _product(self.alpha_sparse(step), power)
            self._sparse_pows[k] = power
        return self._sparse_pows[k]

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

    def check_jacobi(self) -> CheckResult:
        """The cyclic sum eps(z,x) [alpha(x), [y, z]] on every basis triple."""
        outer = self.bracket.precompose(self.alpha_sparse(1), self.alpha_sparse(0))
        failures = cyclic_failures([(outer, self.bracket)], self.basis, self.eps)
        return CheckResult(not failures, failures)

    def check_multiplicative(self) -> CheckResult:
        """alpha[e_i, e_j] against [alpha e_i, alpha e_j], on sparse columns."""
        failures, cols = [], _transpose(self.alpha_sparse(1))
        for i, j in self.bracket.endomorphism_failures(self.alpha_sparse(1)):
            lhs, rhs = linalg.dense([self.bracket.mapped_row(i, j, cols),
                                     self.bracket.sparse_bilinear(cols.get(i, {}),
                                                                  cols.get(j, {}))],
                                    self.dim, self.m)
            failures.append({
                "pair": [self.basis.names[i], self.basis.names[j]],
                "alpha_of_bracket": [str(c) for c in lhs],
                "bracket_of_alphas": [str(c) for c in rhs],
            })
        return CheckResult(not failures, failures)


def check_color_hom_lie(A: ColorHomAlgebra) -> AxiomReport:
    return AxiomReport(A.check_grading(), A.check_skew(), A.check_jacobi(),
                       A.check_multiplicative())


class HomAssociativeColorAlgebra:
    """Graded algebra (mu, alpha) with the twisted associativity law.

    mu is a ``StructureConstants`` or a dense table mu[i][j] of the images
    of (e_i, e_j); the twist, dense or sparse, is kept sparse.
    """

    def __init__(self, basis: GradedBasis, eps: BiCharacter, mu, alpha, m: int):
        self.basis = basis
        self.eps = eps
        self.mu = mu if isinstance(mu, StructureConstants) else \
            StructureConstants.of_cells(mu, m)
        self._alpha = linalg.sparse(alpha)
        self.m = m

    dim = property(lambda self: self.basis.dim)
    alpha = property(lambda self: linalg.dense(self._alpha, self.dim, self.m),
                     doc="The twist as a fresh dense matrix.")

    def check_hom_associative(self) -> CheckResult:
        """alpha(x).(y.z) = (x.y).alpha(z) on basis triples, from the rows of
        mu and the columns of alpha."""
        mu, rows = self.mu, self.mu.rows
        alpha = _transpose(self._alpha)
        failures = [{"triple": [self.basis.names[t] for t in (x, y, z)]}
                    for x, y, z in product(range(self.dim), repeat=3)
                    if mu.sparse_bilinear(alpha.get(x, {}), rows.get((y, z), {}))
                    != mu.sparse_bilinear(rows.get((x, y), {}), alpha.get(z, {}))]
        return CheckResult(not failures, failures)

    def is_eps_commutative(self) -> bool:
        return not any(self.mu.commutation_failures(self.basis.degrees, self.eps, 1))


def commutator_algebra(H: HomAssociativeColorAlgebra) -> ColorHomAlgebra:
    """Color Hom-Lie bracket [x,y] = mu(x,y) - eps(x,y) mu(y,x) of a
    Hom-associative color algebra, with the same twist."""
    assoc = H.check_hom_associative()
    if not assoc.ok:
        raise NotHomAssociativeError(
            f"input is not Hom-associative; first failing triple: {assoc.failures[0]}")
    bracket = BracketTable(H.basis, H.eps, H.mu.commutator(H.basis.degrees, H.eps).rows, H.m)
    return ColorHomAlgebra(H.basis, H.eps, bracket, H._alpha, H.m)


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
    bracket = A.bracket.compose_with(A.alpha_sparse(power))
    return ColorHomAlgebra(A.basis, A.eps, bracket, A.alpha_sparse(1 << n), A.m,
                           name=f"{A.name}^({n})" if A.name else "")
