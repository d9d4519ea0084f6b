"""Exact scalars in cyclotomic fields, finite abelian grading groups, bi-characters.

Every quantity in this package is a ``CycloScalar``: an element of Q(zeta_m),
stored as a coefficient vector in the power basis 1, zeta, ..., zeta^(phi(m)-1)
with rational coefficients.  For m = 1 or 2 this degenerates to plain rationals,
which is the fast path almost everything here runs on.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product


class ScalarError(ValueError):
    pass


class GroupMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _poly_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        if c != 0:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return q, _poly_trim(num)


def euler_phi(m: int) -> int:
    n, result, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Phi_m as a coefficient tuple, computed by dividing x^m - 1 by all Phi_d, d|m, d<m."""
    if m < 1:
        raise ScalarError(f"root order must be >= 1, got {m}")
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    num = _poly_trim(num)
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise ScalarError(f"cyclotomic division left a remainder at m={m}, d={d}")
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(m: int):
    """x^k mod Phi_m for k = phi(m) .. 2*phi(m)-2, as coefficient tuples."""
    phi = euler_phi(m)
    phim = list(cyclotomic_polynomial(m))
    rows = []
    for k in range(phi, 2 * phi - 1):
        p = [Fraction(0)] * (k + 1)
        p[k] = Fraction(1)
        _, rem = _poly_divmod(p, phim)
        rem = rem + [Fraction(0)] * (phi - len(rem))
        rows.append(tuple(rem))
    return tuple(rows)


def cyclo_reduce(raw_coeffs, m: int) -> "CycloScalar":
    """Canonical representative of a rational polynomial in zeta_m modulo Phi_m."""
    phi = euler_phi(m)
    coeffs = [Fraction(c) for c in raw_coeffs]
    if len(coeffs) > phi:
        _, rem = _poly_divmod(_poly_trim(coeffs), list(cyclotomic_polynomial(m)))
        coeffs = rem
    coeffs = coeffs + [Fraction(0)] * (phi - len(coeffs))
    return CycloScalar(tuple(coeffs[:phi]), m)


@dataclass(frozen=True, slots=True)
class CycloScalar:
    """Element of Q(zeta_m) in the power basis modulo Phi_m.  Immutable."""

    coeffs: tuple
    root_order: int

    @staticmethod
    def from_rational(value, m: int = 1) -> "CycloScalar":
        c = [Fraction(value)] + [Fraction(0)] * (euler_phi(m) - 1)
        return CycloScalar(tuple(c), m)

    @staticmethod
    def zero(m: int = 1) -> "CycloScalar":
        return CycloScalar.from_rational(0, m)

    @staticmethod
    def one(m: int = 1) -> "CycloScalar":
        return CycloScalar.from_rational(1, m)

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "CycloScalar":
        """zeta_m^k, reduced."""
        k %= m
        p = [Fraction(0)] * (k + 1)
        p[k] = Fraction(1)
        return cyclo_reduce(p, m)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "CycloScalar"):
        if self.root_order != other.root_order:
            raise ScalarError(
                f"mixed cyclotomic orders {self.root_order} and {other.root_order}")

    def __add__(self, other):
        other = _coerce(other, self.root_order)
        self._check(other)
        return CycloScalar(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                           self.root_order)

    def __sub__(self, other):
        other = _coerce(other, self.root_order)
        self._check(other)
        return CycloScalar(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                           self.root_order)

    def __neg__(self):
        return CycloScalar(tuple(-a for a in self.coeffs), self.root_order)

    def __mul__(self, other):
        other = _coerce(other, self.root_order)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            return CycloScalar((a[0] * b[0],), self.root_order)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb != 0:
                    prod[i + j] += ca * cb
        out = list(prod[:n])
        rows = _reduction_rows(self.root_order)
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c != 0:
                row = rows[k - n]
                for t in range(n):
                    out[t] += c * row[t]
        return CycloScalar(tuple(out), self.root_order)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other, self.root_order) - self

    def inverse(self) -> "CycloScalar":
        """Field inverse via the extended Euclidean algorithm on Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if len(self.coeffs) == 1:
            return CycloScalar((1 / self.coeffs[0],), self.root_order)
        # extended gcd of Phi_m and self; invariant s_i * self = r_i  (mod Phi_m)
        r0 = list(cyclotomic_polynomial(self.root_order))
        r1 = _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s
        if len(r0) != 1:
            raise ScalarError("scalar is a zero divisor; Phi_m should be irreducible")
        inv = [c / r0[0] for c in s0]
        return cyclo_reduce(inv, self.root_order)

    def __truediv__(self, other):
        other = _coerce(other, self.root_order)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloScalar.one(self.root_order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return self.coeffs[0]

    def sort_key(self):
        return (self.root_order,) + tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycloScalar({format_scalar(self)!r}, m={self.root_order})"

    def __str__(self):
        return format_scalar(self)


def _coerce(value, m: int) -> CycloScalar:
    if isinstance(value, CycloScalar):
        return value
    return CycloScalar.from_rational(value, m)


def scalar_inverse(s: CycloScalar) -> CycloScalar:
    return s.inverse()


# ---------------------------------------------------------------------------
# scalar literals: `p`, `p/q`, `[c0;c1;...]`
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_scalar(text: str, m: int) -> CycloScalar:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ScalarError(f"unterminated cyclotomic literal {text!r}")
        parts = [p.strip() for p in text[1:-1].split(";")]
        phi = euler_phi(m)
        if len(parts) != phi:
            raise ScalarError(
                f"cyclotomic literal {text!r} needs {phi} coefficients for m={m}, got {len(parts)}")
        coeffs = []
        for p in parts:
            if not _RATIONAL_RE.match(p):
                raise ScalarError(f"bad rational {p!r} in literal {text!r}")
            coeffs.append(Fraction(p))
        return CycloScalar(tuple(coeffs), m)
    if not _RATIONAL_RE.match(text):
        raise ScalarError(f"bad scalar literal {text!r}")
    return CycloScalar.from_rational(Fraction(text), m)


def format_scalar(s: CycloScalar) -> str:
    """Canonical literal; plain rationals serialize without brackets."""
    if s.is_rational():
        return str(s.coeffs[0])
    return "[" + ";".join(str(c) for c in s.coeffs) + "]"


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_r}."""

    orders: tuple

    def __post_init__(self):
        if any(n < 1 for n in self.orders):
            raise GroupMismatchError(f"cyclic orders must be positive: {self.orders}")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def exponent(self) -> int:
        e = 1
        for o in self.orders:
            g = _gcd(e, o)
            e = e // g * o
        return e

    def element(self, components) -> "GroupElement":
        comps = tuple(c % n for c, n in zip(components, self.orders))
        if len(comps) != self.rank:
            raise GroupMismatchError(
                f"element {components} has {len(components)} components, group rank is {self.rank}")
        return GroupElement(comps, self)

    def zero(self) -> "GroupElement":
        return GroupElement((0,) * self.rank, self)

    def elements(self):
        for comps in product(*(range(n) for n in self.orders)):
            yield GroupElement(comps, self)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@dataclass(frozen=True, slots=True)
class GroupElement:
    components: tuple
    group: FiniteAbelianGroup

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise GroupMismatchError("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(tuple((a + b) % n for a, b, n in
                                  zip(self.components, other.components, self.group.orders)),
                            self.group)

    def __neg__(self) -> "GroupElement":
        return GroupElement(tuple((-a) % n for a, n in
                                  zip(self.components, self.group.orders)), self.group)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


# ---------------------------------------------------------------------------
# bi-characters
# ---------------------------------------------------------------------------

class BiCharacterError(ValueError):
    pass


class BiCharacter:
    """Skew-symmetric bi-character on a finite abelian group.

    Specified by an integer exponent matrix E on the cyclic generators:
    eps(g_i, g_j) = zeta_m^(E[i][j]), extended bimultiplicatively.  Skewness
    and compatibility with the cyclic orders are checked exhaustively at
    construction time (the group is finite).
    """

    def __init__(self, group: FiniteAbelianGroup, exponent_matrix, root_order: int):
        self.group = group
        self.root_order = root_order
        E = [[int(e) % root_order for e in row] for row in exponent_matrix]
        if len(E) != group.rank or any(len(row) != group.rank for row in E):
            raise BiCharacterError(
                f"exponent matrix must be {group.rank}x{group.rank}")
        self.exponent_matrix = E
        self._validate()
        # zeta^0 .. zeta^(m-1); scalars are immutable, so callers share them
        self._roots = tuple(CycloScalar.root_of_unity(root_order, k)
                            for k in range(root_order))

    def _validate(self):
        m = self.root_order
        E = self.exponent_matrix
        r = self.group.rank
        # generator order consistency: n_j * E[i][j] == 0 (mod m), both slots
        for i in range(r):
            for j in range(r):
                if (self.group.orders[j] * E[i][j]) % m != 0:
                    raise BiCharacterError(
                        f"exponent E[{i}][{j}]={E[i][j]} incompatible with cyclic order "
                        f"{self.group.orders[j]} modulo {m}")
                if (self.group.orders[i] * E[i][j]) % m != 0:
                    raise BiCharacterError(
                        f"exponent E[{i}][{j}]={E[i][j]} incompatible with cyclic order "
                        f"{self.group.orders[i]} modulo {m}")
        # skewness eps(a,b) eps(b,a) = 1, exhaustively
        for a in self.group.elements():
            for b in self.group.elements():
                if (self._exponent(a, b) + self._exponent(b, a)) % m != 0:
                    raise BiCharacterError(
                        f"bi-character is not skew at ({a}, {b})")

    def _exponent(self, a: GroupElement, b: GroupElement) -> int:
        E = self.exponent_matrix
        total = 0
        for i, ai in enumerate(a.components):
            if ai == 0:
                continue
            for j, bj in enumerate(b.components):
                if bj:
                    total += ai * E[i][j] * bj
        return total % self.root_order

    def __call__(self, a: GroupElement, b: GroupElement) -> CycloScalar:
        if a.group != self.group or b.group != self.group:
            raise GroupMismatchError("bi-character applied to foreign group elements")
        return self._roots[self._exponent(a, b)]

    def sign_is_minus_one(self, a: GroupElement, b: GroupElement) -> bool:
        """True iff eps(a,b) = -1; only meaningful when values are +-1."""
        return self._exponent(a, b) * 2 == self.root_order

    def value_on_diagonal(self, a: GroupElement) -> CycloScalar:
        return self(a, a)


def epsilon_eval(eps: BiCharacter, a: GroupElement, b: GroupElement) -> CycloScalar:
    return eps(a, b)


# ---------------------------------------------------------------------------
# reorder signs for skew multilinear maps
# ---------------------------------------------------------------------------

def sort_with_sign(indices, degrees, eps: BiCharacter):
    """Bubble-sort a tuple of basis indices into non-decreasing order.

    Returns (sorted_tuple, sign) where sign is the product of -eps(a,b) over
    the adjacent transpositions performed: a skew map f satisfies
    f(original) = sign * f(sorted).  The result does not depend on the swap
    sequence (tested as an invariant).
    """
    idx = list(indices)
    sign = CycloScalar.one(eps.root_order)
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            a = degrees[idx[j - 1]]
            b = degrees[idx[j]]
            sign = sign * (-eps(a, b))
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            j -= 1
    return tuple(idx), sign


def reorder_sign(degrees, permutation, eps: BiCharacter) -> CycloScalar:
    """Sign relating f(x_0,...,x_{n-1}) to f(x_{p(0)},...,x_{p(n-1)}).

    `permutation` lists source positions: entry k of the reordered tuple is the
    original entry permutation[k].  Returns s with f(reordered) = s * f(original).
    """
    perm = list(permutation)
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError(f"{permutation} is not a permutation of 0..{len(degrees) - 1}")
    sign = CycloScalar.one(eps.root_order)
    # bubble perm back to the identity; each adjacent swap of the reordered
    # tuple exchanges neighbouring arguments with known degrees
    for i in range(1, len(perm)):
        j = i
        while j > 0 and perm[j - 1] > perm[j]:
            a = degrees[perm[j - 1]]
            b = degrees[perm[j]]
            sign = sign * (-eps(a, b))
            perm[j - 1], perm[j] = perm[j], perm[j - 1]
            j -= 1
    return sign
