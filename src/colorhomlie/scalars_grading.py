"""Exact scalars in cyclotomic fields, finite abelian grading groups, bi-characters.

Every quantity in this package is a ``CycloScalar``: an element of Q(zeta_m) in
the power basis 1, zeta, ..., zeta^(phi(m)-1), stored as a tuple of integer
numerators over one positive integer denominator, reduced by their gcd.
Arithmetic is integer arithmetic with one gcd at the end; for m = 1 or 2 the
numerator is a single integer, so a product is one integer multiply.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import add, neg, sub


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
    """x^k mod Phi_m for k = phi(m) .. 2*phi(m)-2, as integer tuples (Phi_m is monic)."""
    phi = euler_phi(m)
    phim = list(cyclotomic_polynomial(m))
    rows = []
    for k in range(phi, 2 * phi - 1):
        p = [Fraction(0)] * (k + 1)
        p[k] = Fraction(1)
        _, rem = _poly_divmod(p, phim)
        rows.append(tuple(int(c) for c in rem) + (0,) * (phi - len(rem)))
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


_new = object.__new__


def _make(num, den, m):
    """Scalar num/den (den > 0), divided by gcd(num, den) unless den is 1."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple([n // g for n in num]), den // g
    s = _new(CycloScalar)
    s.num, s.den, s.root_order = num, den, m
    return s


def _additive(op):
    """The method x op y for op = operator.add or operator.sub."""
    def method(self, other):
        m = self.root_order
        if other.__class__ is not CycloScalar:
            other = CycloScalar.from_rational(other, m)
        if other.root_order != m:
            raise ScalarError(f"mixed cyclotomic orders {m} and {other.root_order}")
        a, b, da, db = self.num, other.num, self.den, other.den
        if not any(b):
            return self
        if da == db:
            return _make(tuple(map(op, a, b)), da, m)
        if len(a) == 1:
            return _make((op(a[0] * db, b[0] * da),), da * db, m)
        return _make(tuple([op(p * db, q * da) for p, q in zip(a, b)]), da * db, m)
    return method


class CycloScalar:
    """Element of Q(zeta_m) in the power basis modulo Phi_m.  Never mutated.

    ``CycloScalar(coeffs, m)`` takes rational coefficients; they are stored as
    integer numerators ``num`` over one positive integer denominator ``den``
    with gcd(num, den) = 1, zero as (0, ..., 0)/1, so equality, hashing and
    ``sort_key`` are structural.  ``coeffs`` gives the coefficients back as
    ``Fraction``s.
    """

    __slots__ = ("num", "den", "root_order")

    def __init__(self, coeffs, root_order: int):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        self.num = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self.den, self.root_order = den, root_order

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.num)

    @staticmethod
    def from_rational(value, m: int = 1) -> "CycloScalar":
        q = Fraction(value)
        return _make((q.numerator,) + (0,) * (euler_phi(m) - 1), q.denominator, m)

    @staticmethod
    def zero(m: int = 1) -> "CycloScalar":
        return _constants(m)[0]

    @staticmethod
    def one(m: int = 1) -> "CycloScalar":
        return _constants(m)[1]

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "CycloScalar":
        """zeta_m^k, reduced."""
        k %= m
        p = [Fraction(0)] * (k + 1)
        p[k] = Fraction(1)
        return cyclo_reduce(p, m)

    # -- ring structure ----------------------------------------------------

    __add__ = _additive(add)
    __sub__ = _additive(sub)

    def __neg__(self):
        return _make(tuple(map(neg, self.num)), self.den, self.root_order)

    def __mul__(self, other):
        m = self.root_order
        if other.__class__ is not CycloScalar:
            other = CycloScalar.from_rational(other, m)
        if other.root_order != m:
            raise ScalarError(f"mixed cyclotomic orders {m} and {other.root_order}")
        a, b = self.num, other.num
        if not any(a):
            return self
        if not any(b):
            return other
        den = self.den * other.den
        n = len(a)
        if n == 1:
            p = a[0] * b[0]
            if den != 1:
                g = gcd(p, den)
                p, den = p // g, den // g
            s = _new(CycloScalar)
            s.num, s.den, s.root_order = (p,), den, m
            return s
        if n == 2:
            (r0, r1), = _reduction_rows(m)
            a0, a1 = a
            b0, b1 = b
            top = a1 * b1
            return _make((a0 * b0 + r0 * top, a0 * b1 + a1 * b0 + r1 * top), den, m)
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        out = prod[:n]
        for row, c in zip(_reduction_rows(m), prod[n:]):
            if c:
                for t in range(n):
                    out[t] += c * row[t]
        return _make(tuple(out), den, m)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other, self.root_order) - self

    def inverse(self) -> "CycloScalar":
        """Field inverse: closed form for phi(m) <= 2, else extended Euclid on Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        m, a, d = self.root_order, self.num, self.den
        if len(a) == 1:
            return _make((d if a[0] > 0 else -d,), abs(a[0]), m)
        if len(a) == 2:
            # (a0 + a1 z)^-1 = (a0 + r1 a1 - a1 z) / N with z^2 = r0 + r1 z and
            # the norm N = a0^2 + r1 a0 a1 - r0 a1^2, positive for m = 3, 4, 6
            (r0, r1), = _reduction_rows(m)
            a0, a1 = a
            norm = a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1
            return _make(((a0 + r1 * a1) * d, -a1 * d), norm, m)
        # extended gcd of Phi_m and self; invariant s_i * self = r_i  (mod Phi_m)
        r0 = list(cyclotomic_polynomial(m))
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
        return cyclo_reduce(inv, m)

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

    # -- predicates, views, identity -----------------------------------------

    def __eq__(self, other):
        if other.__class__ is not CycloScalar:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.root_order == other.root_order)

    def __hash__(self):
        # equal to the hash of (coefficient Fractions, m) on every value
        return hash((self.num if self.den == 1 else self.coeffs, self.root_order))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def sort_key(self):
        return (self.root_order,) + tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycloScalar({format_scalar(self)!r}, m={self.root_order})"

    def __str__(self):
        return format_scalar(self)


@lru_cache(maxsize=None)
def _constants(m: int):
    """The shared zero and one of Q(zeta_m)."""
    return CycloScalar.from_rational(0, m), CycloScalar.from_rational(1, m)


def _coerce(value, m: int) -> CycloScalar:
    if isinstance(value, CycloScalar):
        return value
    return CycloScalar.from_rational(value, m)


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
    # bubbling perm back to the identity swaps neighbouring arguments of the
    # reordered tuple, with the degrees of the entries they hold
    return sort_with_sign(perm, degrees, eps)[1]
