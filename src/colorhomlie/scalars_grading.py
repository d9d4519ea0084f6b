"""Exact scalars in cyclotomic fields, finite abelian grading groups, bi-characters.

Every quantity in this package is a ``CycloScalar``: an element of Q(zeta_m) in
the power basis 1, zeta, ..., zeta^(phi(m)-1), stored as a tuple of integer
numerators over one positive integer denominator, reduced by their gcd.
Arithmetic is integer arithmetic with one gcd at the end; for m = 1 or 2 the
numerator is a single integer, so a product is one integer multiply.
"""
from __future__ import annotations

import re
from collections import namedtuple
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

def euler_phi(m: int) -> int:
    """phi(m), the degree of the cached Phi_m; m < 1 is refused there."""
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Phi_m as an integer coefficient tuple: x^m - 1 divided exactly by the
    monic Phi_d of every d | m, d < m."""
    if m < 1:
        raise ScalarError(f"root order must be >= 1, got {m}")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            # synthetic division: num[i] becomes the quotient's x^(i - top)
            den = cyclotomic_polynomial(d)
            top = len(den) - 1
            for i in range(len(num) - 1, top - 1, -1):
                for j in range(top):
                    num[i - top + j] -= num[i] * den[j]
            num = num[top:]
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(m: int):
    """zeta_m^k in the power basis for k = 0 .. m-1, as integer tuples: each
    is x times the one before, less its top coefficient times Phi_m."""
    phim = cyclotomic_polynomial(m)
    rows = [(1,) + (0,) * (len(phim) - 2)]
    while len(rows) < m:
        row = rows[-1]
        rows.append(tuple([c - row[-1] * p for c, p in zip((0,) + row[:-1], phim)]))
    return tuple(rows)


def cyclo_reduce(raw_coeffs, m: int) -> "CycloScalar":
    """Canonical representative of sum_k c_k zeta_m^k for rational c_k."""
    roots = _roots(m)
    return sum((c * roots[k % m] for k, c in enumerate(raw_coeffs) if c), CycloScalar.zero(m))


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
        if len(a) == 1:
            if not b[0]:
                return self
            if da == db:
                return _make((op(a[0], b[0]),), da, m)
            return _make((op(a[0] * db, b[0] * da),), da * db, m)
        if not any(b):
            return self
        if da == db:
            return _make(tuple(map(op, a, b)), da, m)
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
        if len(fracs) != euler_phi(root_order):
            raise ScalarError(f"Q(zeta_{root_order}) needs phi({root_order}) coefficients, "
                              f"got {len(fracs)}")
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
        return _make(_powers(m)[k % m], 1, m)

    # -- ring structure ----------------------------------------------------

    __add__ = _additive(add)
    __sub__ = _additive(sub)

    def __neg__(self):
        s = _new(CycloScalar)
        s.num, s.den, s.root_order = tuple(map(neg, self.num)), self.den, self.root_order
        return s

    def __mul__(self, other, plus=None):
        """self * other + plus, plus None read as zero: the product, and the
        step v + f * b of elimination and of sparse products.  When phi(m) <= 2
        it builds one scalar with at most one gcd, instead of a product and a
        sum that each normalise."""
        m = self.root_order
        if other.__class__ is not CycloScalar:
            other = CycloScalar.from_rational(other, m)
        if other.root_order != m or plus is not None and plus.root_order != m:
            raise ScalarError(f"mixed cyclotomic orders in {self!r} * {other!r} + {plus!r}")
        a, b = self.num, other.num
        den = self.den * other.den
        n = len(a)
        if n == 1:
            p = a[0] * b[0]
            if plus is not None:
                if plus.den == den:
                    p += plus.num[0]
                else:
                    p, den = p * plus.den + plus.num[0] * den, den * plus.den
            if den != 1:
                g = gcd(p, den)
                p, den = p // g, den // g
            s = _new(CycloScalar)
            s.num, s.den, s.root_order = (p,), den, m
            return s
        if n == 2:
            r0, r1 = _powers(m)[2]
            (a0, a1), (b0, b1) = a, b
            top = a1 * b1
            p, q = a0 * b0 + r0 * top, a0 * b1 + a1 * b0 + r1 * top
            if plus is not None:
                (x0, x1), xd = plus.num, plus.den
                if xd == den:
                    p, q = p + x0, q + x1
                else:
                    p, q, den = p * xd + x0 * den, q * xd + x1 * den, den * xd
            return _make((p, q), den, m)
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        out = prod[:n]
        for k, c in enumerate(prod[n:], n):
            if c:
                for t, r in enumerate(_powers(m)[k % m]):
                    out[t] += c * r
        out = _make(tuple(out), den, m)
        return out if plus is None else plus + out

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other, self.root_order) - self

    def inverse(self) -> "CycloScalar":
        """Field inverse: closed form for phi(m) <= 2, else conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        m, a, d = self.root_order, self.num, self.den
        if len(a) == 1:
            return _make((d if a[0] > 0 else -d,), abs(a[0]), m)
        if len(a) == 2:
            # (a0 + a1 z)^-1 = (a0 + r1 a1 - a1 z) / N with z^2 = r0 + r1 z and
            # the norm N = a0^2 + r1 a0 a1 - r0 a1^2, positive for m = 3, 4, 6
            r0, r1 = _powers(m)[2]
            a0, a1 = a
            norm = a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1
            return _make(((a0 + r1 * a1) * d, -a1 * d), norm, m)
        # a^-1 = conj / (a conj), conj the product of the conjugates sigma_k(a):
        # zeta -> zeta^k over the units k != 1 mod m; a conj, the norm, is rational
        roots, conj = _roots(m), CycloScalar.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = conj * sum((c * roots[i * k % m] for i, c in enumerate(self.coeffs) if c),
                                  CycloScalar.zero(m))
        norm = self * conj
        return conj * Fraction(norm.den, norm.num[0])

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

    def sort_key(self):
        return (self.root_order,) + tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycloScalar({format_scalar(self)!r}, m={self.root_order})"

    def __str__(self):
        return format_scalar(self)


_muladd = CycloScalar.__mul__  # _muladd(b, f, x) = b * f + x, with no wrapper call


@lru_cache(maxsize=None)
def _roots(m: int):
    """zeta_m^0 .. zeta_m^(m-1); scalars are immutable, so callers share them."""
    return tuple(CycloScalar.root_of_unity(m, k) for k in range(m))


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
    """The scalar of a literal, its coefficients read as integers over their lcm."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ScalarError(f"unterminated cyclotomic literal {text!r}")
        parts = [p.strip() for p in text[1:-1].split(";")]
        phi = euler_phi(m)
        if len(parts) != phi:
            raise ScalarError(
                f"cyclotomic literal {text!r} needs {phi} coefficients for m={m}, got {len(parts)}")
        for p in parts:
            if not _RATIONAL_RE.match(p):
                raise ScalarError(f"bad rational {p!r} in literal {text!r}")
    elif _RATIONAL_RE.match(text):
        parts = [text] + ["0"] * (euler_phi(m) - 1)
    else:
        raise ScalarError(f"bad scalar literal {text!r}")
    fracs = [(int(a), int(b or 1)) for a, _, b in (p.partition("/") for p in parts)]
    den = lcm(*(b for _, b in fracs))
    return _make(tuple([a * (den // b) for a, b in fracs]), den, m)


def format_scalar(s: CycloScalar) -> str:
    """Canonical literal; plain rationals serialize without brackets.  Each
    coefficient n/den prints as str(Fraction(n, den)) does, reduced by gcd."""
    den, num = s.den, s.num[:1] if s.is_rational() else s.num
    parts = [str(n // g) if (g := gcd(n, den)) == den else f"{n // g}/{den // g}"
             for n in num]
    return parts[0] if len(parts) == 1 else "[" + ";".join(parts) + "]"


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------

class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "orders")):
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_r}."""

    __slots__ = ()

    def __new__(cls, orders: tuple):
        if any(n < 1 for n in orders):
            raise GroupMismatchError(f"cyclic orders must be positive: {orders}")
        return super().__new__(cls, orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    def element(self, components) -> "GroupElement":
        if len(components) != self.rank:
            raise GroupMismatchError(
                f"element {components} has {len(components)} components, group rank is {self.rank}")
        return GroupElement(tuple(c % n for c, n in zip(components, self.orders)), self)

    def zero(self) -> "GroupElement":
        return GroupElement((0,) * self.rank, self)

    def elements(self):
        for comps in product(*(range(n) for n in self.orders)):
            yield GroupElement(comps, self)


class GroupElement(namedtuple("GroupElement", "components group")):
    __slots__ = ()

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise GroupMismatchError("elements of different groups")
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
    eps(g_i, g_j) = zeta_m^(E[i][j]), extended bimultiplicatively.  Both are
    checked at construction time: compatibility with the cyclic orders on
    every entry, and skewness on the generators, which by bilinearity is
    skewness on the whole group.  A non-skew matrix is refused with the
    failing pair of generators that the generator check finds, which is
    also the first failing pair of group elements in ``elements()`` order.
    """

    def __init__(self, group: FiniteAbelianGroup, exponent_matrix, root_order: int):
        if root_order < 1:
            raise BiCharacterError(f"root order must be >= 1, got {root_order}")
        self.group = group
        self.root_order = root_order
        E = [[int(e) % root_order for e in row] for row in exponent_matrix]
        if len(E) != group.rank or any(len(row) != group.rank for row in E):
            raise BiCharacterError(
                f"exponent matrix must be {group.rank}x{group.rank}")
        self.exponent_matrix = E
        self._validate()
        self.roots = _roots(root_order)  # zeta_m^0 .. zeta_m^(m-1)

    def _validate(self):
        m = self.root_order
        E = self.exponent_matrix
        r = self.group.rank
        # generator order consistency: n_j * E[i][j] == 0 (mod m), both slots
        for i in range(r):
            for j in range(r):
                for n in (self.group.orders[j], self.group.orders[i]):
                    if (n * E[i][j]) % m != 0:
                        raise BiCharacterError(
                            f"exponent E[{i}][{j}]={E[i][j]} incompatible with cyclic order "
                            f"{n} modulo {m}")
        # skewness eps(a,b) eps(b,a) = 1 holds on the group iff it holds on
        # the generators (bilinearity); the first failing pair of group
        # elements in elements() order is then (g_i, g_j), for i the last row
        # of E + E^T nonzero mod m and j the last nonzero column in that row
        failing = [(i, j) for i in range(r) for j in range(r) if (E[i][j] + E[j][i]) % m]
        if failing:
            a, b = (GroupElement(tuple(int(t == k) for t in range(r)), self.group)
                    for k in failing[-1])
            raise BiCharacterError(f"bi-character is not skew at ({a}, {b})")

    def exponent(self, a: GroupElement, b: GroupElement) -> int:
        """The k in 0..m-1 with eps(a, b) = zeta_m^k, so eps(a, b) is roots[k]."""
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
        return self.roots[self.exponent(a, b)]

    def sign_is_minus_one(self, a: GroupElement, b: GroupElement) -> bool:
        """True iff eps(a,b) = -1; only meaningful when values are +-1."""
        return self.exponent(a, b) * 2 == self.root_order


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
