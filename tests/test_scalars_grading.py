"""Cyclotomic scalars, groups, bi-characters, reorder signs."""
import random
import re
import time
import types
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from colorhomlie import scalars_grading
from colorhomlie.scalars_grading import (BiCharacter, BiCharacterError,
                                         CycloScalar, FiniteAbelianGroup,
                                         cyclo_reduce, cyclotomic_polynomial,
                                         euler_phi, format_scalar,
                                         parse_scalar, reorder_sign,
                                         ScalarError, sort_with_sign, _muladd)
from conftest import (FractionScalar, as_rational, format_fraction_scalar,
                      skew_failure_direct)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(12) == (Fraction(1), Fraction(0), Fraction(-1),
                                         Fraction(0), Fraction(1))


SYMPY_ORDERS = range(1, 37)
X = sympy.Symbol("x")


def sympy_phi(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X)


def test_cyclotomic_polynomials_match_sympy():
    for m in SYMPY_ORDERS:
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in sympy_phi(m).all_coeffs()[::-1])
        assert all(type(c) is int for c in cyclotomic_polynomial(m))


def test_euler_phi_matches_sympy_totient():
    for m in SYMPY_ORDERS:
        assert euler_phi(m) == sympy.totient(m), m


@pytest.mark.parametrize("make, args", [
    (euler_phi, (0,)), (CycloScalar.from_rational, (1, 0)), (CycloScalar.zero, (0,)),
    (CycloScalar.one, (-2,)), (CycloScalar, ([1], 0)), (parse_scalar, ("1", 0)),
    (parse_scalar, ("[1;2]", -1))], ids=lambda v: getattr(v, "__name__", None))
def test_every_scalar_entry_point_refuses_a_root_order_below_one(make, args):
    with pytest.raises(ScalarError, match="root order must be >= 1"):
        make(*args)


def test_roots_of_unity_are_the_remainders_of_x_to_the_k_mod_phi_m():
    # k runs past m, so the reduction k -> k mod m is checked too
    for m in SYMPY_ORDERS:
        phim, phi = sympy_phi(m), euler_phi(m)
        for k in range(2 * m):
            rem = [int(c) for c in sympy.Poly(X ** k, X).rem(phim).all_coeffs()[::-1]]
            z = CycloScalar.root_of_unity(m, k)
            assert z.num == tuple(rem + [0] * (phi - len(rem))) and z.den == 1, (m, k)


def test_reduce_zeta4_squared_is_minus_one():
    s = cyclo_reduce([0, 0, 1], 4)
    assert s.coeffs == (Fraction(-1), Fraction(0))


def test_reduce_m1_identity():
    s = cyclo_reduce([Fraction(2, 3)], 1)
    assert s.coeffs == (Fraction(2, 3),)


def test_reduce_phi3_kills_its_own_polynomial():
    # independent oracle: polynomial division of x^2+x+1 by Phi_3 leaves zero
    s = cyclo_reduce([1, 1, 1], 3)
    assert s.is_zero()


def test_inverse_rational():
    s = CycloScalar.from_rational(Fraction(2, 3))
    assert s.inverse().coeffs == (Fraction(3, 2),)


def test_inverse_one_plus_zeta4():
    s = CycloScalar.from_rational(1, 4) + CycloScalar.root_of_unity(4)
    inv = s.inverse()
    assert (s * inv - CycloScalar.one(4)).is_zero()
    # (1 - zeta4)/2
    assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 2))


def test_minus_one_self_inverse():
    s = CycloScalar.from_rational(-1, 2)
    assert s.inverse().coeffs == s.coeffs


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.zero(4).inverse()


def test_field_axioms_randomized():
    rng = random.Random(7)
    for m in (1, 2, 3, 4, 5, 8):
        phi = euler_phi(m)
        def rand():
            return CycloScalar(tuple(Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 3)) for _ in range(phi)), m)
        for _ in range(20):
            a, b, c = rand(), rand(), rand()
            assert ((a * b) * c - a * (b * c)).is_zero()
            assert (a * (b + c) - (a * b + a * c)).is_zero()
            if not a.is_zero():
                assert (a * a.inverse() - CycloScalar.one(m)).is_zero()


def test_powers():
    z8 = CycloScalar.root_of_unity(8)
    assert (z8 ** 8 - CycloScalar.one(8)).is_zero()
    assert (z8 ** -1 * z8 - CycloScalar.one(8)).is_zero()


def test_literals_round_trip():
    for text, m in (("2/3", 1), ("-5", 2), ("[1;-1/2]", 4), ("[0;0;1;0]", 5)):
        s = parse_scalar(text, m)
        assert format_scalar(s) == text or parse_scalar(format_scalar(s), m) == s


@pytest.mark.parametrize("text, m, coeffs", [
    ("+3", 2, ("3",)), ("-0", 2, ("0",)), ("4/2", 1, ("2",)), ("0/5", 3, ("0", "0")),
    (" 7 ", 3, ("7", "0")), ("[1/2;-3]", 3, ("1/2", "-3")), ("[ -4/6 ; +0/3 ]", 4, ("-4/6", "0")),
    ("[0/5;10/4;-3/9;0]", 5, ("0", "5/2", "-1/3", "0")), ("-12/8", 7, ("-3/2",) + ("0",) * 5)])
def test_integer_literal_parsing_gives_the_fraction_value(text, m, coeffs):
    # numerators and denominators read as ints give the scalar that the
    # Fraction-based constructor gives: reduced, with the same structure
    want = CycloScalar(tuple(Fraction(c) for c in coeffs), m)
    got = parse_scalar(text, m)
    assert got == want and (got.num, got.den) == (want.num, want.den)
    assert isinstance(got.num, tuple) and all(type(n) is int for n in got.num + (got.den,))
    if not text.strip().startswith("["):
        assert got == CycloScalar.from_rational(Fraction(text.strip()), m)


def test_bad_literal_messages_are_kept():
    for bad, m, message in (("1//2", 2, "bad scalar literal '1//2'"),
                            ("[1;2", 3, "unterminated cyclotomic literal '[1;2'"),
                            ("[1;2;3]", 3, "needs 2 coefficients for m=3, got 3"),
                            ("[1;x]", 3, "bad rational 'x' in literal '[1;x]'"),
                            ("[1;1/0]", 3, "bad rational '1/0' in literal '[1;1/0]'"),
                            ("1/-2", 2, "bad scalar literal '1/-2'")):
        with pytest.raises(ScalarError, match=re.escape(message)):
            parse_scalar(bad, m)


def test_bad_literal_rejected():
    from colorhomlie.scalars_grading import ScalarError
    for bad in ("1//2", "x", "[1;2]", "1/0"):
        with pytest.raises(ScalarError):
            parse_scalar(bad, 2)


def test_scalar_refuses_a_coefficient_tuple_of_the_wrong_length():
    """Each case once built a scalar that arithmetic then got wrong."""
    for coeffs, m in (((1, 2, 3), 3), ((5,), 3), ((), 3), ((1, 1), 1), ((), 0), ((1,), -2)):
        with pytest.raises(ScalarError):
            CycloScalar(coeffs, m)
    one = CycloScalar.one(3)
    assert CycloScalar((5, 0), 3) + one == CycloScalar.from_rational(6, 3)
    assert str(CycloScalar((1, 2), 3) * one) == "[1;2]"


# -- integer representation against the Fraction-tuple oracle -----------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)
COEFF = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def operand_pairs(draw, orders=ORDERS):
    """(m, x, y, ox, oy): two scalars of Q(zeta_m), m in orders, and their
    oracle copies, with mixed denominators and zero operands (whole or per
    coefficient)."""
    m = draw(st.sampled_from(orders))
    phi = euler_phi(m)
    vec = st.one_of(st.just((Fraction(0),) * phi), st.tuples(*[COEFF] * phi))
    a, b = draw(vec), draw(vec)
    return m, CycloScalar(a, m), CycloScalar(b, m), FractionScalar(a, m), FractionScalar(b, m)


def assert_matches(x, ox):
    """Same value as the oracle, stored reduced: den > 0, gcd(num, den) = 1."""
    assert x.root_order == ox.root_order
    assert x.coeffs == ox.coeffs
    assert len(x.num) == euler_phi(x.root_order)
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@PROPERTY
@given(operand_pairs())
def test_ring_operations_match_fraction_oracle(case):
    m, x, y, ox, oy = case
    assert_matches(x, ox)
    for got, want in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                      (-x, -ox), (y * x, oy * ox), (x + 3, ox + 3), (2 - x, 2 - ox),
                      (Fraction(-1, 4) * x, Fraction(-1, 4) * ox), (x ** 3, ox ** 3)):
        assert_matches(got, want)


MULADD_ORDERS = (1, 2, 3, 4, 5, 8)


@st.composite
def muladd_operands(draw):
    """(m, x, f, b): three scalars of Q(zeta_m), m in MULADD_ORDERS, with
    mixed denominators and zeros; x is -(f * b) about one time in four."""
    m = draw(st.sampled_from(MULADD_ORDERS))
    phi = euler_phi(m)
    vec = st.one_of(st.just((Fraction(0),) * phi), st.tuples(*[COEFF] * phi))
    x, f, b = (CycloScalar(draw(vec), m) for _ in range(3))
    return m, -(f * b) if draw(st.integers(0, 3)) == 0 else x, f, b


def _rationals(m, *values):
    return tuple(CycloScalar.from_rational(Fraction(v), m) for v in values)


@PROPERTY
@given(muladd_operands())
@example((2,) + _rationals(2, "1/3", "1/2", "5"))       # x.den differs from f.den * b.den
@example((1,) + _rationals(1, "-1/2", "2/3", "3/4"))    # cancels; 1/2 against the unreduced 12
def test_fused_multiply_add_matches_multiply_then_add(case):
    m, x, f, b = case
    for got, want in ((_muladd(b, f, x), x + f * b), (_muladd(b, f, None), f * b)):
        assert got == want
        assert len(got.num) == euler_phi(m) and got.den > 0 and gcd(got.den, *got.num) == 1
    if x == -(f * b):
        assert _muladd(b, f, x) == CycloScalar.zero(m)
    other = CycloScalar.one(2 if m != 2 else 3)
    for args in ((b, f, other), (b, other, x), (other, f, x), (other, f, None)):
        with pytest.raises(ScalarError):
            _muladd(*args)


@st.composite
def quadratic_muladd_operands(draw):
    """(m, x, f, b) at m = 3, 4, 6 (phi(m) = 2): x is None, zero, -(f * b)
    or drawn; f is a plain Fraction, a rational scalar or drawn; zeros and
    mixed denominators come with the draws."""
    m = draw(st.sampled_from((3, 4, 6)))
    vec = st.one_of(st.just((Fraction(0),) * 2), st.tuples(COEFF, COEFF))
    f, b = CycloScalar(draw(vec), m), CycloScalar(draw(vec), m)
    f = draw(st.sampled_from((f, f.coeffs[0], CycloScalar.from_rational(f.coeffs[0], m))))
    x = draw(st.sampled_from((None, CycloScalar.zero(m), -(f * b), CycloScalar(draw(vec), m))))
    return m, x, f, b


@PROPERTY
@given(quadratic_muladd_operands())
@example((3, None, Fraction(2, 3), CycloScalar((Fraction(3, 4), Fraction(-1, 2)), 3)))
@example((6, CycloScalar((Fraction(1, 2), Fraction(1, 3)), 6), CycloScalar((1, 1), 6),
          CycloScalar((Fraction(-1, 2), Fraction(-1, 3)), 6) * CycloScalar((1, 1), 6).inverse()))
def test_fused_step_at_phi_two_is_multiply_then_add(case):
    m, x, f, b = case
    fb = b * f if isinstance(f, Fraction) else f * b
    got, want = _muladd(b, f, x), fb if x is None else x + fb
    assert (got.num, got.den, got.root_order, hash(got)) == \
        (want.num, want.den, want.root_order, hash(want))
    if x is not None and (x + fb).is_zero():
        assert got.num == (0, 0) and got.den == 1
    for other in {3: (4, 6), 4: (3, 6), 6: (3, 4)}[m] + (2,):
        z = CycloScalar.root_of_unity(other)
        for args in ((b, f, z), (b, z, x), (z, f, x), (b, z, None)):
            if args[2] is None and isinstance(args[1], Fraction):
                continue  # a plain rational takes the order of b
            with pytest.raises(ScalarError):
                _muladd(*args)


@PROPERTY
@given(operand_pairs())
def test_inverse_matches_fraction_oracle(case):
    m, x, y, ox, oy = case
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert_matches(x.inverse(), ox.inverse())
    assert_matches(y / x, oy / ox)
    assert (x * x.inverse()) == CycloScalar.one(m)


# phi(m) = 6, 6, 8: the inverse by Galois conjugates beyond the phi <= 4 of ORDERS
LARGE_ORDERS = (7, 9, 15)


@settings(PROPERTY, max_examples=60)
@given(operand_pairs(LARGE_ORDERS))
def test_inverse_at_phi_six_and_eight_matches_fraction_oracle(case):
    m, x, y, ox, oy = case
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert_matches(x.inverse(), ox.inverse())
    assert x * x.inverse() == CycloScalar.one(m)


@PROPERTY
@given(operand_pairs())
def test_equality_hash_and_sort_key_are_structural(case):
    m, x, y, ox, oy = case
    assert (x == y) == (ox == oy)
    assert (x == x * CycloScalar.one(m)) and x == CycloScalar(ox.coeffs, m)
    assert hash(x) == hash(ox) and hash(y) == hash(oy)
    assert x.sort_key() == ox.sort_key()
    assert (x.sort_key() < y.sort_key()) == (ox.sort_key() < oy.sort_key())


@PROPERTY
@given(operand_pairs())
def test_literals_match_fraction_oracle_and_round_trip(case):
    m, x, y, ox, oy = case
    text = format_scalar(x)
    assert text == format_fraction_scalar(ox)
    assert parse_scalar(text, m) == x
    assert_matches(parse_scalar(text, m), ox)


def fraction_formula(s):
    """format_scalar as written on the coefficients as ``Fraction``s."""
    if s.is_rational():
        return str(s.coeffs[0])
    return "[" + ";".join(str(c) for c in s.coeffs) + "]"


@PROPERTY
@given(st.integers(1, 5), st.sampled_from((1, 2, 4, 6, 12, 30, 60)),
       st.lists(st.integers(-120, 120), min_size=4, max_size=4))
@example(3, 6, [3, 2, 0, 0])  # 1/2 and 1/3 over the shared 6
@example(5, 60, [30, -20, 15, 12])  # four coefficients that each reduce
def test_format_scalar_matches_the_fraction_formula(m, den, nums):
    s = CycloScalar([Fraction(n, den) for n in nums[:euler_phi(m)]], m)
    assert format_scalar(s) == fraction_formula(s)


def test_format_scalar_examples_reduce_below_the_shared_denominator():
    # the explicit examples above store a coefficient whose fraction reduces
    for m, den, nums in ((3, 6, [3, 2]), (5, 60, [30, -20, 15, 12])):
        s = CycloScalar([Fraction(n, den) for n in nums], m)
        assert s.den == den and any(gcd(n, s.den) > 1 for n in s.num)
        assert format_scalar(s) == fraction_formula(s)


def test_zero_and_one_are_shared_per_order():
    for m in ORDERS:
        assert CycloScalar.zero(m) is CycloScalar.zero(m)
        assert CycloScalar.one(m) is CycloScalar.one(m)
        assert_matches(CycloScalar.zero(m), FractionScalar.zero(m))
        assert_matches(CycloScalar.one(m), FractionScalar.one(m))


# perfbench/tracing.py counts scalar operations by reassigning these class
# attributes and keys its counters by the operand's ``root_order``; every
# public module function it wraps as a span.
TRACED_OPS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "inverse")
PUBLIC_FUNCTIONS = {"euler_phi", "cyclo_reduce", "parse_scalar", "format_scalar",
                    "sort_with_sign", "reorder_sign"}


def test_scalar_operations_can_be_wrapped_one_call_each():
    assert all(name in CycloScalar.__dict__ for name in TRACED_OPS)
    for name in ("from_rational", "root_of_unity"):
        assert isinstance(CycloScalar.__dict__[name], staticmethod)
    saved = {name: CycloScalar.__dict__[name] for name in TRACED_OPS}
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    x = CycloScalar.root_of_unity(3)
    y = x + CycloScalar.from_rational(2, 3)
    try:
        for name, fn in saved.items():
            setattr(CycloScalar, name, counting(name, fn))
        results = [x + y, 1 + x, x - y, -x, x * y, 2 * x, y.inverse()]
    finally:
        for name, fn in saved.items():
            setattr(CycloScalar, name, fn)
    # each operation is one call of its own attribute, routed through no other
    assert calls == Counter(TRACED_OPS)
    assert all(r.root_order == 3 for r in results)


def test_module_helpers_outside_the_public_api_are_private():
    public = {name for name, fn in vars(scalars_grading).items()
              if isinstance(fn, types.FunctionType) and not name.startswith("_")
              and fn.__module__ == scalars_grading.__name__}
    assert public == PUBLIC_FUNCTIONS


# -- groups and bi-characters -------------------------------------------------

def test_group_arithmetic():
    G = FiniteAbelianGroup((2, 3))
    a = G.element((1, 2))
    b = G.element((1, 2))
    assert (a + b).components == (0, 1)
    assert (-a).components == (1, 1)
    assert G.exponent == 6
    assert len(list(G.elements())) == 6


def test_bicharacter_dot_form_z2_cubed():
    G = FiniteAbelianGroup((2, 2, 2))
    eps = BiCharacter(G, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    a = G.element((1, 1, 0))
    b = G.element((1, 0, 1))
    assert as_rational(eps(a, b)) == -1
    assert as_rational(eps(a, G.zero())) == 1
    # exhaustive defining identities
    for x in G.elements():
        for y in G.elements():
            assert (eps(x, y) * eps(y, x) - CycloScalar.one(2)).is_zero()
            v = as_rational(eps(x, x))
            assert v in (1, -1)
            for z in G.elements():
                assert (eps(x, y + z) - eps(x, y) * eps(x, z)).is_zero()
                assert (eps(x + y, z) - eps(x, z) * eps(y, z)).is_zero()


def test_bicharacter_symplectic_z2_squared():
    G = FiniteAbelianGroup((2, 2))
    eps = BiCharacter(G, [[0, 1], [1, 0]], 2)
    a = G.element((1, 0))
    assert as_rational(eps(a, a)) == 1
    assert as_rational(eps(a, G.element((0, 1)))) == -1


def test_bicharacter_rejects_non_skew():
    G = FiniteAbelianGroup((4,))
    with pytest.raises(BiCharacterError):
        BiCharacter(G, [[1]], 4)  # eps(a,b)eps(b,a) = zeta4^2 != 1 at a=b=1


def test_bicharacter_rejects_order_mismatch():
    G = FiniteAbelianGroup((2,))
    with pytest.raises(BiCharacterError):
        BiCharacter(G, [[1]], 4)  # 2 * 1 != 0 mod 4


def test_bicharacter_refuses_a_root_order_below_one():
    G = FiniteAbelianGroup((2,))
    for m in (0, -2):
        with pytest.raises(BiCharacterError, match="root order must be >= 1"):
            BiCharacter(G, [[0]], m)


# ((2, 4, 4), 4) has failing rows at several generators, so the witness
# rule "last failing row, then last failing column" is met in full
@pytest.mark.parametrize("orders,m", [((2, 2, 2), 2), ((4,), 4), ((2, 6), 6), ((2, 4, 4), 4)])
def test_generator_skew_check_matches_the_exhaustive_oracle(orders, m):
    # entries are multiples of the step every cyclic order admits, so each
    # matrix passes the order check and only skewness decides
    rng, G = random.Random(11), FiniteAbelianGroup(orders)
    steps = [m // gcd(m, n) for n in orders]
    for _ in range(60):
        E = [[rng.randrange(0, m, lcm(si, sj)) for sj in steps] for si in steps]
        failure = skew_failure_direct(orders, E, m)
        if failure is None:
            BiCharacter(G, E, m)
            continue
        a, b = (G.element(c) for c in failure)
        with pytest.raises(BiCharacterError, match=re.escape(f"not skew at ({a}, {b})")):
            BiCharacter(G, E, m)


def test_a_non_skew_matrix_on_a_large_group_is_refused_at_once():
    # 40000 elements: an exhaustive search over pairs of them takes seconds
    G = FiniteAbelianGroup((200, 200))
    start = time.perf_counter()
    with pytest.raises(BiCharacterError, match=re.escape("not skew at ((1,0), (1,0))")):
        BiCharacter(G, [[1, 0], [0, 0]], 200)
    assert time.perf_counter() - start < 0.5


def test_z3_has_only_trivial_bicharacter():
    G = FiniteAbelianGroup((3,))
    eps = BiCharacter(G, [[0]], 3)
    for x in G.elements():
        for y in G.elements():
            assert as_rational(eps(x, y)) == 1
    with pytest.raises(BiCharacterError):
        BiCharacter(G, [[1]], 3)


# -- reorder signs -------------------------------------------------------------

def _z23_setup():
    G = FiniteAbelianGroup((2, 2, 2))
    eps = BiCharacter(G, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    degs = [G.element((1, 1, 0)), G.element((1, 0, 1)), G.element((0, 1, 1))]
    return G, eps, degs


# (cyclic orders, exponent matrix, m) of every grading the conftest builders
# use, then two whose values go beyond +-1
GRADINGS = [([2, 2], [[0, 1], [1, 0]], 2), ([2, 2, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2),
            ([3], [[0]], 3), ([2], [[1]], 2),
            ([3, 3], [[0, 1], [2, 0]], 3), ([4, 4], [[0, 1], [3, 0]], 4)]


@pytest.mark.parametrize("orders,exponents,m", GRADINGS)
def test_bicharacter_values_are_the_reduced_roots(orders, exponents, m):
    G = FiniteAbelianGroup(tuple(orders))
    eps = BiCharacter(G, exponents, m)
    for a in G.elements():
        for b in G.elements():
            assert eps(a, b) == CycloScalar.root_of_unity(m, eps.exponent(a, b))


def test_reorder_sign_identity():
    _, eps, degs = _z23_setup()
    assert as_rational(reorder_sign(degs, (0, 1, 2), eps)) == 1


def test_reorder_sign_single_swap():
    _, eps, degs = _z23_setup()
    # eps(a,b) = -1 here, so a single adjacent swap contributes -eps = +1
    assert as_rational(reorder_sign(degs[:2], (1, 0), eps)) == 1


def test_reorder_sign_three_cycle():
    _, eps, degs = _z23_setup()
    assert as_rational(reorder_sign(degs, (1, 2, 0), eps)) == 1


def test_reorder_sign_composition_property():
    rng = random.Random(3)
    G, eps, degs = _z23_setup()
    all_degs = list(G.elements())
    for _ in range(40):
        ds = [rng.choice(all_degs) for _ in range(4)]
        p = list(range(4))
        q = list(range(4))
        rng.shuffle(p)
        rng.shuffle(q)
        # composing reorders multiplies the signs
        pq = [p[q[i]] for i in range(4)]
        s_pq = reorder_sign(ds, pq, eps)
        s_p = reorder_sign(ds, p, eps)
        s_q = reorder_sign([ds[p[i]] for i in range(4)], q, eps)
        assert (s_pq - s_p * s_q).is_zero()


def test_sort_with_sign_decomposition_independent():
    rng = random.Random(11)
    G, eps, degs = _z23_setup()
    for _ in range(30):
        tup = tuple(rng.randint(0, 2) for _ in range(4))
        sorted_tup, sign = sort_with_sign(tup, degs, eps)
        assert sorted_tup == tuple(sorted(tup))
        # re-derive the sign through reorder_sign on an explicit permutation
        order = sorted(range(4), key=lambda i: (tup[i], i))
        perm_sign = reorder_sign([degs[i] for i in tup], order, eps)
        assert (sign - perm_sign).is_zero()


def _assert_frozen_slots(value, field):
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_group_and_element_value_semantics():
    """Groups and elements key dicts: equality, hash and immutability are
    those of a frozen record over their fields."""
    G, H = FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((2, 2))
    K = FiniteAbelianGroup((2, 3))
    assert G == H and G is not H and G != K and G != (2, 2)
    assert hash(G) == hash(H) == hash(((2, 2),))
    g, h = G.element((1, 0)), H.element((1, 0))
    assert g == h and g != G.element((0, 1)) and g != (1, 0)
    assert g != FiniteAbelianGroup((2, 4)).element((1, 0))  # same components
    assert hash(g) == hash(h) == hash(((1, 0), G))
    assert {g: "a"}[h] == "a" and len({g, h, G.element((1, 0))}) == 1
    _assert_frozen_slots(G, "orders")
    _assert_frozen_slots(g, "components")
    _assert_frozen_slots(g, "group")
    assert repr(g) == ("GroupElement(components=(1, 0), "
                       "group=FiniteAbelianGroup(orders=(2, 2)))")
    assert len(list(K.elements())) == 6
    assert (K.exponent, FiniteAbelianGroup((2, 4, 6)).exponent) == (6, 12)
    with pytest.raises(scalars_grading.GroupMismatchError):
        FiniteAbelianGroup((2, 0))


def test_element_refuses_a_degree_of_the_wrong_length():
    G = FiniteAbelianGroup((2, 2))
    for components in ((1, 0, 1), (1,), ()):
        with pytest.raises(scalars_grading.GroupMismatchError, match="group rank is 2"):
            G.element(components)
    assert G.element((3, 2)).components == (1, 0)


# -- refusals ------------------------------------------------------------------

def test_mixed_root_orders_are_refused_by_the_arithmetic():
    half, third = CycloScalar.one(2), CycloScalar.root_of_unity(3)
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ScalarError, match="^mixed cyclotomic orders 2 and 3$"):
            op(half, third)
    with pytest.raises(ScalarError, match=r"^mixed cyclotomic orders in .* \* .* \+ None$"):
        half * third
    with pytest.raises(ScalarError, match="^mixed cyclotomic orders in "):
        _muladd(half, half, third)


def test_group_elements_and_bi_characters_refuse_foreign_groups_and_shapes():
    from colorhomlie.scalars_grading import GroupMismatchError
    G, H = FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((3,))
    a, b = G.element((1, 0)), H.element((1,))
    with pytest.raises(GroupMismatchError, match="^elements of different groups$"):
        a + b
    with pytest.raises(BiCharacterError, match="^exponent matrix must be 2x2$"):
        BiCharacter(G, [[0, 1]], 2)
    with pytest.raises(BiCharacterError, match="^exponent matrix must be 2x2$"):
        BiCharacter(G, [[0, 1], [1]], 2)
    eps = BiCharacter(G, [[0, 1], [1, 0]], 2)
    for x, y in ((a, b), (b, a), (b, b)):
        with pytest.raises(GroupMismatchError,
                           match="^bi-character applied to foreign group elements$"):
            eps(x, y)


def test_reorder_sign_refuses_a_non_permutation():
    G = FiniteAbelianGroup((2,))
    eps = BiCharacter(G, [[1]], 2)
    degrees = [G.element((1,))] * 3
    for bad in ((0, 1), (0, 0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not a permutation of 0..2")):
            reorder_sign(degrees, bad, eps)
