"""Morphism verification, Yau twists, grid enumeration."""
import json

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import check_color_hom_lie
from colorhomlie.fileio import parse_matrix_bundle
from colorhomlie.morphisms_twists import (BudgetExceededError,
                                          NotAMorphismError, enumerate_morphisms,
                                          morphism_is_invertible, twist,
                                          verify_morphism)
from conftest import (data_path, motion_z2z3, sc, sl2c_z2z2,
                      sl2c_z2z2_untwisted, sl2c_z2z3, zero_algebra)


def _mat(A, rows):
    return [[sc(v, A.m) for v in row] for row in rows]


def load_bundle(A):
    with open(data_path("sl2_morphism_bundle.json"), "r", encoding="utf-8") as fh:
        return parse_matrix_bundle(fh.read(), A.m)


def test_identity_is_a_morphism():
    for A in (sl2c_z2z2(), sl2c_z2z3(), motion_z2z3()):
        assert verify_morphism(A, linalg.identity(A.dim, A.m))


def test_diag_involution_is_morphism_of_graded_sl2():
    A = sl2c_z2z3()
    alpha1 = _mat(A, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert verify_morphism(A, alpha1)
    # it moves no graded component, so strict evenness also holds
    assert verify_morphism(A, alpha1, strict_even=True)


def test_swap_map_is_not_a_motion_morphism():
    A = motion_z2z3()
    f = _mat(A, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # oracle: [f e2, f e3] = [e1, e3] = e2 while f([e2, e3]) = f(0) = 0
    lhs = A.bracket.bilinear([sc(0), sc(1), sc(0)], [sc(0), sc(0), sc(1)])
    assert not all(c.is_zero() for c in
                   A.bracket.bilinear([sc(1), sc(0), sc(0)], [sc(0), sc(0), sc(1)]))
    assert not verify_morphism(A, f)


def test_twist_reproduces_the_z2z2_example():
    L = sl2c_z2z2_untwisted()
    alpha = _mat(L, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    T = twist(L, alpha)
    expected = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: -1}}
    for (i, j), want in expected.items():
        got = T.bracket.of_basis(i, j)
        for k in range(3):
            assert got[k].as_rational() == want.get(k, 0)
    assert linalg.mat_eq(T.alpha, alpha)
    report = check_color_hom_lie(T)
    assert report.all_ok


def test_twist_by_identity_is_unchanged():
    A = sl2c_z2z3()
    T = twist(A, linalg.identity(3, A.m))
    assert T.bracket.equals(A.bracket)
    assert linalg.mat_eq(T.alpha, A.alpha)


def test_twist_requires_morphism():
    A = motion_z2z3()
    f = _mat(A, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotAMorphismError):
        twist(A, f)


def test_enumeration_zero_bracket_dim1():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0)])
    found = enumerate_morphisms(A, [sc(0), sc(1)])
    assert len(found) == 2  # the zero map and the identity


def test_enumeration_budget_guard():
    A = sl2c_z2z3()
    with pytest.raises(BudgetExceededError):
        enumerate_morphisms(A, [sc(-1), sc(0), sc(1)], budget=100)


def test_enumeration_finds_the_24_plus_zero(sl2_morphisms=None):
    A = sl2c_z2z3()
    found = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)])
    assert len(found) == 25
    invertible = [f for f, _ in found if morphism_is_invertible(f)]
    assert len(invertible) == 24
    bundle = load_bundle(A)
    found_keys = {tuple(tuple(str(c) for c in row) for row in f)
                  for f, _ in found}
    for name, M in bundle.items():
        key = tuple(tuple(str(c) for c in row) for row in M)
        assert key in found_keys, name
    # the only extra is the zero map
    extras = [f for f, _ in found if not morphism_is_invertible(f)]
    assert len(extras) == 1
    assert all(c.is_zero() for row in extras[0] for c in row)


def test_enumerated_morphisms_recheck_independently():
    # independent filter oracle: direct bilinear comparison on all pairs
    A = motion_z2z3()
    found = enumerate_morphisms(A, [sc(0), sc(1)])
    assert found
    for f, _ in found:
        cols = [[f[i][j] for i in range(3)] for j in range(3)]
        for i in range(3):
            for j in range(3):
                lhs = linalg.mat_vec(f, A.bracket.of_basis(i, j))
                rhs = A.bracket.bilinear(cols[i], cols[j])
                assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
        # every morphism annihilates the written relation [e2, e3] = 0
        img = A.bracket.bilinear(cols[1], cols[2])
        assert all(c.is_zero() for c in img)


def test_twists_of_enumerated_morphisms_satisfy_the_hom_axioms():
    A = sl2c_z2z3()
    for f, _ in enumerate_morphisms(A, [sc(-1), sc(0), sc(1)]):
        T = twist(A, f)
        report = check_color_hom_lie(T)
        assert report.is_color_hom_lie
        assert report.multiplicative.ok


def test_composition_closure_of_enumerated_morphisms():
    A = sl2c_z2z3()
    found = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)])
    mats = [f for f, _ in found]
    for f in mats[:6]:
        for g in mats[:6]:
            assert verify_morphism(A, linalg.mat_mul(f, g))


def test_strict_even_filters_component_movers():
    A = sl2c_z2z3()
    relaxed = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)])
    strict = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)], strict_even=True)
    assert len(strict) < len(relaxed)
    for f, even in strict:
        assert even and verify_morphism(A, f, strict_even=True)


def test_enumeration_is_deterministic_and_lexicographic():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    run1 = enumerate_morphisms(A, [sc(1), sc(0)])
    run2 = enumerate_morphisms(A, [sc(0), sc(1)])
    key1 = [tuple(str(c) for row in f for c in row) for f, _ in run1]
    key2 = [tuple(str(c) for row in f for c in row) for f, _ in run2]
    assert key1 == key2  # entry order normalized by the canonical scalar key
