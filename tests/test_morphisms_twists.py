"""Morphism verification, Yau twists, grid enumeration."""
import json
from itertools import product

import pytest

from colorhomlie import linalg, morphisms_twists
from colorhomlie.algebra_core import (BracketTable, ColorHomAlgebra, GradedBasis,
                                      StructureConstants, check_color_hom_lie)
from colorhomlie.fileio import parse_algebra_file, parse_commutative_algebra_file
from colorhomlie.morphisms_twists import (BudgetExceededError,
                                          NotAMorphismError, enumerate_morphisms,
                                          morphism_is_invertible, twist,
                                          verify_morphism)
from colorhomlie.scalars_grading import BiCharacter, CycloScalar, FiniteAbelianGroup
from conftest import (as_rational, build_algebra, data_path, endomorphism_failures_direct,
                      enumerate_morphisms_direct, heis_z3, heis_zeta3, mat_vec_direct,
                      motion_z2z3, sc, parse_matrix_bundle, sl2c_z2z2, sl2c_z2z2_untwisted,
                      sl2c_z2z3, zero_algebra)


def _mat(A, rows):
    return [[sc(v, A.m) for v in row] for row in rows]


def load_bundle(A):
    with open(data_path("sl2_morphism_bundle.json"), "r", encoding="utf-8") as fh:
        return parse_matrix_bundle(fh.read(), A.m)


def test_identity_is_a_morphism():
    for A in (sl2c_z2z2(), sl2c_z2z3(), motion_z2z3()):
        assert verify_morphism(A, A.alpha_sparse(0))


def test_diag_involution_is_morphism_of_graded_sl2():
    A = sl2c_z2z3()
    alpha1 = _mat(A, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert verify_morphism(A, linalg.sparse(alpha1))
    # it moves no graded component, so strict evenness also holds
    assert verify_morphism(A, linalg.sparse(alpha1), strict_even=True)


def test_swap_map_is_not_a_motion_morphism():
    A = motion_z2z3()
    f = _mat(A, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # oracle: [f e2, f e3] = [e1, e3] = e2 while f([e2, e3]) = f(0) = 0
    lhs = A.bracket.bilinear([sc(0), sc(1), sc(0)], [sc(0), sc(0), sc(1)])
    assert not all(c.is_zero() for c in
                   A.bracket.bilinear([sc(1), sc(0), sc(0)], [sc(0), sc(0), sc(1)]))
    assert not verify_morphism(A, linalg.sparse(f))


def test_twist_reproduces_the_z2z2_example():
    L = sl2c_z2z2_untwisted()
    alpha = _mat(L, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    T = twist(L, alpha)
    expected = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: -1}}
    for (i, j), want in expected.items():
        got = T.bracket.of_basis(i, j)
        for k in range(3):
            assert as_rational(got[k]) == want.get(k, 0)
    assert T.alpha == alpha
    report = check_color_hom_lie(T)
    assert report.all_ok


def test_twist_by_identity_is_unchanged():
    A = sl2c_z2z3()
    T = twist(A, A.alpha_sparse(0))
    assert T.bracket.equals(A.bracket)
    assert T.alpha == A.alpha


def test_a_twist_by_a_beta_that_does_not_commute_with_alpha_keeps_beta_alpha():
    # e1 <-> e2, e3 -> -e3 is a bracket automorphism of heis_z3 and
    # beta alpha != alpha beta; the Yau twist's map is beta alpha, and its
    # Hom-Jacobi sum is beta^2 applied to the base's, so the axioms still hold
    H = heis_z3()
    beta = _mat(H, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert linalg.mat_mul(beta, H.alpha) != linalg.mat_mul(H.alpha, beta)
    T = twist(H, beta)
    assert T.alpha == linalg.mat_mul(beta, H.alpha)
    assert check_color_hom_lie(T).is_color_hom_lie


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
    invertible = [f for f, _ in found if morphism_is_invertible(A, linalg.sparse(f))]
    assert len(invertible) == 24
    bundle = load_bundle(A)
    found_keys = {tuple(tuple(str(c) for c in row) for row in f)
                  for f, _ in found}
    for name, M in bundle.items():
        key = tuple(tuple(str(c) for c in row) for row in M)
        assert key in found_keys, name
    # the only extra is the zero map
    extras = [f for f, _ in found if not morphism_is_invertible(A, linalg.sparse(f))]
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
                lhs = mat_vec_direct(f, A.bracket.of_basis(i, j))
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
            assert verify_morphism(A, linalg.sparse(linalg.mat_mul(f, g)))


def test_strict_even_filters_component_movers():
    A = sl2c_z2z3()
    relaxed = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)])
    strict = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)], strict_even=True)
    assert len(strict) < len(relaxed)
    for f, even in strict:
        assert even and verify_morphism(A, linalg.sparse(f), strict_even=True)
    # the endomorphisms that move a component are refused by strict_even alone
    movers = [f for f, even in relaxed if not even]
    assert len(movers) == len(relaxed) - len(strict) == 20
    for f in movers:
        f = linalg.sparse(f)
        assert verify_morphism(A, f) and not verify_morphism(A, f, strict_even=True)


def test_enumeration_is_deterministic_and_lexicographic():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    run1 = enumerate_morphisms(A, [sc(1), sc(0)])
    run2 = enumerate_morphisms(A, [sc(0), sc(1)])
    key1 = [tuple(str(c) for row in f for c in row) for f, _ in run1]
    key2 = [tuple(str(c) for row in f for c in row) for f, _ in run2]
    assert key1 == key2  # entry order normalized by the canonical scalar key


def _entries(values, m):
    return [sc(v, m) for v in values]


def _shipped(name):
    return parse_algebra_file(data_path(f"{name}.alg"))


GRADED = ("sl2c_z2z2", "sl2c_z2z3", "motion_z2z3")
ZERO_BRACKET = ("qwitt_trunc_q2", "qwitt_trunc_zeta3")  # product files: [.,.] = 0


@pytest.mark.parametrize("strict_even", [False, True])
@pytest.mark.parametrize("values", [(-1, 0, 1), (0, 1)])
@pytest.mark.parametrize("name", GRADED)
def test_column_search_matches_the_full_product(name, values, strict_even):
    A = _shipped(name)
    entries = _entries(values, A.m)
    assert (enumerate_morphisms(A, entries, strict_even=strict_even)
            == enumerate_morphisms_direct(A, entries, strict_even=strict_even))


@pytest.mark.parametrize("strict_even", [False, True])
@pytest.mark.parametrize("name", ZERO_BRACKET)
def test_column_search_matches_the_full_product_on_zero_brackets(name, strict_even):
    # every pair is checked at column max(i, j), before the last column
    A = _shipped(name)
    entries = _entries((0, 1), A.m)
    found = enumerate_morphisms(A, entries, strict_even=strict_even)
    assert found == enumerate_morphisms_direct(A, entries, strict_even=strict_even)
    assert len(found) == 2 ** 9


def test_column_search_matches_the_full_product_on_the_whole_zero_bracket_grid():
    A = _shipped("qwitt_trunc_q2")
    entries = _entries((-1, 0, 1), A.m)
    found = enumerate_morphisms(A, entries)
    assert len(found) == 3 ** 9
    assert found == enumerate_morphisms_direct(A, entries)


def _early_pairs():
    """[e1, e2] = e1 is checked once columns 1 and 2 are fixed, before the third."""
    return build_algebra([2], [[1]], 2, ["e1", "e2", "e3"], [(0,), (0,), (1,)],
                         {(0, 1): [1, 0, 0], (1, 2): [0, 0, 1]},
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="early_pairs")


def _odd_square():
    """[e1, e1] = e1 on an odd e1 (not graded, but a legal value): the pair
    (e1, e1) prunes the candidates for the image of e1 with a nonzero bracket."""
    return build_algebra([2], [[1]], 2, ["e1", "e2"], [(1,), (0,)],
                         {(0, 0): [1, 0]}, [[1, 0], [0, 1]], name="odd_square")


@pytest.mark.parametrize("strict_even", [False, True])
@pytest.mark.parametrize("make, values", [
    (lambda: zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1), (1, 1)]), (0, 1)),
    (_early_pairs, (0, 1)),
    (_odd_square, (-1, 0, 1)),
    (heis_zeta3, (0, 1)),
    (sl2c_z2z2_untwisted, (-1, 0, 1)),
])
def test_column_search_matches_the_full_product_on_other_tables(make, values,
                                                                strict_even):
    A = make()
    entries = _entries(values, A.m)
    found = enumerate_morphisms(A, entries, strict_even=strict_even)
    assert found == enumerate_morphisms_direct(A, entries, strict_even=strict_even)
    assert found


def _one_row(m, row, degrees=((0,), (0,), (0,))):
    """[e1, e2] = row on e1, e2, e3 over Z2 with the trivial bi-character: the
    pair (e1, e2) fixes the image of e3 once the first two are chosen."""
    G = FiniteAbelianGroup((2,))
    eps = BiCharacter(G, [[0]], m)
    basis = GradedBasis(("e1", "e2", "e3"), tuple(G.element(d) for d in degrees), G)
    zero = CycloScalar.zero(m)
    table = BracketTable(basis, eps, {(0, 1): [c if c else zero for c in row]}, m)
    return ColorHomAlgebra(basis, eps, table, {i: {i: CycloScalar.one(m)} for i in range(3)}, m,
                           name="one_row")


_ZETA = CycloScalar.root_of_unity(3)


@pytest.mark.parametrize("strict_even", [False, True])
@pytest.mark.parametrize("make", [
    # f e1 = e2, f e2 = e1 gives f e3 = -e3, not a grid column: the branch ends
    lambda: _one_row(2, [0, 0, sc(1)]),
    lambda: _one_row(2, [0, 0, sc(2)]),
    lambda: _one_row(3, [0, 0, _ZETA]),
    lambda: _one_row(2, [sc(1), sc(-1), sc(2)]),
    # e3 odd: f e1 = f e2 = e1 gives the grid column f e3 = e1, not even
    lambda: _one_row(2, [sc(-1), 0, sc(1)], ((0,), (0,), (1,))),
], ids=["outside-grid", "leading-2", "leading-zeta", "multi-term", "odd-target"])
def test_computed_columns_match_the_full_product(monkeypatch, make, strict_even):
    # a computed column is kept only if it is one of column d's candidates,
    # so every completed matrix is an endomorphism with no verify_morphism call
    A = make()
    entries = _entries((0, 1), A.m)
    verified, verify = [], morphisms_twists.verify_morphism
    monkeypatch.setattr(morphisms_twists, "verify_morphism",
                        lambda *args, **kwargs: verified.append(1) or verify(*args, **kwargs))
    found = enumerate_morphisms(A, entries, strict_even=strict_even)
    assert found == enumerate_morphisms_direct(A, entries, strict_even=strict_even)
    assert found and verified == []


def test_repeated_entries_count_once():
    A = sl2c_z2z2()
    distinct = enumerate_morphisms(A, [sc(0), sc(1)])
    assert len(distinct) == 3
    # 1 and 2/2 are one value: the grid and the budget count two entries
    assert enumerate_morphisms(A, [sc(0), sc(1), sc(1)], budget=2 ** 9) == distinct
    assert enumerate_morphisms(A, [sc(1), sc(2) * sc("1/2"), sc(0)]) == distinct
    with pytest.raises(BudgetExceededError, match="2\\^9"):
        enumerate_morphisms(A, [sc(0), sc(1), sc(1)], budget=2 ** 9 - 1)


def test_column_search_evaluates_each_column_bracket_once(monkeypatch):
    # counts, not time: evaluating brackets per candidate matrix, or verifying
    # each of the 7^3 candidates left by the [v, v] = 0 pruning, breaks these
    A = sl2c_z2z3()
    calls = {"bilinear": 0, "verify": 0}
    bilinear, verify = StructureConstants.bilinear, morphisms_twists.verify_morphism

    def counted_bilinear(self, u, v):
        calls["bilinear"] += 1
        return bilinear(self, u, v)

    def counted_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(StructureConstants, "bilinear", counted_bilinear)
    monkeypatch.setattr(morphisms_twists, "verify_morphism", counted_verify)
    found = enumerate_morphisms(A, [sc(-1), sc(0), sc(1)])
    columns = 3 ** A.dim
    pruning = columns  # [v, v] for every column, once per column index at most
    assert calls["bilinear"] <= columns * columns + pruning
    assert calls["verify"] == 0 and len(found) == 25


def test_endomorphism_failures_match_the_dense_pair_loop():
    tables = [(A.bracket, A.alpha) for A in map(_shipped, GRADED)]
    tables += [(A.bracket, A.alpha) for A in (heis_zeta3(), sl2c_z2z2_untwisted())]
    for name in ZERO_BRACKET:  # the products, with the README's hls sigma and a non-morphism
        mu = parse_commutative_algebra_file(data_path(f"{name}.alg")).mu
        tables += [(mu, [[sc(v, mu.m) for v in row] for row in rows])
                   for rows in ([[1, 0, 0], [0, 2, 0], [0, 0, 4]],
                                [[1, 0, 0], [0, 2, 0], [0, 0, 3]])]
    failing = 0
    for table, matrix in tables:
        got = list(table.endomorphism_failures(linalg.sparse(matrix)))
        assert got == endomorphism_failures_direct(table, matrix)
        failing += bool(got)
    assert failing


@pytest.mark.parametrize("name, values", [("sl2c_z2z3", (-1, 0, 1)),
                                          ("qwitt_trunc_zeta3", (0, 1))])
def test_endomorphism_failures_match_the_dense_pair_loop_on_the_grid(name, values):
    # most grid matrices are not morphisms: the failing pairs and their order
    # are compared, not just the verdict
    if name in ZERO_BRACKET:
        table = parse_commutative_algebra_file(data_path(f"{name}.alg")).mu
    else:
        table = _shipped(name).bracket
    entries = _entries(values, table.m)
    failing = 0
    for cells in product(entries, repeat=table.dim ** 2):
        matrix = [list(cells[r * table.dim:(r + 1) * table.dim]) for r in range(table.dim)]
        got = list(table.endomorphism_failures(linalg.sparse(matrix)))
        assert got == endomorphism_failures_direct(table, matrix)
        failing += bool(got)
    assert failing > len(entries) ** (table.dim ** 2) // 2
