"""Cochain spaces, coboundaries, square-zero, quotient groups.

The arity-1 and arity-2 coboundaries have hand-written operator forms
(``delta1_direct`` and ``delta2_direct`` in conftest); the tests use those as
independent oracles against the general-arity assembly.  The sparse operators
behind ``delta_matrix`` and ``cochain_basis`` are checked entry for entry
against the multilinear evaluation path (``coboundary_of_coords`` and
``compat_rows_direct``), and the per-(A, R) cochain complex they read from is
compared with a fresh one result for result.
"""
import gc
import random
import sys
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from colorhomlie import cohomology, linalg
from colorhomlie.algebra_core import AlgebraStructureError, ColorHomAlgebra, check_color_hom_lie
from colorhomlie.cohomology import (Cochain, CochainError, CochainSpace, canonical_tuples,
                                    cochain_basis, coboundary_of_coords,
                                    cohomology_group, delta_matrix, reverify)
from colorhomlie.morphisms_twists import enumerate_morphisms, twist
from colorhomlie.representations import (Representation, adjoint, alpha_s_adjoint,
                                         check_module, check_representation)
from colorhomlie.scalars_grading import CycloScalar, FiniteAbelianGroup, GroupMismatchError

from conftest import (SL2C_Z2Z2_CASE_FAMILIES, as_rational, assert_rref, assert_zero_free,
                      basis_vector, build_algebra, clock3, clock3_twisted, clock_shift,
                      compat_rows_direct, coord_index, delta1_direct,
                      delta2_direct, densify, direct_sum, heis_zeta, heis_zeta3, in_span,
                      kernel_basis, mat_scale, mat_vec_direct, motion_z2z3,
                      random_multiplicative_algebra, rref_direct, sc, semidirect, sl2c_z2z2,
                      sl2c_z2z3, sparse_vector, zero_algebra, zeros)


def gamma_elems(A):
    G = A.basis.group
    return {"0": G.zero(), "g1": G.element((1, 0)), "g2": G.element((0, 1)),
            "g3": G.element((1, 1))}


# -- canonical tuples ------------------------------------------------------------

def test_canonical_tuple_count_all_plus_one_diagonal():
    A = sl2c_z2z2()
    assert canonical_tuples(A, 0) == [()]
    assert canonical_tuples(A, 1) == [(0,), (1,), (2,)]
    assert canonical_tuples(A, 2) == [(0, 1), (0, 2), (1, 2)]
    assert len(canonical_tuples(A, 3)) == 1  # only (0,1,2)


def test_canonical_tuples_with_minus_one_diagonal():
    # Z2 grading with eps(1,1) = -1: repeated odd indices are admitted
    A = build_algebra([2], [[1]], 2, ["b", "f"], [(0,), (1,)], {},
                      [[1, 0], [0, 1]])
    tup2 = canonical_tuples(A, 2)
    assert (1, 1) in tup2 and (0, 0) not in tup2
    assert tup2 == [(0, 1), (1, 1)]
    # combinatorial count oracle at arity 2 for mixed signs:
    # strictly increasing pairs + repeats on the minus-one degrees
    assert len(tup2) == 1 + 1


@pytest.mark.parametrize("A, repeats", [
    (sl2c_z2z2(), False), (zero_algebra([2], [[1]], 2, [(1,), (0,), (1,)]), True),
], ids=["sl2c_z2z2", "odd_repeats"])
def test_a_canonical_tuple_less_one_entry_is_canonical(A, repeats):
    # delta's action terms read f(x_0, ..., ^x_s, ..., x_n) at this position
    # directly, with no sort and no sign
    cx = cohomology._complex(A, adjoint(A))
    for n in range(4):
        positions = cx.arity(n)[1]
        for tup in cx.arity(n + 1)[0]:
            for s in range(n + 1):
                assert tup[:s] + tup[s + 1:] in positions, (n, tup, s)
    assert any(len(set(tup)) < len(tup) for tup in cx.arity(4)[0]) == repeats


def test_full_skew_space_dimension_count_oracle():
    # zero action, identity twists: the compatible space is the whole skew space
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1), (1, 1)])
    zero = zeros(3, 3, A.m)
    R = Representation(A.basis, [zero] * 3, A.alpha_sparse(0), A.m)
    space = cochain_basis(A, R, 2, A.basis.group.zero())
    # oracle: pairs i<j (eps(a,a)=+1 everywhere) times carrier dimension
    assert space.free_dim == 3 * 3
    assert space.compat_dim == space.free_dim


def test_cochain_evaluation_is_skew():
    A = sl2c_z2z2()
    R = adjoint(A)
    rng = random.Random(2)
    space = cochain_basis(A, R, 2, gamma_elems(A)["g1"])
    coords = sparse_vector([sc(rng.randint(-3, 3), A.m) for _ in range(space.free_dim)])
    for i in range(3):
        for j in range(3):
            val = space.evaluate_basis(coords, (i, j))
            if i == j:
                assert val == {}
                continue
            swapped = space.evaluate_basis(coords, (j, i))
            e = A.eps(A.degree(i), A.degree(j))
            assert val == {k: -e * c for k, c in swapped.items()}


def test_n0_compatible_part_is_fixed_space():
    A = sl2c_z2z2()
    R = adjoint(A)
    space = cochain_basis(A, R, 0, A.basis.group.zero())
    assert space.free_dim == 3
    # fixed points of alpha = diag(-1,-1,1) form the e3 line
    assert space.compat_dim == 1
    assert not densify(space, space.compat_basis)[0][2].is_zero()


# -- coboundary values -----------------------------------------------------------

def test_coboundary_of_zero_is_zero():
    A = sl2c_z2z2()
    R = adjoint(A)
    for gname, gamma in gamma_elems(A).items():
        space = cochain_basis(A, R, 1, gamma)
        img, _ = coboundary_of_coords(A, R, space, [sc(0, A.m)] * space.free_dim, 0)
        assert all(c.is_zero() for c in img)


def test_delta1_matches_direct_operator_form():
    A = sl2c_z2z2()
    R = adjoint(A)
    rng = random.Random(13)
    for gname, gamma in gamma_elems(A).items():
        for r in (0, 1, 2):
            space = cochain_basis(A, R, 1, gamma)
            fmat = [[sc(rng.randint(-2, 2), A.m) for _ in range(3)] for _ in range(3)]
            coords = [sc(0, A.m)] * space.free_dim
            for t, tup in enumerate(space.tuples):
                for k in range(3):
                    coords[t * 3 + k] = fmat[k][tup[0]]
            img, target = coboundary_of_coords(A, R, space, coords, r)
            oracle = delta1_direct(A, R, fmat, gamma, r)
            tgt_space = target
            for (x, y), want in oracle.items():
                got = tgt_space.evaluate_basis(sparse_vector(img), (x, y))
                assert got == sparse_vector(want), (gname, r, x, y)


def test_single_entry_1cochain_example():
    # f(e2) = e3, others 0, degree label g1, r = 0
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = gamma_elems(A)["g1"]
    space = cochain_basis(A, R, 1, gamma)
    coords = [sc(0, A.m)] * space.free_dim
    coords[coord_index(space, (1,), 2)] = sc(1, A.m)
    img, target = coboundary_of_coords(A, R, space, coords, 0)
    fmat = zeros(3, 3, A.m)
    fmat[2][1] = sc(1, A.m)
    oracle = delta1_direct(A, R, fmat, gamma, 0)
    got = target.evaluate_basis(sparse_vector(img), (0, 1))
    assert got == sparse_vector(oracle[(0, 1)])
    # the independently evaluated operator form fixes the e3 coefficient
    assert linalg.dense([got], 3, A.m)[0][2] == oracle[(0, 1)][2]


def test_delta2_matches_direct_operator_form():
    A = sl2c_z2z2()
    R = adjoint(A)
    rng = random.Random(17)
    for gname, gamma in gamma_elems(A).items():
        space = cochain_basis(A, R, 2, gamma)
        coords = [sc(rng.randint(-2, 2), A.m) for _ in range(space.free_dim)]
        psi = {tup: [coords[t * 3 + k] for k in range(3)]
               for t, tup in enumerate(space.tuples)}
        img, target = coboundary_of_coords(A, R, space, coords, 0)
        oracle = delta2_direct(A, R, psi, gamma, 0)
        for (x, y, z), want in oracle.items():
            got = target.evaluate_basis(sparse_vector(img), (x, y, z))
            assert got == sparse_vector(want), (gname, x, y, z)


def test_coboundary_preserves_compatibility():
    # delta f o alpha^(n+1) = beta o delta f for compatible f
    A = sl2c_z2z2()
    R = adjoint(A)
    for n in (1, 2):
        for gname, gamma in gamma_elems(A).items():
            space = cochain_basis(A, R, n, gamma)
            for v in space.compat_basis:
                img, target = coboundary_of_coords(A, R, space, v, 0)
                img = sparse_vector(img)
                alpha_img = [sparse_vector(mat_vec_direct(A.alpha, basis_vector(A, i)))
                             for i in range(3)]
                for combo in product(range(3), repeat=n + 1):
                    lhs = target.evaluate(img, [alpha_img[i] for i in combo])
                    value = linalg.dense([target.evaluate_basis(img, combo)], R.dim, A.m)[0]
                    assert lhs == sparse_vector(mat_vec_direct(R.beta, value))


def test_square_zero_on_compatible_domain():
    A = sl2c_z2z2()
    R = adjoint(A)
    for r in (0, 1, 2):
        for gname, gamma in gamma_elems(A).items():
            space1 = cochain_basis(A, R, 1, gamma)
            for v in space1.compat_basis:
                img, target = coboundary_of_coords(A, R, space1, v, r)
                img2, _ = coboundary_of_coords(A, R, target, img, r)
                assert all(c.is_zero() for c in img2), (r, gname)


def test_square_zero_randomized_algebras(rng):
    for _ in range(12):
        A = random_multiplicative_algebra(rng)
        R = adjoint(A)
        for r in (0, 1, 2):
            for gamma in A.basis.group.elements():
                space1 = cochain_basis(A, R, 1, gamma)
                for v in space1.compat_basis:
                    img, target = coboundary_of_coords(A, R, space1, v, r)
                    img2, _ = coboundary_of_coords(A, R, target, img, r)
                    assert all(c.is_zero() for c in img2)


# -- sparse assembly against the multilinear oracles -------------------------------

def _oracle_cases():
    """20 seeded random algebras with their adjoint module, then the worked
    Z2xZ2 example with the adjoint and the inverse-twist adjoint."""
    rng = random.Random(20261017)
    cases = []
    for _ in range(20):
        A = random_multiplicative_algebra(rng)
        cases.append((A, adjoint(A)))
    A = sl2c_z2z2()
    cases.append((A, adjoint(A)))
    cases.append((A, alpha_s_adjoint(A, -1)))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_sparse_operators_match_multilinear_oracles(case):
    A, R = ORACLE_CASES[case]
    one = CycloScalar.one(A.m)
    for n in range(4 if A.dim <= 3 else 3):
        oracle = None
        for gamma in A.basis.group.elements():
            space = cochain_basis(A, R, n, gamma)
            if oracle is None:
                rows = compat_rows_direct(A, R, n, space.tuples)
                oracle = kernel_basis(rows, space.free_dim, A.m)
            assert densify(space, space.compat_basis) == oracle, (A.name, n)
            assert_rref(space.compat_basis)
            for r in (0, 1):
                columns, _ = delta_matrix(A, R, n, r, gamma, domain="free")
                assert len(columns) == space.free_dim
                for ci, column in enumerate(columns):
                    unit = [CycloScalar.zero(A.m)] * space.free_dim
                    unit[ci] = one
                    image, _ = coboundary_of_coords(A, R, space, unit, r)
                    assert column == image, (A.name, n, r, gamma.components, ci)


def test_oracle_cases_cover_the_edge_shapes():
    kinds = {A.name for A, _ in ORACLE_CASES}
    # eps(a,a) = -1 repeats, m = 3 scalars, and the twisted Z2^3 bracket
    assert {"super_z2_rescaled", "heis_z3_rescaled", "sl2_twisted_rescaled"} <= kinds
    assert any(A.m == 3 and A.dim == 3 for A, _ in ORACLE_CASES)


def _twist_cases():
    """(algebra, whether alpha keeps every degree): a generated algebra (its
    twist is diagonal), the square of sl2c_z2z2 with alpha e_(i+3) =
    e_i + e_(i+3) (off the diagonal, degrees kept), and the sl2c_z2z2 bracket
    under a twist that mixes degrees."""
    A = random_multiplicative_algebra(random.Random(20261018))
    S = direct_sum(sl2c_z2z2(), sl2c_z2z2(), "sl2c_z2z2^2")
    shear = [[sc(int(i == j or j == i + 3), S.m) for j in range(6)] for i in range(6)]
    sheared = ColorHomAlgebra(S.basis, S.eps, S.bracket, shear, S.m, name="sheared")
    mixed = build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"], [(1, 0), (0, 1), (1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
        [[1, 2, 0], [0, 1, -1], [1, 0, 3]], name="sl2c_z2z2_dense_twist")
    return [(A, True), (sheared, True), (mixed, False)]


@pytest.mark.parametrize("case", range(3))
def test_compat_rows_use_canonical_tuples_only_when_alpha_keeps_degrees(case):
    A, keeps = _twist_cases()[case]
    R = adjoint(A)
    for n in (1, 2) if A.dim > 3 else (1, 2, 3):
        space = cochain_basis(A, R, n, A.basis.group.zero())
        rows = cohomology._compat_rows(cohomology._complex(A, R), n)
        assert_zero_free(rows)
        canonical_rows = len(space.tuples) * R.dim
        if keeps:
            assert max(rows, default=-1) < canonical_rows
        elif n > 1:
            assert max(rows) >= canonical_rows  # the full layout, every n-tuple
        oracle = compat_rows_direct(A, R, n, space.tuples)
        assert densify(space, space.compat_basis) == \
            kernel_basis(oracle, space.free_dim, A.m), (A.name, n)


@pytest.mark.parametrize("make, s", [(heis_zeta3, 0), (clock3_twisted, 0), (sl2c_z2z2, -1)],
                         ids=["heis_zeta3", "clock3_twisted", "sl2c_z2z2-ad_-1"])
def test_arity_zero_compatible_basis_is_the_rref_fixed_space_of_beta(make, s):
    # alpha and beta are diagonal here, so compat(0) is read off the weights,
    # with the empty product 1; the oracle is the dense rref of ker(I - beta)
    A = make()
    R = alpha_s_adjoint(A, s)
    n, one, zero = R.dim, CycloScalar.one(A.m), CycloScalar.zero(A.m)
    red, pivots = rref_direct([[(one if r == c else zero) - R.beta[r][c] for c in range(n)]
                               for r in range(n)])
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        v = [one if c == free else zero for c in range(n)]
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        kernel.append(v)
    space = cochain_basis(A, R, 0, A.basis.group.zero())
    assert densify(space, space.compat_basis) == rref_direct(kernel)[0]


def _solved_compat(cx, n):
    """The compatible basis as every non-diagonal input gets it: the rref
    kernel of the compatibility rows.  The oracle of the weight path."""
    return linalg.sparse_kernel_basis(list(cohomology._compat_rows(cx, n).values()),
                                      cx.free_dim(n), cx.algebra.m)


def _trivial(A, beta_rows=None):
    """rho = 0 on A's own basis with beta = Id, or beta_rows if given."""
    beta = A.alpha_sparse(0) if beta_rows is None else \
        [[sc(v, A.m) for v in row] for row in beta_rows]
    return Representation(A.basis, [zeros(A.dim, A.dim, A.m)] * A.dim, beta, A.m)


def _swapped_square():
    """sl2c_z2z2^2 Yau-twisted by the swap of its two summands: alpha is the
    swap times diag(-1, -1, 1, -1, -1, 1), so it is not diagonal."""
    S = direct_sum(sl2c_z2z2(), sl2c_z2z2(), "sl2c_z2z2^2")
    swap = [[sc(int(j == (i + 3) % 6), S.m) for j in range(6)] for i in range(6)]
    return twist(S, swap, name="sl2c_z2z2^2_swapped")


def _weight_cases():
    """(name, A, R) with alpha and beta diagonal: the shipped Z2xZ2 example and
    its square, the phi(m) = 2 and phi(m) = 4 Heisenberg algebras, the twisted
    clock3, inverse-twist adjoints, a trivial module and a singular alpha
    with zero weights on an eps(a, a) = -1 grading (repeated indices)."""
    A, H, C = sl2c_z2z2(), heis_zeta3(), clock3_twisted()
    S = direct_sum(sl2c_z2z2(), sl2c_z2z2(), "sl2c_z2z2^2")
    singular = zero_algebra([2], [[1]], 2, [(1,), (0,), (1,)],
                            alpha=[[0, 0, 0], [0, 2, 0], [0, 0, -1]])
    five = heis_zeta(5)
    return [("sl2c_z2z2", A, adjoint(A)), ("sl2c_z2z2-ad_-1", A, alpha_s_adjoint(A, -1)),
            ("sl2c_z2z2-trivial", A, _trivial(A)), ("sl2c_z2z2^2", S, adjoint(S)),
            ("heis_zeta3", H, adjoint(H)), ("heis_zeta5", five, adjoint(five)),
            ("clock3_twisted", C, adjoint(C)), ("clock3_twisted-ad_-1", C, alpha_s_adjoint(C, -1)),
            ("singular", singular, adjoint(singular))]


@pytest.mark.parametrize("case", range(9), ids=[name for name, _, _ in _weight_cases()])
def test_diagonal_twists_read_the_compatible_basis_off_the_weights(case, monkeypatch):
    _, A, R = _weight_cases()[case]
    cx = cohomology._complex(A, R)
    assert cx.weights is not None
    solved = {n: _solved_compat(cx, n) for n in range(4)}
    rows = []
    monkeypatch.setattr(cohomology, "_compat_rows", lambda *args: rows.append(args))
    for n in range(4):
        basis = cx.compat(n)[0]
        assert basis == solved[n], (A.name, n)
        assert all(len(v) == 1 and list(v.values()) == [CycloScalar.one(A.m)] for v in basis)
    assert rows == []
    if case == 8:  # weights (0, 2, -1) on both sides: the zero weights match too
        assert [min(v) for v in cx.compat(1)[0]] == [0, 4, 8]


def test_non_diagonal_twists_keep_the_solve():
    """Each of alpha and beta off the diagonal sends compat to the solve: the
    swapped square's adjoint (both), the sheared square with beta = Id
    (alpha only), and sl2c_z2z2 with a trivial module whose beta is a shear
    (beta only)."""
    A, S = sl2c_z2z2(), _swapped_square()
    assert check_color_hom_lie(S).all_ok
    sheared = _twist_cases()[1][0]
    shear3 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    for B, R in ((S, adjoint(S)), (sheared, _trivial(sheared)), (A, _trivial(A, shear3))):
        cx = cohomology._complex(B, R)
        assert cx.weights is None
        for n in range(3):
            assert cx.compat(n)[0] == _solved_compat(cx, n), (B.name, n)
    assert len(cohomology._complex(S, adjoint(S)).compat(2)[0]) > 0


def test_a_module_forms_its_sparse_action_once(monkeypatch):
    # the dense rho(e_i) and beta pass through linalg.sparse when R is built;
    # no check, cohomology solve or coboundary converts them, or the sparse
    # action that R keeps, again
    A = heis_zeta3()
    ad = adjoint(A)
    mats = ad.rho + [ad.beta]
    seen, sparse = [], linalg.sparse

    def counted(M):
        seen.append(M)
        return sparse(M)
    for module in [m for name, m in sys.modules.items() if name.startswith("colorhomlie.")]:
        if getattr(module, "sparse", None) is sparse:
            monkeypatch.setattr(module, "sparse", counted)
    R = Representation(A.basis, mats[:-1], mats[-1], A.m)
    assert R.rho + [R.beta] == mats and R.action == ad.action
    stored = R.action[0] + [R.action[1]]

    def conversions():
        assert not any(M is mat for mat in stored for M in seen)
        return sum(any(M is mat for mat in mats) for M in seen)
    assert conversions() == A.dim + 1
    assert check_representation(A, R).ok and check_module(A, R).ok
    gamma = A.basis.group.zero()
    for n in (1, 2):
        for restrict in ("compatible", "free"):
            result = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
            for vec in result.cocycle_basis:
                image = coboundary_of_coords(A, R, result.space, vec, 0)[0]
                assert all(c.is_zero() for c in image)
    assert conversions() == A.dim + 1


def test_compatible_delta_columns_are_images_of_the_compatible_basis():
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = gamma_elems(A)["g1"]
    for n in (0, 1, 2):
        columns, space = delta_matrix(A, R, n, 0, gamma, domain="compatible")
        assert len(columns) == space.compat_dim
        for column, v in zip(columns, space.compat_basis):
            assert column == coboundary_of_coords(A, R, space, v, 0)[0]


def test_unknown_modes_are_refused_before_assembly(monkeypatch):
    A = sl2c_z2z2()
    R = adjoint(A)

    def no_assembly(*args):
        raise AssertionError("the cochain complex was assembled before validation")
    monkeypatch.setattr(cohomology, "_complex", no_assembly)
    with pytest.raises(ValueError):
        cohomology_group(A, R, 2, 0, A.basis.group.zero(), restrict="bogus")
    with pytest.raises(ValueError):
        delta_matrix(A, R, 1, 0, A.basis.group.zero(), domain="bogus")
    # valid modes do assemble through the patched entry point
    with pytest.raises(AssertionError):
        cohomology_group(A, R, 2, 0, A.basis.group.zero(), restrict="free")
    with pytest.raises(AssertionError):
        delta_matrix(A, R, 1, 0, A.basis.group.zero(), domain="free")


def test_arities_out_of_range_are_refused_before_assembly(monkeypatch):
    A = sl2c_z2z2()
    R = adjoint(A)
    monkeypatch.setattr(cohomology, "_complex", None)  # never reached
    with pytest.raises(CochainError, match="cochain arity must be non-negative"):
        cochain_basis(A, R, -1, A.basis.group.zero())
    with pytest.raises(CochainError, match="cohomology needs arity >= 1"):
        cohomology_group(A, R, 0, 0, A.basis.group.zero())


# -- the per-(A, R) cochain complex ---------------------------------------------

def _fresh(A, R):
    """Copies of A and R that share no cached state with them."""
    return (ColorHomAlgebra(A.basis, A.eps, A.bracket, A.alpha, A.m, name=A.name),
            Representation(R.carrier, R.rho, R.beta, R.m))


def _outcome(A, R, n, r, gamma, restrict):
    try:
        res = cohomology_group(A, R, n, r, gamma, restrict=restrict)
    except AlgebraStructureError as exc:
        return type(exc), str(exc)
    return ((res.dim_Z, res.dim_B, res.dim_H), res.cocycle_basis, res.coboundary_basis,
            res.representatives, res.space.tuples, res.space.compat_basis, res.to_dict())


# one case per seed family and the worked example with its inverse-twist adjoint
_FAMILY_CASES = [i for i, (A, _) in enumerate(ORACLE_CASES)
                 if A.name not in {B.name for B, _ in ORACLE_CASES[:i]}] + [21]


@pytest.mark.parametrize("case", _FAMILY_CASES)
def test_warm_complex_gives_the_results_of_a_fresh_one(case):
    A, R = _fresh(*ORACLE_CASES[case])
    for n in (1, 2, 3):
        for gamma in A.basis.group.elements():
            for restrict in ("free", "compatible"):
                for r in (0, 1):
                    warm = _outcome(A, R, n, r, gamma, restrict)
                    assert warm == _outcome(*_fresh(A, R), n, r, gamma, restrict), \
                        (A.name, n, r, gamma.components, restrict)


def _sweep_matches_fresh_modules(A, R, calls, seed):
    """The calls (n, r, gamma, restrict) on one shared R, in an order
    shuffled by seed, against one fresh module per gamma, which solves each
    call at its own degree.  Returns the calls that raised."""
    outcomes = {}
    for gamma in A.basis.group.elements():
        fresh = _fresh(A, R)
        for n, r, g, restrict in calls:
            if g == gamma:
                outcomes[n, r, g, restrict] = _outcome(*fresh, n, r, g, restrict)
    calls = list(calls)
    random.Random(seed).shuffle(calls)
    for n, r, gamma, restrict in calls:
        got = _outcome(A, R, n, r, gamma, restrict)
        assert got == outcomes[n, r, gamma, restrict], \
            (A.name, n, r, gamma.components, restrict)
    return {call for call, out in outcomes.items() if isinstance(out[0], type)}


@pytest.mark.parametrize("family", [sl2c_z2z2, sl2c_z2z3, heis_zeta3, motion_z2z3])
def test_one_solve_serves_every_degree(family):
    """delta_gamma = D_gamma delta_0 D_gamma^-1 moves Z and B between degrees;
    the moved bases are the rref bases a direct solve at each degree gives."""
    A = family()
    for seed, R in enumerate((adjoint(A), alpha_s_adjoint(A, -1))):
        calls = [(n, r, gamma, restrict) for n in (1, 2, 3) for r in (0, 1)
                 for gamma in A.basis.group.elements() for restrict in ("free", "compatible")]
        assert not _sweep_matches_fresh_modules(A, R, calls, seed)


def test_one_solve_serves_every_degree_on_clock3_twisted():
    A = clock3_twisted()
    R = adjoint(A)
    calls = [(n, 0, gamma, restrict) for gamma in A.basis.group.elements()
             for n, restrict in ((1, "free"), (1, "compatible"), (2, "free"))]
    assert not _sweep_matches_fresh_modules(A, R, calls, 3)
    for gamma in A.basis.group.elements():
        res = cohomology_group(A, R, 2, 0, gamma, restrict="free")
        assert (res.dim_Z, res.dim_B, res.dim_H) == (30, 24, 6), gamma.components


def _eps_shifted(A, R, gamma):
    """R with each rho(e_i) scaled by eps(gamma, |e_i|): its delta at degree 0
    is the delta of R at degree gamma."""
    rho = [mat_scale(A.eps(gamma, A.degree(i)), M) for i, M in enumerate(R.rho)]
    return Representation(R.carrier, rho, R.beta, R.m)


@pytest.mark.parametrize("family, top", [(sl2c_z2z2, 3), (heis_zeta3, 3), (motion_z2z3, 3),
                                         (lambda: heis_zeta(5), 1)],
                         ids=["sl2c_z2z2", "heis_zeta3", "motion_z2z3", "heis_zeta5"])
def test_a_moved_basis_is_the_direct_solve_on_an_eps_shifted_module(family, top):
    """Z, B and the representatives at degree gamma, moved from the anchor
    degree, are those a fresh complex solves at degree 0 on the module whose
    action carries the factor eps(gamma, |x|): a path that shares neither the
    complex nor the move."""
    A = family()
    G = A.basis.group
    for R in (adjoint(A), alpha_s_adjoint(A, -1)):
        for gamma in G.elements():
            shifted = _eps_shifted(A, R, gamma)
            for n, r, restrict in product(range(1, top + 1), (0, 1), ("free", "compatible")):
                got = cohomology_group(A, R, n, r, gamma, restrict=restrict)
                want = cohomology_group(A, shifted, n, r, G.zero(), restrict=restrict)
                assert (got.cocycle_basis, got.coboundary_basis, got.representatives) == \
                    (want.cocycle_basis, want.coboundary_basis, want.representatives), \
                    (A.name, n, r, gamma.components, restrict)


@pytest.mark.parametrize("family", [sl2c_z2z2, heis_zeta3, motion_z2z3, clock3_twisted,
                                    lambda: heis_zeta(5)],
                         ids=["sl2c_z2z2", "heis_zeta3", "motion_z2z3", "clock3_twisted",
                              "heis_zeta5"])
def test_cocycles_and_coboundaries_lie_in_homogeneous_blocks(family):
    """Each Z and B vector at label gamma lies in one block C^n_d, d = (carrier
    degree) - sum |x_i|; the blocks d = gamma at label gamma, which are the
    homogeneous cochains of degree gamma, add up to H^n at label 0."""
    A = family()
    G, R = A.basis.group, adjoint(A)
    for n, restrict in product((1, 2, 3) if A.dim == 3 else (1, 2), ("free", "compatible")):
        homogeneous = 0
        for gamma in G.elements():
            res = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
            degrees = [R.carrier.degrees[k] - sum((A.degree(i) for i in tup), G.zero())
                       for tup in res.space.tuples for k in range(R.dim)]
            blocks = []
            for vec in res.cocycle_basis + res.coboundary_basis:
                block = {degrees[c] for c in vec}
                assert len(block) == 1, (A.name, n, restrict, gamma.components)
                blocks.append(block.pop() == gamma)
            homogeneous += sum(blocks[:res.dim_Z]) - sum(blocks[res.dim_Z:])
        assert homogeneous == cohomology_group(A, R, n, 0, G.zero(), restrict=restrict).dim_H, \
            (A.name, n, restrict)


@pytest.mark.parametrize("family", [sl2c_z2z2, heis_zeta3, clock3_twisted])
def test_delta_at_gamma_is_similar_to_delta_at_zero(family):
    """Entry by entry, delta_gamma = D_gamma delta_0 D_gamma^-1, where D_gamma
    scales the coordinates of a tuple x by eps(gamma, |x|)."""
    A = family()
    R, G = adjoint(A), A.basis.group

    def scale(gamma, tuples):
        degree = lambda tup: sum((A.degree(i) for i in tup), G.zero())
        return [A.eps(gamma, degree(tup)) for tup in tuples for _ in range(R.dim)]
    for n in range(3 if A.dim == 3 else 2):
        at_zero, space = delta_matrix(A, R, n, 0, G.zero())
        for gamma in G.elements():
            columns = delta_matrix(A, R, n, 0, gamma)[0]
            source = scale(gamma, space.tuples)
            target = scale(gamma, canonical_tuples(A, n + 1))
            assert columns == [[d * x * s.inverse() for d, x in zip(target, column)]
                               for s, column in zip(source, at_zero)], (n, gamma.components)


def test_a_twist_that_mixes_degrees_solves_every_degree():
    """A non-even twist of sl2c_z2z3 breaks the similarity, so each degree is
    solved directly: the same answers as fresh modules, and the inconsistent
    complex raises at exactly the same degrees."""
    base = sl2c_z2z3()
    odd = [f for f, even in enumerate_morphisms(base, [sc(-1), sc(0), sc(1)]) if not even]
    A = twist(base, odd[0], name="sl2c_z2z3_odd")
    R = adjoint(A)
    calls = [(n, 0, gamma, restrict) for n in (1, 2) for gamma in A.basis.group.elements()
             for restrict in ("free", "compatible")]
    raised = _sweep_matches_fresh_modules(A, R, calls, 5)
    assert raised and len(raised) < len(calls)
    assert all(_outcome(A, R, *call)[0] is CochainError for call in raised)


def _guard_cases():
    """sl2c_z2z2's graded bracket under a twist that mixes degrees, and an
    ungraded bracket [e1, e2] = e2 under the identity twist: each breaks one
    half of the guard, and moving the anchor's bases would answer wrongly."""
    degrees = [(1, 0), (0, 1), (1, 1)]
    mixing = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"], degrees,
                           {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
                           [[2, 0, 0], [0, 0, 1], [0, -1, 1]], name="mixing_twist")
    ungraded = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"], degrees,
                             {(0, 1): [0, 1, 0]}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             name="ungraded_bracket")
    return [mixing, ungraded]


@pytest.mark.parametrize("case", range(2))
def test_each_half_of_the_guard_keeps_direct_solves(case):
    A = _guard_cases()[case]
    R = adjoint(A)
    calls = [(n, 0, gamma, restrict) for n in (1, 2, 3) for gamma in A.basis.group.elements()
             for restrict in ("free", "compatible")]
    _sweep_matches_fresh_modules(A, R, calls, 7)
    cx = cohomology._complex(A, R)
    assert cx.graded is False and cx.keeps_degrees is (case == 1)


@pytest.mark.parametrize("restrict", ["free", "compatible"])
def test_a_foreign_degree_is_refused_on_a_warm_complex(restrict):
    A = sl2c_z2z2()
    R = adjoint(A)
    for gamma in A.basis.group.elements():
        cohomology_group(A, R, 2, 0, gamma, restrict=restrict)
    with pytest.raises(GroupMismatchError):
        cohomology_group(A, R, 2, 0, FiniteAbelianGroup((3,)).element((1,)),
                         restrict=restrict)


def test_returned_bases_do_not_alias_the_complex():
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = gamma_elems(A)["g1"]
    space = cochain_basis(A, R, 2, gamma)
    res = cohomology_group(A, R, 2, 0, gamma, restrict="free")
    want_space = (list(space.tuples), densify(space, space.compat_basis))
    want = _outcome(A, R, 2, 0, gamma, "free")
    space.tuples.clear()
    space.compat_basis.append({0: sc(1, A.m)})
    space.compat_basis[0][0] = sc(7, A.m)
    res.cocycle_basis[0][0] = sc(7, A.m)
    res.cocycle_basis.clear()
    res.coboundary_basis.append({0: sc(1, A.m)})
    res.coboundary_basis[0][0] = sc(7, A.m)
    res.representatives[0][0] = sc(7, A.m)
    res.space.compat_basis[0].clear()
    res.space.compat_basis.clear()
    again = cochain_basis(A, R, 2, gamma)
    assert (again.tuples, densify(again, again.compat_basis)) == want_space
    assert _outcome(A, R, 2, 0, gamma, "free") == want
    space = delta_matrix(A, R, 2, 0, gamma, domain="compatible")[1]
    assert densify(space, space.compat_basis) == want_space[1]


@pytest.mark.parametrize("case", _FAMILY_CASES)
def test_sparse_and_dense_coordinates_give_equal_values(case):
    """Every compatible basis vector, sparse and densified, has the same
    coboundary under ``coboundary_of_coords``, the one cochain reader that
    takes either form; read back through ``linalg.sparse`` the densified
    vector is the sparse one again, with the same zero-free values under
    ``evaluate`` and ``evaluate_basis``, and it is nonzero as a ``Cochain``."""
    A, R = ORACLE_CASES[case]
    rng = random.Random(case)
    for n in (0, 1, 2):
        for gamma in A.basis.group.elements():
            space = cochain_basis(A, R, n, gamma)
            args = [sparse_vector([sc(rng.randint(-2, 2), A.m) for _ in range(A.dim)])
                    for _ in range(n)]
            for v, dense in zip(space.compat_basis, densify(space, space.compat_basis)):
                again = sparse_vector(dense)
                assert again == v
                values = [space.evaluate(v, args), space.evaluate(again, args)]
                for combo in product(range(A.dim), repeat=n):
                    values += [space.evaluate_basis(v, combo), space.evaluate_basis(again, combo)]
                for got, want in zip(values[::2], values[1::2]):
                    assert_zero_free(got)
                    assert_zero_free(want)
                    assert got == want
                assert not Cochain(space, v).is_zero() and not Cochain(space, again).is_zero()
                for r in (0, 1) if n else (1,):
                    assert coboundary_of_coords(A, R, space, v, r)[0] == \
                        coboundary_of_coords(A, R, space, dense, r)[0], (A.name, n, r)
    zero = cochain_basis(A, R, 1, A.basis.group.zero())
    assert Cochain(zero, {}).is_zero()
    assert Cochain(zero, sparse_vector([CycloScalar.zero(A.m)] * zero.free_dim)).is_zero()


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@PROPERTY
@given(st.integers(0, 2 ** 32), st.integers(1, 2), st.integers(0, 1), st.data())
def test_sparse_compatible_bases_square_to_zero_and_b_lies_in_z(seed, n, r, data):
    A = random_multiplicative_algebra(random.Random(seed))
    R = adjoint(A)
    gamma = data.draw(st.sampled_from(list(A.basis.group.elements())))
    space = cochain_basis(A, R, n, gamma)
    for v in space.compat_basis:
        image, target = coboundary_of_coords(A, R, space, v, r)
        again, _ = coboundary_of_coords(A, R, target, sparse_vector(image), r)
        assert all(c.is_zero() for c in again)
    # the same on the complex's sparse rows
    cx = cohomology._complex(A, R)
    basis_t = cx.compat(n)[1]
    images = linalg._product(cx.delta(n, gamma, r), basis_t) if basis_t else {}
    assert_zero_free(cx.delta(n, gamma, r))
    assert_zero_free(cx.restricted(n, gamma, r))
    assert_zero_free(images)
    assert linalg._product(cx.delta(n + 1, gamma, r), images) == {}
    for restrict in ("free", "compatible"):
        res = cohomology_group(A, R, n + 1, r, gamma, restrict=restrict)
        assert_rref(res.cocycle_basis)
        cocycles = linalg.Echelon(res.cocycle_basis)
        assert_zero_free(cocycles.rows)
        assert all(b in cocycles for b in res.coboundary_basis)


def test_reverify_accepts_every_result():
    A = sl2c_z2z2()
    for R in (adjoint(A), alpha_s_adjoint(A, -1)):
        for n, r, gamma, restrict in product((1, 2, 3), (0, 1), A.basis.group.elements(),
                                             ("free", "compatible")):
            res = cohomology_group(A, R, n, r, gamma, restrict=restrict)
            assert reverify(A, R, res).ok, (n, r, gamma.components, restrict)
    for A, R in ORACLE_CASES[:6]:
        for gamma in A.basis.group.elements():
            res = cohomology_group(A, R, 2, 1, gamma, restrict="free")
            assert reverify(A, R, res).ok, A.name


@pytest.mark.parametrize("family, arities", [(sl2c_z2z2, (2, 3)), (heis_zeta3, (2, 3)),
                                             (clock3_twisted, (2,))])
def test_coboundary_dimension_is_rank_nullity_of_the_previous_coboundary(family, arities):
    """dim B^n = dim C^(n-1)_compatible - dim Z^(n-1)_compatible at the same
    (gamma, r): B^n is the image of delta_r^(n-1) on the compatible
    (n-1)-cochains and Z^(n-1) its kernel, each from its own elimination."""
    A = family()
    for R in (adjoint(A), alpha_s_adjoint(A, -1)):
        for n, r, gamma in product(arities, (0, 1), A.basis.group.elements()):
            below = cohomology_group(A, R, n - 1, r, gamma)
            assert cohomology_group(A, R, n, r, gamma).dim_B == \
                below.space.compat_dim - below.dim_Z, (A.name, n, r, gamma.components)


def test_reverify_flags_a_perturbed_cocycle():
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = gamma_elems(A)["g1"]
    res = cohomology_group(A, R, 2, 0, gamma, restrict="free")
    space, one = res.space, sc(1, A.m)
    assert reverify(A, R, res).ok and res.dim_H == 2 and res.dim_B > 0
    # a coordinate whose unit vector is not a cocycle, added to a cocycle
    k = next(k for k in range(space.free_dim)
             if any(not c.is_zero() for c in coboundary_of_coords(
                 A, R, space, {k: one}, 0)[0]))
    bad = dict(res.cocycle_basis[1])
    bad[k] = bad[k] + one if k in bad else one
    res.cocycle_basis[1] = bad
    assert reverify(A, R, res).failures == [
        {"kind": "cocycle", "index": 1, "reason": "nonzero coboundary"}]
    res = cohomology_group(A, R, 2, 0, gamma, restrict="free")
    reps = res.representatives
    # the second representative moved by a coboundary is still a class
    res.representatives = [reps[0], [a + b for a, b in
                                     zip(reps[1], densify(space, res.coboundary_basis)[0])]]
    assert reverify(A, R, res).ok
    # a coboundary, or the first representative again, is not a new class
    res.representatives = [densify(space, res.coboundary_basis)[0], reps[0], reps[0]]
    assert reverify(A, R, res).failures == [
        {"kind": "representative", "index": i,
         "reason": "in the span of B and the earlier representatives"} for i in (0, 2)]
    moved = list(reps[1])
    moved[k] = moved[k] + one
    res.representatives = [reps[0], moved]
    assert reverify(A, R, res).failures == [
        {"kind": "representative", "index": 1, "reason": "nonzero coboundary"}]


def test_the_complex_is_freed_with_its_module_by_refcounting():
    """R keeps its complex under A and the complex keeps no reference to R,
    so dropping R frees both, and then A, without the cyclic collector."""
    A = sl2c_z2z2()
    gamma = gamma_elems(A)["g1"]
    gc.disable()
    try:
        R = adjoint(A)
        res = cohomology_group(A, R, 2, 0, gamma)
        assert list(R._cochain_complexes) == [A]
        refs = [weakref.ref(x) for x in (A, R, R._cochain_complexes[A])]
        del R, res
        assert refs[1]() is None and refs[2]() is None
        for _ in range(3):  # a module used once takes its complex with it
            cohomology_group(A, adjoint(A), 2, 0, gamma)
        del A
        assert refs[0]() is None
    finally:
        gc.enable()


def test_each_operator_is_assembled_once_per_ladder(monkeypatch):
    """The benchmark's cohomology ladder: 29 calls over 9 distinct (A, R, n)
    compatible bases, all read off the diagonal twists' weights with no
    compatibility rows, and delta_r^n built at the first degree only: 11
    distinct (A, R, n, gamma, r) against 23 when each degree is solved.  On
    the swapped square, whose alpha is not diagonal, the rows are built once
    per (A, R, n)."""
    A3 = sl2c_z2z2()
    A6 = direct_sum(sl2c_z2z2(), sl2c_z2z2(), "sl2c_z2z2^2")
    R3, R3_inv, R6 = adjoint(A3), alpha_s_adjoint(A3, -1), adjoint(A6)
    G = A3.basis.group
    calls = [(A3, R3, n, 0, gamma, restrict) for n in (1, 2, 3)
             for restrict in ("free", "compatible") for gamma in G.elements()]
    calls += [(A3, R3, 2, 1, G.element((1, 0)), "compatible"),
              (A3, R3_inv, 2, 0, G.element((1, 0)), "compatible")]
    calls += [(A6, R6, n, 0, G.element((1, 0)), restrict)
              for n, restrict in ((1, "free"), (1, "compatible"), (2, "compatible"))]
    compat, delta = [], []
    compat_rows, delta_rows = cohomology._compat_rows, cohomology._delta_rows

    def count_compat(cx, n):
        compat.append((id(cx), n))  # one complex per live (A, R)
        return compat_rows(cx, n)

    def count_delta(cx, n, gamma, r):
        delta.append((id(cx), n, gamma, r))
        return delta_rows(cx, n, gamma, r)
    monkeypatch.setattr(cohomology, "_compat_rows", count_compat)
    monkeypatch.setattr(cohomology, "_delta_rows", count_delta)
    for A, R, n, r, gamma, restrict in calls:
        cohomology_group(A, R, n, r, gamma, restrict=restrict)
    assert len(calls) == 29
    assert compat == []
    assert len(delta) == len(set(delta)) == 11
    S = _swapped_square()
    RS = adjoint(S)
    for n, restrict in product((1, 2), ("free", "compatible")):
        for gamma in G.elements():
            cohomology_group(S, RS, n, 0, gamma, restrict=restrict)
    assert len(compat) == len(set(compat)) == 3  # C^0, C^1 and C^2 of (S, RS)


def test_cochain_space_lookup_by_tuple():
    A = sl2c_z2z2()
    R = adjoint(A)
    tuples = canonical_tuples(A, 2)
    space = CochainSpace(A, R, 2, A.basis.group.zero(), tuples, [])
    for t, tup in enumerate(tuples):
        assert space.positions[tup] == t
    coords = sparse_vector([sc(i + 1) for i in range(space.free_dim)])
    # f(e2, e1) = -eps(g2, g1) f(e1, e2) = f(e1, e2) on this grading
    assert space.evaluate_basis(coords, (1, 0)) == {0: sc(1), 1: sc(2), 2: sc(3)}
    assert space.evaluate_basis(coords, (1, 1)) == {}


def test_quotient_representatives_are_the_greedy_picks():
    """cohomology_group's representatives are the vectors of Z, in order,
    that are not in the span of B and the earlier picks."""
    nontrivial = 0
    for A in (sl2c_z2z2(), heis_zeta3(), heis_zeta(5)):
        R = adjoint(A)
        for n, gamma, restrict in product((1, 2), A.basis.group.elements(),
                                          ("free", "compatible")):
            res = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
            expected, current = [], list(res.coboundary_basis)
            for v in res.cocycle_basis:
                if not in_span(current, v):
                    expected.append(v)
                    current.append(v)
            assert res.representatives == linalg.dense(expected, res.space.free_dim, A.m)
            nontrivial += res.dim_H > 0
    assert nontrivial >= 30


# -- abelian extensions: delta against the axiom checker --------------------------

def _extension_verdicts(A, r, gamma, stride=1):
    """(grading ok, Hom-Jacobi ok) of ``semidirect`` on the adjoint at r and
    gamma, for the free 2-cocycles in cochain degree block gamma (|v_k| - |t|
    = gamma at every coordinate (t, k)), then for every stride-th unit vector
    of that block whose coboundary, evaluated multilinearly, is nonzero."""
    R, one, zero = adjoint(A), CycloScalar.one(A.m), A.basis.group.zero()
    space = cochain_basis(A, R, 2, gamma)
    block = [t * R.dim + k for t, tup in enumerate(space.tuples) for k in range(R.dim)
             if R.carrier.degrees[k] - sum((A.degree(i) for i in tup), zero) == gamma]
    cocycles = [v for v in cohomology_group(A, R, 2, r, gamma, "free").cocycle_basis
                if set(v) <= set(block)]
    others = [{c: one} for c in block
              if any(coboundary_of_coords(A, R, space, {c: one}, r)[0])][::stride]
    def verdict(coords):
        E = semidirect(A, R, coords, gamma, r)
        return E.check_grading().ok, E.check_jacobi().ok
    return [verdict(v) for v in cocycles], [verdict(v) for v in others]


@pytest.mark.parametrize("make, counts", [(sl2c_z2z2, (12, 12)), (heis_zeta3, (16, 4))])
def test_homogeneous_2_cocycles_are_exactly_the_abelian_extensions(make, counts):
    # a homogeneous free 2-cocycle at label gamma gives a graded color Hom-Lie
    # algebra, and a homogeneous single-entry non-cocycle a graded algebra
    # that fails Hom-Jacobi, at r = 0 and 1 and every gamma
    A, found = make(), [0, 0]
    for r, gamma in product((0, 1), A.basis.group.elements()):
        cocycles, others = _extension_verdicts(A, r, gamma)
        assert all(v == (True, True) for v in cocycles), (r, gamma.components)
        assert all(v == (True, False) for v in others), (r, gamma.components)
        found[0], found[1] = found[0] + len(cocycles), found[1] + len(others)
    assert tuple(found) == counts


def test_the_eps_shifted_action_on_the_twisted_clock3_extensions():
    # gamma = (0,1), r = 0: the degree where the plain action rho in place of
    # eps(gamma, .) rho breaks the cocycles; every fourth non-cocycle is checked
    A = clock3_twisted()
    cocycles, others = _extension_verdicts(A, 0, A.basis.group.element((0, 1)), stride=4)
    assert cocycles == [(True, True)] * 8
    assert others == [(True, False)] * 9  # of 36


# -- cohomology groups -----------------------------------------------------------

def test_z2z2_dims_free_and_compatible():
    # values computed by this engine and double-checked against a separate
    # direct-evaluation implementation of the arity-2 operator form
    A = sl2c_z2z2()
    R = adjoint(A)
    for gname in ("g1", "g2", "g3"):
        gamma = gamma_elems(A)[gname]
        free = cohomology_group(A, R, 2, 0, gamma, restrict="free")
        comp = cohomology_group(A, R, 2, 0, gamma, restrict="compatible")
        assert (free.dim_Z, free.dim_B, free.dim_H) == (6, 4, 2), gname
        assert (comp.dim_Z, comp.dim_B, comp.dim_H) == (4, 4, 0), gname


def _vec9(space, entries):
    coords = [sc(0, 2)] * space.free_dim
    for (tup, k, v) in entries:
        coords[coord_index(space, tup, k)] = sc(v, 2)
    return coords


def test_published_case_families_are_cocycles():
    # each family vector of the worked three-degree example is in the kernel
    A = sl2c_z2z2()
    R = adjoint(A)
    for gname, vectors in SL2C_Z2Z2_CASE_FAMILIES.items():
        gamma = gamma_elems(A)[gname]
        space = cochain_basis(A, R, 2, gamma)
        for entries in vectors:
            coords = _vec9(space, entries)
            img, _ = coboundary_of_coords(A, R, space, coords, 0)
            assert all(c.is_zero() for c in img), (gname, entries)


def test_g1_has_the_expected_nontrivial_class():
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = gamma_elems(A)["g1"]
    res = cohomology_group(A, R, 2, 0, gamma, restrict="free")
    space = res.space
    psi_a = _vec9(space, [((0, 1), 1, 1), ((0, 2), 2, 1)])
    assert in_span(res.cocycle_basis, psi_a)
    assert not in_span(res.coboundary_basis, psi_a)
    # the coefficient pinned to psi(e1,e3)=e1 alone is not a cocycle: the
    # kernel ties it to a psi(e2,e3)=e2 partner
    psi_b = _vec9(space, [((0, 2), 0, 1)])
    assert not in_span(res.cocycle_basis, psi_b)
    tied = _vec9(space, [((0, 2), 0, 1), ((1, 2), 1, 1)])
    assert in_span(res.cocycle_basis, tied)
    assert in_span(res.coboundary_basis, tied)


def test_coboundaries_inside_cocycles_every_mode(rng):
    for _ in range(6):
        A = random_multiplicative_algebra(rng)
        R = adjoint(A)
        for gamma in A.basis.group.elements():
            for mode in ("free", "compatible"):
                res = cohomology_group(A, R, 2, 0, gamma, restrict=mode)
                for b in res.coboundary_basis:
                    assert in_span(res.cocycle_basis, b)
                assert res.dim_H == res.dim_Z - res.dim_B


def test_equal_lengths_compare_z_and_b_instead_of_eliminating(monkeypatch):
    # sl2c_z2z2's compatible H^n is (1, 1, 0), (4, 4, 0), (1, 1, 0) at every
    # degree: Z and B are the same rref list, with no quotient elimination
    A = sl2c_z2z2()
    R = adjoint(A)
    calls = [(n, gamma, restrict) for n, gamma in product((1, 2, 3), A.basis.group.elements())
             for restrict in ("free", "compatible")]
    for n, gamma, restrict in calls:  # Z and B are solved here and kept on R
        cohomology_group(A, R, n, 0, gamma, restrict=restrict)
    added, add = [], linalg.Echelon.add
    monkeypatch.setattr(linalg.Echelon, "add", lambda self, vec: added.append(vec) or add(self, vec))
    for n, gamma, restrict in calls:
        del added[:]
        res = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
        if restrict == "compatible":
            assert (res.dim_Z, res.dim_H, res.representatives) == (res.dim_B, 0, [])
            assert res.cocycle_basis == res.coboundary_basis
            assert added == []
        else:  # one echelon form of B, then each vector of Z offered to it
            assert res.dim_Z != res.dim_B and len(added) == res.dim_B + res.dim_Z


def test_an_equal_length_b_outside_z_is_refused(monkeypatch):
    # a corrupted B with as many vectors as Z: the last one replaced by a unit
    # vector outside span(Z), so B is not inside Z
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = A.basis.group.zero()
    Z = cohomology_group(A, R, 2, 0, gamma).cocycle_basis
    one = CycloScalar.one(A.m)
    outside = next({c: one} for c in range(cochain_basis(A, R, 2, gamma).free_dim)
                   if linalg.Echelon(Z).add({c: one}))
    coboundaries = cohomology._Complex.coboundaries
    monkeypatch.setattr(cohomology._Complex, "coboundaries",
                        lambda self, *args: coboundaries(self, *args)[:-1] + [outside])
    with pytest.raises(CochainError, match="coboundary escaped the cocycle space"):
        cohomology_group(A, R, 2, 0, gamma)


def test_h1_inner_coboundaries():
    # arity-1 coboundaries of fixed points are the inner maps [x, .]
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = A.basis.group.zero()
    res = cohomology_group(A, R, 1, 1, gamma, restrict="compatible")
    # fixed space of alpha is spanned by e3, so B^1 = span ad(e3) (via alpha^r)
    assert res.dim_B == 1
    res0 = cohomology_group(A, R, 1, 0, gamma, restrict="compatible")
    assert res0.dim_B == 1  # alpha is invertible so r = 0 is defined too


def test_negative_power_refused_for_singular_alpha():
    A = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2"],
                      [(1, 0), (0, 1)], {}, [[1, 0], [0, 0]])
    R = adjoint(A)
    for _ in range(2):  # the failure is not cached: it raises every time
        with pytest.raises(AlgebraStructureError):
            cohomology_group(A, R, 1, 0, A.basis.group.zero())  # needs alpha^(-1)


def test_nilpotent_twist_needs_no_negative_power_on_a_zero_compatible_space():
    """With alpha = [[0, 1], [0, 0]] the adjoint beta = alpha has no nonzero
    fixed vector, so the compatible C^0 is zero: B^1 and the compatible
    delta^0 are empty and alpha^(-1) is never formed."""
    A = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2"],
                      [(1, 0), (1, 0)], {}, [[0, 1], [0, 0]])
    R = adjoint(A)
    zero = A.basis.group.zero()
    for _ in range(2):
        for restrict in ("free", "compatible"):
            res = cohomology_group(A, R, 1, 0, zero, restrict=restrict)
            assert res.dim_B == 0 and res.coboundary_basis == []
        columns, space = delta_matrix(A, R, 0, 0, zero, domain="compatible")
        assert columns == [] and space.compat_dim == 0
    with pytest.raises(AlgebraStructureError):
        delta_matrix(A, R, 0, 0, zero, domain="free")  # the free C^0 is not zero


def test_cohomology_result_serialization_shape():
    A = sl2c_z2z2()
    R = adjoint(A)
    res = cohomology_group(A, R, 2, 0, gamma_elems(A)["g1"], restrict="free")
    doc = res.to_dict()
    assert doc["dim_H"] == 2 and len(doc["representatives"]) == 2
    for rep in doc["representatives"]:
        for key, val in rep.items():
            assert all(name in A.basis.names for name in key.split(","))


def test_clock3_is_an_indecomposable_input_with_pinned_cohomology():
    # the eps-commutator algebra of M_3 under its Z3xZ3 clock-shift grading:
    # an m = 3 input that is not a direct sum, so its delta rows are not
    # near-diagonal.  Every cocycle is re-checked on the multilinear path;
    # alpha = Id makes every cochain compatible, so both modes give one Z^2.
    A = clock3()
    assert check_color_hom_lie(A).all_ok
    assert A.dim == 9 and A.m == 3 and len(A.bracket.rows) == 48
    R = adjoint(A)
    gamma = A.basis.group.element((1, 0))
    results = {}
    for n, restrict, dims in ((1, "free", (9, 8, 1)), (2, "free", (72, 72, 0)),
                              (2, "compatible", (72, 72, 0))):
        res = results[n, restrict] = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
        assert (res.dim_Z, res.dim_B, res.dim_H) == dims, (n, restrict)
        assert_rref(res.cocycle_basis)
    assert results[2, "free"].cocycle_basis == results[2, "compatible"].cocycle_basis
    for key in ((1, "free"), (2, "compatible")):
        assert reverify(A, R, results[key]).ok, key


def test_character_twisted_clock3_pins_cohomology_with_alpha_not_the_identity():
    # clock3 Yau-twisted by e_i -> zeta^a e_i: alpha is diagonal but not a
    # scalar, so the compatible subspace is proper and the two modes differ
    # at H^2.  Every result is re-checked on the multilinear path.
    A = clock3_twisted()
    assert check_color_hom_lie(A).all_ok
    assert A.alpha_sparse(1) != A.alpha_sparse(0)
    R = adjoint(A)
    gamma = A.basis.group.element((1, 0))
    for n, restrict, dims in ((1, "free", (3, 2, 1)), (1, "compatible", (3, 2, 1)),
                              (2, "free", (30, 24, 6)), (2, "compatible", (24, 24, 0))):
        res = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
        assert (res.dim_Z, res.dim_B, res.dim_H) == dims, (n, restrict)
        assert_rref(res.cocycle_basis)
        assert reverify(A, R, res).ok, (n, restrict)


@pytest.mark.parametrize("m", [5, 7, 8])
def test_a_heisenberg_algebra_beyond_degree_two_pins_cohomology(m):
    # heis_zeta(m): scalars of degree phi(m) = 4, 6, 4 over Q, beyond the
    # phi <= 2 of the other algebras here.  Every result is re-checked on the
    # multilinear path, and B^2 has the dimension rank-nullity gives it.
    A = heis_zeta(m)
    assert check_color_hom_lie(A).all_ok
    R = adjoint(A)
    assert check_module(A, R).ok
    gamma = A.basis.group.zero()
    for n, restrict, dims in ((1, "free", (6, 0, 6)), (1, "compatible", (2, 0, 2)),
                              (2, "free", (8, 1, 7)), (2, "compatible", (1, 1, 0))):
        res = cohomology_group(A, R, n, 0, gamma, restrict=restrict)
        assert (res.dim_Z, res.dim_B, res.dim_H) == dims, (n, restrict)
        assert_rref(res.cocycle_basis)
        assert reverify(A, R, res).ok, (n, restrict)
    h1 = cohomology_group(A, R, 1, 0, gamma)
    assert (h1.space.compat_dim, h1.dim_Z) == (3, 2)


def test_clock2_cocycle_dimensions_match_a_sympy_rank_over_qq():
    # the m = 2 clock-shift algebra of M_2 is rational, so sympy's rank of
    # delta's matrix over QQ gives dim Z = free_dim - rank independently of
    # the engine's elimination
    import sympy
    A = clock_shift(2, [[1, 0], [0, 1]])
    assert A.dim == 4 and A.m == 2
    R = adjoint(A)
    for gamma in A.basis.group.elements():
        for n, dims in ((1, (6, 2, 4)), (2, (12, 10, 2)), (3, (20, 20, 0))):
            res = cohomology_group(A, R, n, 0, gamma, restrict="free")
            assert (res.dim_Z, res.dim_B, res.dim_H) == dims, (gamma.components, n)
            columns, space = delta_matrix(A, R, n, 0, gamma, domain="free")
            rank = sympy.Matrix([[as_rational(c) for c in col] for col in columns]).rank()
            assert res.dim_Z == space.free_dim - rank, (gamma.components, n)


def test_an_empty_cochain_domain_has_no_compatibility_rows():
    # two basis vectors of one degree with eps(a, a) = +1 have no canonical
    # 3-tuple; alpha is not diagonal, so the compatible basis is solved from
    # the (empty) rows
    A = zero_algebra([2], [[0]], 2, [(1,), (1,)], alpha=[[1, 1], [0, 1]])
    R = adjoint(A)
    cx = cohomology._complex(A, R)
    assert cx.weights is None and cx.free_dim(3) == 0
    assert cohomology._compat_rows(cx, 3) == {}
    space = cochain_basis(A, R, 3, A.basis.group.zero())
    assert space.free_dim == 0 and space.compat_basis == []
