"""Axiom checks, commutator construction, derived Hom-algebras, and the
structure-constant type."""
import copy
import json
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from colorhomlie import algebra_core, linalg
from colorhomlie.algebra_core import (AlgebraStructureError, BracketTable,
                                      ColorHomAlgebra, GradedBasis,
                                      HomAssociativeColorAlgebra,
                                      NotHomAssociativeError,
                                      NotMultiplicativeError, StructureConstants,
                                      check_color_hom_lie, commutator_algebra,
                                      derived_algebra)
from colorhomlie.cohomology import cohomology_group
from colorhomlie.fileio import parse_algebra_file, parse_commutative_algebra_file
from colorhomlie.representations import adjoint
from colorhomlie.scalars_grading import (BiCharacter, CycloScalar,
                                         FiniteAbelianGroup, euler_phi, parse_scalar)

from conftest import (as_rational, assert_rotations_share_residuals, assert_zero_free,
                      basis_vector, bilinear_direct, build_algebra,
                      check_hom_associative_direct, check_jacobi_direct,
                      check_multiplicative_direct, data_path, heis_zeta3,
                      is_eps_commutative_direct, mat_pow, mat_vec_direct, sc, sl2c_z2z2, zero_algebra,
                      zeros)


def test_sl2c_z2z2_all_axioms_pass():
    report = check_color_hom_lie(sl2c_z2z2())
    assert report.grading.ok
    assert report.skew.ok
    assert report.jacobi.ok
    assert report.multiplicative.ok


def test_zero_bracket_passes():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)])
    assert check_color_hom_lie(A).all_ok


def test_rescaled_constants_keep_jacobi_on_one_dim_components():
    # With one-dimensional homogeneous components and eps = -1 between the
    # distinct degrees, every term of the Hom-Jacobi sum lands in a slot that
    # cancels pairwise, so rescaling individual structure constants cannot
    # break it.  Recorded because it is easy to expect otherwise.
    A = build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"],
        [(1, 0), (0, 1), (1, 1)],
        {(0, 1): [0, 0, 2], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    report = check_color_hom_lie(A)
    assert report.jacobi.ok and report.grading.ok


def _non_lie_bracket():
    # [x,y] = x and [y,z] = y violate the Jacobi identity at (x,y,z)
    return build_algebra(
        [1], [[0]], 1, ["x", "y", "z"], [(0,), (0,), (0,)],
        {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_invalid_bracket_fails_jacobi_with_witness():
    report = check_color_hom_lie(_non_lie_bracket())
    assert not report.jacobi.ok
    witnesses = {tuple(f["triple"]) for f in report.jacobi.failures}
    assert ("x", "y", "z") in witnesses


def test_jacobi_residual_is_reorder_equivariant():
    # permuting a failing triple changes the residual only by the sorting sign;
    # the residuals are read from the failures check_jacobi reports
    A = _non_lie_bracket()
    residuals = {tuple(f["triple"]): [parse_scalar(c, A.m) for c in f["residual"]]
                 for f in A.check_jacobi().failures}
    r123, r213 = residuals[("x", "y", "z")], residuals[("y", "x", "z")]
    e = A.eps(A.degree(0), A.degree(1))
    assert any(not c.is_zero() for c in r123)
    # swapping the first two arguments of the cyclic sum multiplies by -eps
    assert all(((-e) * a - b).is_zero() for a, b in zip(r123, r213))


def test_bracket_table_redundant_input_validation():
    G = FiniteAbelianGroup((2, 2))
    eps = BiCharacter(G, [[0, 1], [1, 0]], 2)
    basis = GradedBasis(("e1", "e2"), (G.element((1, 0)), G.element((0, 1))), G)
    consistent = {(0, 1): [sc(0), sc(1)], (1, 0): [sc(0), sc(1)]}
    BracketTable(basis, eps, consistent, 2)  # -eps(0,1) = +1 so same vector is fine
    from colorhomlie.algebra_core import AlgebraStructureError
    with pytest.raises(AlgebraStructureError):
        BracketTable(basis, eps, {(0, 1): [sc(0), sc(1)],
                                  (1, 0): [sc(0), sc(2)]}, 2)


# -- commutator construction ---------------------------------------------------

def _haca(orders, eps_exp, m, names, degrees, mu_entries, alpha):
    G = FiniteAbelianGroup(tuple(orders))
    eps = BiCharacter(G, eps_exp, m)
    degs = tuple(G.element(tuple(d)) for d in degrees)
    basis = GradedBasis(tuple(names), degs, G)
    dim = len(names)
    mu = [[[sc(0, m)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in mu_entries.items():
        mu[i][j] = [sc(v, m) for v in vec]
    alpha_m = [[sc(v, m) for v in row] for row in alpha]
    return HomAssociativeColorAlgebra(basis, eps, mu, alpha_m, m)


def test_commutative_input_gives_zero_bracket():
    # polynomial algebra Q[x]/(x^2), trivially graded
    H = _haca([1], [[0]], 1, ["u0", "u1"], [(0,), (0,)],
              {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [0, 0]},
              [[1, 0], [0, 1]])
    L = commutator_algebra(H)
    assert L.bracket.is_zero()


def test_matrix_algebra_commutator_reproduces_gl2():
    # basis E11, E12, E21, E22 with matrix multiplication, trivially graded
    names = ["E11", "E12", "E21", "E22"]
    prod = {}
    def unit(k):
        return [1 if t == k else 0 for t in range(4)]
    pairs = {(0, 0): 0, (0, 1): 1, (1, 2): 0, (1, 3): 1,
             (2, 0): 2, (2, 1): 3, (3, 2): 2, (3, 3): 3}
    for i in range(4):
        for j in range(4):
            prod[(i, j)] = unit(pairs[(i, j)]) if (i, j) in pairs else [0] * 4
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    H = _haca([1], [[0]], 1, names, [(0,)] * 4, prod, eye)
    L = commutator_algebra(H)
    # hand-computed commutator table of the 2x2 matrix units
    def vec(d):
        out = [sc(0, 1)] * 4
        for k, v in d.items():
            out[k] = sc(v, 1)
        return out
    expected = {
        (0, 1): vec({1: 1}),        # [E11, E12] = E12
        (0, 2): vec({2: -1}),       # [E11, E21] = -E21
        (0, 3): vec({}),
        (1, 2): vec({0: 1, 3: -1}),  # [E12, E21] = E11 - E22
        (1, 3): vec({1: 1}),        # [E12, E22] = E12
        (2, 3): vec({2: -1}),       # [E21, E22] = -E21
    }
    for (i, j), want in expected.items():
        got = L.bracket.of_basis(i, j)
        assert all((a - b).is_zero() for a, b in zip(got, want)), (i, j)
    assert check_color_hom_lie(L).is_color_hom_lie


def test_group_algebra_z2_commutator():
    # graded group algebra of Z2 with eps(1,1) = -1: [g,g] = 2e
    H = _haca([2], [[1]], 2, ["e", "g"], [(0,), (1,)],
              {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [1, 0]},
              [[1, 0], [0, 1]])
    L = commutator_algebra(H)
    gg = L.bracket.of_basis(1, 1)
    assert as_rational(gg[0]) == 2 and gg[1].is_zero()
    assert check_color_hom_lie(L).is_color_hom_lie


def test_non_associative_input_refused():
    H = _haca([1], [[0]], 1, ["u0", "u1"], [(0,), (0,)],
              {(0, 0): [0, 1], (1, 1): [1, 0], (0, 1): [0, 0], (1, 0): [0, 1]},
              [[1, 0], [0, 1]])
    with pytest.raises(NotHomAssociativeError):
        commutator_algebra(H)


def test_commutator_output_is_skew_on_random_products():
    rng = random.Random(5)
    G = FiniteAbelianGroup((2, 2))
    eps = BiCharacter(G, [[0, 1], [1, 0]], 2)
    degs = (G.element((1, 0)), G.element((0, 1)))
    basis = GradedBasis(("a", "b"), degs, G)
    for _ in range(20):
        # arbitrary graded mu, no associativity needed for the skew identity
        mu = [[[sc(0)] * 2 for _ in range(2)] for _ in range(2)]
        for i in range(2):
            for j in range(2):
                target = degs[i] + degs[j]
                for k in range(2):
                    if degs[k] == target:
                        mu[i][j][k] = sc(rng.randint(-3, 3))
        H = HomAssociativeColorAlgebra(basis, eps, mu, {0: {0: sc(1)}, 1: {1: sc(1)}}, 2)
        entries = {}
        for i in range(2):
            for j in range(i, 2):
                e = eps(degs[i], degs[j])
                entries[(i, j)] = [a - e * b for a, b in zip(mu[i][j], mu[j][i])]
        table = BracketTable(basis, eps, entries, 2)
        # the skew rule [y,x] = -eps [x,y] holds identically for the raw values
        for i in range(2):
            for j in range(2):
                e = eps(degs[i], degs[j])
                direct = [a - e * b for a, b in zip(mu[i][j], mu[j][i])]
                swapped = [a - eps(degs[j], degs[i]) * b
                           for a, b in zip(mu[j][i], mu[i][j])]
                assert all((d + e * s).is_zero()
                           for d, s in zip(direct, swapped))


# -- derived Hom-algebras -------------------------------------------------------

def test_derived_level_zero_is_identity():
    A = sl2c_z2z2()
    assert derived_algebra(A, 0) is A


def test_a_negative_derived_level_is_refused():
    with pytest.raises(ValueError, match="derived level must be non-negative"):
        derived_algebra(sl2c_z2z2(), -1)


def test_derived_level_one_matches_matrix_power_oracle():
    A = sl2c_z2z2()
    D = derived_algebra(A, 1)
    # oracle: compose the bracket with alpha once, square the twist
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        want = mat_vec_direct(A.alpha, A.bracket.of_basis(i, j))
        got = D.bracket.of_basis(i, j)
        assert all((a - b).is_zero() for a, b in zip(got, want))
    assert D.alpha == linalg.mat_mul(A.alpha, A.alpha)
    # alpha is an involution here, so the derived twist is the identity
    assert D.alpha_sparse(1) == D.alpha_sparse(0)
    assert check_color_hom_lie(D).is_color_hom_lie


def test_twist_powers_are_cached_for_negative_exponents():
    # alpha = [[1,1],[0,2]], so alpha^-1 = [[1,-1/2],[0,1/2]]; oracle: the
    # power of the exact inverse, and alpha^k alpha^-k = Id
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (1, 0)],
                     alpha=[[1, 1], [0, 2]])
    inv = [[sc(1), sc(Fraction(-1, 2))], [sc(0), sc(Fraction(1, 2))]]
    for k in (1, 2, 3):
        power = A.alpha_sparse(-k)
        assert A.alpha_sparse(-k) is power
        assert power == linalg.sparse(mat_pow(inv, k, A.m))
        assert linalg._product(A.alpha_sparse(k), power) == A.alpha_sparse(0)
    S = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)],
                     alpha=[[1, 0], [0, 0]])
    for _ in range(2):  # a singular twist is refused on every call
        with pytest.raises(AlgebraStructureError):
            S.alpha_sparse(-1)


def test_deep_twist_powers_are_formed_by_repeated_squaring(monkeypatch):
    # alpha = [[1,1],[0,2]]: alpha^1500 and alpha^-1500 against the repeated
    # products, in O(log k) products and no deep recursion
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (1, 0)], alpha=[[1, 1], [0, 2]])
    products = []
    product_of = algebra_core._product
    monkeypatch.setattr(algebra_core, "_product",
                        lambda a, b: products.append(1) or product_of(a, b))
    for k in (1500, -1500):
        step = A.alpha_sparse(1 if k > 0 else -1)
        want = step
        for _ in range(abs(k) - 1):
            want = product_of(want, step)
        assert A.alpha_sparse(k) == want
    assert len(products) <= 4 * (1500).bit_length()


def test_edited_twist_powers_leave_the_algebra_unchanged():
    # every dense twist handed out is a fresh copy: editing one reaches neither
    # a later call, nor a power formed from it, nor the algebra behind a derived one
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (1, 0)], alpha=[[1, 1], [0, 2]])
    want = {k: mat_pow(A.alpha, k, A.m) for k in (1, 2, 3)}
    A.alpha[0][0] = sc(7)
    linalg.dense(A.alpha_sparse(2), A.dim, A.m)[0][0] = sc(7)
    assert A.alpha == want[1]
    assert all(A.alpha_sparse(k) == linalg.sparse(want[k]) for k in (1, 2, 3))
    D = derived_algebra(A, 1)
    D.alpha[0][0] = sc(7)
    assert D.alpha == want[2] and A.alpha_sparse(2) == linalg.sparse(want[2])
    assert A.alpha == want[1]


def test_derived_zero_bracket_any_level():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)],
                     alpha=[[1, 0], [0, -1]])
    D = derived_algebra(A, 3)
    assert D.bracket.is_zero()
    assert D.alpha == mat_pow(A.alpha, 8, 2)


def test_derived_closure_under_axioms():
    A = sl2c_z2z2()
    for n in (1, 2):
        report = check_color_hom_lie(derived_algebra(A, n))
        assert report.is_color_hom_lie and report.multiplicative.ok


def test_derived_closure_randomized(rng):
    from conftest import random_multiplicative_algebra
    for _ in range(10):
        A = random_multiplicative_algebra(rng)
        for n in (0, 1, 2):
            report = check_color_hom_lie(derived_algebra(A, n))
            assert report.is_color_hom_lie, (A.name, n)


def test_derived_requires_multiplicative():
    A = build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"],
        [(1, 0), (0, 1), (1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
        [[-1, 0, 0], [0, -1, 0], [0, 0, 2]])
    with pytest.raises(NotMultiplicativeError):
        derived_algebra(A, 1)


# -- the structure-constant type against the dense oracle ---------------------

# grading per root order: (group orders, eps exponents); m = 3 is the Z3xZ3
# grading whose eps is not symmetric, so eps(a,b) and eps(b,a) differ
GRADINGS = {1: ((), []), 2: ((2, 2), [[0, 1], [1, 0]]),
            3: ((3, 3), [[0, 1], [2, 0]]), 4: ((4, 4), [[0, 1], [3, 0]])}


def _z3z3_basis():
    G = FiniteAbelianGroup((3, 3))
    eps = BiCharacter(G, [[0, 1], [2, 0]], 3)
    degrees = tuple(G.element(d) for d in ((1, 0), (0, 1), (1, 1)))
    return GradedBasis(("x", "y", "z"), degrees, G), eps


def _random_scalar(rng, m):
    if rng.random() < 0.4:
        return CycloScalar.zero(m)
    return CycloScalar([rng.choice([-2, -1, 1, 2, Fraction(1, 2)]) * rng.randint(0, 1)
                        for _ in range(euler_phi(m))], m)


def _random_vector(rng, m, dim):
    return [_random_scalar(rng, m) for _ in range(dim)]


def _random_table(rng, m, kind):
    orders, exps = GRADINGS[m]
    G = FiniteAbelianGroup(orders)
    eps = BiCharacter(G, exps, m)
    dim = rng.randint(2, 4)
    elements = list(G.elements())
    # the first two degrees differ (m > 1), so the all-ones vector is inhomogeneous
    degrees = elements[:2] if m > 1 else elements * 2
    basis = GradedBasis(tuple(f"e{i}" for i in range(dim)),
                        tuple(degrees + [rng.choice(elements) for _ in range(dim - 2)]), G)
    if kind == "skew":
        # pairs in either order; the mirror of a given pair is left out
        entries = {}
        for i in range(dim):
            for j in range(i, dim):
                if rng.random() < 0.7:
                    key = (i, j) if rng.random() < 0.5 else (j, i)
                    entries[key] = _random_vector(rng, m, dim)
        return BracketTable(basis, eps, entries, m), entries, basis, eps
    entries = {(i, j): _random_vector(rng, m, dim)
               for i in range(dim) for j in range(dim) if rng.random() < 0.7}
    return StructureConstants(dim, m, entries), entries, basis, eps


def _dense_equal(a, b):
    return all(a.of_basis(i, j) == b.of_basis(i, j)
               for i in range(a.dim) for j in range(a.dim))


@pytest.mark.parametrize("build", [heis_zeta3, sl2c_z2z2])
def test_bilinear_takes_dense_and_sparse_vectors(build):
    # every pair of basis vectors, twist columns and a full vector, each
    # given dense, as its support, and as a dict that keeps a zero entry
    A = build()
    one, z = CycloScalar.one(A.m), CycloScalar.zero(A.m)
    vectors = ([basis_vector(A, i) for i in range(A.dim)]
               + [[row[j] for row in A.alpha] for j in range(A.dim)]
               + [[sc(t + 1, A.m) for t in range(A.dim)], [z] * A.dim])
    def forms(vec):
        support = {k: c for k, c in enumerate(vec) if not c.is_zero()}
        return [vec, support, {**support, A.dim - 1: vec[-1]}]
    assert A.bracket.bilinear({0: one}, {1: one}) == A.bracket.of_basis(0, 1)
    for u, v in product(vectors, repeat=2):
        want = bilinear_direct(A.bracket, u, v)
        for fu, fv in product(forms(u), forms(v)):
            assert A.bracket.bilinear(fu, fv) == want
        # sparse_bilinear reads the sparse forms only
        for fu, fv in product(forms(u)[1:], forms(v)[1:]):
            assert A.bracket.sparse_bilinear(fu, fv) == \
                {k: c for k, c in enumerate(want) if not c.is_zero()}


@pytest.mark.parametrize("kind", ["skew", "product"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_structure_constants_match_dense_oracle(m, kind):
    rng = random.Random(20261018 + 10 * m + (kind == "skew"))
    for _ in range(6):
        table, entries, basis, eps = _random_table(rng, m, kind)
        dim, z = table.dim, CycloScalar.zero(m)
        # of_basis returns the input, and the skew rule on the other order
        for (i, j), vec in entries.items():
            assert table.of_basis(i, j) == vec
            if kind == "skew" and i != j:
                e = -eps(basis.degrees[j], basis.degrees[i])
                assert table.of_basis(j, i) == [e * c for c in vec]
        vectors = ([[z] * dim, _random_vector(rng, m, dim), [CycloScalar.one(m)] * dim]
                   + [[CycloScalar.one(m) if k == t else z for k in range(dim)]
                      for t in range(dim)])
        for u in vectors:
            for v in vectors:
                assert table.bilinear(u, v) == bilinear_direct(table, u, v)
        M = [_random_vector(rng, m, dim) for _ in range(dim)]
        composed = table.compose_with(linalg.sparse(M))
        assert type(composed) is type(table)
        for i in range(dim):
            for j in range(dim):
                assert composed.of_basis(i, j) == mat_vec_direct(M, table.of_basis(i, j))
        for u in vectors[:3]:
            for v in vectors[:3]:
                assert composed.bilinear(u, v) == mat_vec_direct(M, bilinear_direct(table, u, v))
        others = [composed, table.compose_with({t: {t: CycloScalar.one(m)} for t in range(dim)}),
                  table.compose_with(linalg.sparse(zeros(dim, dim, m)))]
        for other in others:
            assert table.equals(other) == _dense_equal(table, other)
            assert other.is_zero() == all(c.is_zero() for i in range(dim)
                                          for j in range(dim) for c in other.of_basis(i, j))
        assert table.equals(others[1]) and others[2].is_zero()
        # derived tables: precompose, sum, eps-commutator, differing pairs
        L, R = ([_random_vector(rng, m, dim) for _ in range(dim)] for _ in range(2))
        pre = table.precompose(linalg.sparse(L), linalg.sparse(R))
        total = table + composed
        comm = table.commutator(basis.degrees, eps)
        for i in range(dim):
            for j in range(dim):
                assert pre.of_basis(i, j) == bilinear_direct(
                    table, [row[i] for row in L], [row[j] for row in R])
                assert total.of_basis(i, j) == [a + b for a, b in zip(
                    table.of_basis(i, j), composed.of_basis(i, j))]
                e = eps(basis.degrees[i], basis.degrees[j])
                assert comm.of_basis(i, j) == [a - e * b for a, b in zip(
                    table.of_basis(i, j), table.of_basis(j, i))]
        for derived in (pre, total, comm):
            assert_zero_free(derived.rows)
        # sums that cancel entirely: table - table, and the commutator of an
        # eps-commutative table (a diagonal entry survives where eps(d, d) = -1)
        minus = {t: {t: -CycloScalar.one(m)} for t in range(dim)}
        assert (table + table.compose_with(minus)).rows == {}
        degrees, one = basis.degrees, CycloScalar.one(m)
        commutative = StructureConstants(dim, m, algebra_core._complete(
            dim, m, {(i, j): vec for (i, j), vec in entries.items()
                     if i < j or (i == j and eps(degrees[i], degrees[i]) == one)},
            degrees, eps, +1, "eps-commutativity"))
        assert commutative.commutator(degrees, eps).rows == {}
        empty = StructureConstants(dim, m, {})
        for a, b in [(table, t) for t in others + [pre, total, empty]] + [(empty, table)]:
            assert a.differing_pairs(b) == [
                (i, j) for i in range(dim) for j in range(dim)
                if a.of_basis(i, j) != b.of_basis(i, j)]
        # the report lists every nonzero pair, or only i <= j for a skew table
        names = basis.names
        want = {f"{names[i]},{names[j]}": {names[k]: str(c)
                                           for k, c in enumerate(table.of_basis(i, j))
                                           if not c.is_zero()}
                for i in range(dim) for j in range(dim)
                if (i <= j or kind == "product")
                and any(not c.is_zero() for c in table.of_basis(i, j))}
        assert table.report(names) == want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hom_associativity_and_commutativity_match_the_dense_oracles(m):
    # random products and twists (almost never Hom-associative), a random
    # product with the identity twist, and the shipped commutative algebra
    rng = random.Random(20261020 + m)
    algebras = [parse_commutative_algebra_file(data_path("qwitt_trunc_q2.alg"))]
    for _ in range(4):
        table, _, basis, eps = _random_table(rng, m, "product")
        for alpha in ([_random_vector(rng, m, table.dim) for _ in range(table.dim)],
                      {t: {t: CycloScalar.one(m)} for t in range(table.dim)}):
            algebras.append(HomAssociativeColorAlgebra(basis, eps, table, alpha, m))
    failing = 0
    for H in algebras:
        got = H.check_hom_associative()
        assert got.to_dict() == check_hom_associative_direct(H).to_dict()
        assert H.is_eps_commutative() == is_eps_commutative_direct(H)
        failing += not got.ok
    assert algebras[0].check_hom_associative().ok and algebras[0].is_eps_commutative()
    assert failing >= 4


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_axiom_reports_match_the_pointwise_oracles(monkeypatch, m):
    # random brackets and twists, almost never Hom-Jacobi or multiplicative:
    # the failure lists and residual strings equal the pointwise loops'.  The
    # cyclic residual is formed once per rotation class, n + (n^3 - n)/3
    # times (11 at dim 3), and every failing rotation still gets its entry
    rng = random.Random(20261019 + m)
    residual, formed = algebra_core.cyclic_residual, []
    monkeypatch.setattr(algebra_core, "cyclic_residual",
                        lambda *args: formed.append(args[-3:]) or residual(*args))
    failing = rotated = 0
    for _ in range(8):
        table, _, basis, eps = _random_table(rng, m, "skew")
        n = table.dim
        A = ColorHomAlgebra(basis, eps, table, [_random_vector(rng, m, n) for _ in range(n)], m)
        formed.clear()
        jacobi, mult = A.check_jacobi(), A.check_multiplicative()
        assert len(formed) == len(set(formed)) == n + (n ** 3 - n) // 3
        assert json.dumps(jacobi.to_dict()) == json.dumps(check_jacobi_direct(A).to_dict())
        assert json.dumps(mult.to_dict()) == json.dumps(
            check_multiplicative_direct(A).to_dict())
        failing += (not jacobi.ok) + (not mult.ok)
        rotated += assert_rotations_share_residuals(jacobi.failures)
    assert failing >= 8 and rotated


@pytest.mark.parametrize("key", [(0, 2), (2, 0), (-1, 0), (0, 5)])
def test_out_of_range_pair_keys_are_rejected(key):
    with pytest.raises(AlgebraStructureError):
        StructureConstants(2, 2, {key: [sc(1), sc(0)]})
    G = FiniteAbelianGroup((2,))
    basis = GradedBasis(("a", "b"), (G.zero(), G.zero()), G)
    with pytest.raises(AlgebraStructureError):
        BracketTable(basis, BiCharacter(G, [[0]], 2), {key: [sc(1), sc(0)]}, 2)


def test_wrong_vector_length_is_rejected():
    with pytest.raises(AlgebraStructureError):
        StructureConstants(2, 2, {(0, 1): [sc(1)]})


def test_bracket_either_order_gives_the_same_table():
    # [y,x] = z given directly, or as [x,y] = -eps(x,y) z = -zeta z
    basis, eps = _z3z3_basis()
    zeta = CycloScalar.root_of_unity(3)
    zero, one = CycloScalar.zero(3), CycloScalar.one(3)
    from_yx = BracketTable(basis, eps, {(1, 0): [zero, zero, one]}, 3)
    from_xy = BracketTable(basis, eps, {(0, 1): [zero, zero, -zeta]}, 3)
    assert from_yx.equals(from_xy)
    assert from_yx.of_basis(1, 0) == [zero, zero, one]
    assert from_yx.of_basis(0, 1) == [zero, zero, -zeta]


def test_bracket_redundant_input_under_asymmetric_eps():
    # [x,y] = z forces [y,x] = -eps(y,x) z = -zeta^2 z = (1 + zeta) z
    basis, eps = _z3z3_basis()
    zeta = CycloScalar.root_of_unity(3)
    zero, one = CycloScalar.zero(3), CycloScalar.one(3)
    BracketTable(basis, eps, {(0, 1): [zero, zero, one],
                              (1, 0): [zero, zero, one + zeta]}, 3)
    with pytest.raises(AlgebraStructureError):
        BracketTable(basis, eps, {(0, 1): [zero, zero, one],
                                  (1, 0): [zero, zero, -zeta]}, 3)
    with pytest.raises(AlgebraStructureError):
        BracketTable(basis, eps, {(0, 1): [zero, zero, zero],
                                  (1, 0): [zero, zero, one]}, 3)


def test_graded_basis_value_semantics():
    """Bases are compared and hashed by names, degrees and group, and are
    immutable slotted values."""
    G = FiniteAbelianGroup((2, 2))
    degrees = (G.element((1, 0)), G.element((0, 1)))
    basis = GradedBasis(("a", "b"), degrees, G)
    same = GradedBasis(("a", "b"), (G.element((1, 0)), G.element((0, 1))),
                       FiniteAbelianGroup((2, 2)))
    assert basis == same and basis is not same
    assert basis != GradedBasis(("a", "c"), degrees, G)
    other = FiniteAbelianGroup((2, 4))
    assert basis != GradedBasis(("a", "b"), tuple(other.element(d.components)
                                                  for d in degrees), other)
    assert hash(basis) == hash(same) == hash((("a", "b"), degrees, G))
    assert not hasattr(basis, "__dict__")
    for field in ("names", "degrees", "group", "extra"):
        with pytest.raises(AttributeError):
            setattr(basis, field, ())
    with pytest.raises(AlgebraStructureError):
        GradedBasis(("a", "a"), degrees, G)
    with pytest.raises(AlgebraStructureError):
        GradedBasis(("a",), (other.element((1, 0)),), G)


def test_graded_basis_refuses_names_and_degrees_of_different_lengths():
    G = FiniteAbelianGroup((2, 2))
    for names, degrees in ((("a", "b", "c"), (G.zero(),)), (("a",), (G.zero(), G.zero()))):
        with pytest.raises(AlgebraStructureError, match="basis names but"):
            GradedBasis(names, degrees, G)


def test_values_and_algebras_copy_and_pickle():
    """Groups, degrees, bases and whole algebras survive copy, deepcopy and
    pickle as equal values, and a deep copy gives the same reports."""
    A = parse_algebra_file(data_path("sl2c_z2z2.alg"))
    G = A.basis.group
    for value in (G, G.element((1, 0)), A.basis):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
    for clone in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert clone.basis == A.basis and clone.alpha == A.alpha
        assert clone.bracket.rows == A.bracket.rows
    B = copy.deepcopy(A)
    assert check_color_hom_lie(B).to_dict() == check_color_hom_lie(A).to_dict()
    assert (cohomology_group(B, adjoint(B), 2, 0, G.zero()).to_dict()
            == cohomology_group(A, adjoint(A), 2, 0, G.zero()).to_dict())


def test_a_basis_refuses_an_unknown_name():
    basis = sl2c_z2z2().basis
    assert basis.index("e3") == 2
    with pytest.raises(ValueError, match="^tuple.index\\(x\\): x not in tuple$"):
        basis.index("e4")
