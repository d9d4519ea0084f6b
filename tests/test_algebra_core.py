"""Axiom checks, commutator construction, derived Hom-algebras, and the
structure-constant type."""
import random
from fractions import Fraction

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import (AlgebraStructureError, BracketTable,
                                      GradedBasis, HomAssociativeColorAlgebra,
                                      NotHomAssociativeError,
                                      NotMultiplicativeError, StructureConstants,
                                      check_color_hom_lie, commutator_algebra,
                                      derived_algebra)
from colorhomlie.scalars_grading import (BiCharacter, CycloScalar,
                                         FiniteAbelianGroup, euler_phi)

from conftest import (bilinear_direct, build_algebra, sc, sl2c_z2z2,
                      zero_algebra)


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
    # permuting a failing triple changes the residual only by the sorting sign
    A = _non_lie_bracket()
    r123 = A.jacobi_residual(0, 1, 2)
    r213 = A.jacobi_residual(1, 0, 2)
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
    assert gg[0].as_rational() == 2 and gg[1].is_zero()
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
        H = HomAssociativeColorAlgebra(basis, eps, mu, linalg.identity(2, 2), 2)
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


def test_derived_level_one_matches_matrix_power_oracle():
    A = sl2c_z2z2()
    D = derived_algebra(A, 1)
    # oracle: compose the bracket with alpha once, square the twist
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        want = linalg.mat_vec(A.alpha, A.bracket.of_basis(i, j))
        got = D.bracket.of_basis(i, j)
        assert all((a - b).is_zero() for a, b in zip(got, want))
    assert linalg.mat_eq(D.alpha, linalg.mat_mul(A.alpha, A.alpha))
    # alpha is an involution here, so the derived twist is the identity
    assert linalg.mat_eq(D.alpha, linalg.identity(3, 2))
    assert check_color_hom_lie(D).is_color_hom_lie


def test_derived_zero_bracket_any_level():
    A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, [(1, 0), (0, 1)],
                     alpha=[[1, 0], [0, -1]])
    D = derived_algebra(A, 3)
    assert D.bracket.is_zero()
    assert linalg.mat_eq(D.alpha, linalg.mat_pow(A.alpha, 8, 2))


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
        composed = table.compose_with(M)
        assert type(composed) is type(table)
        for i in range(dim):
            for j in range(dim):
                assert composed.of_basis(i, j) == linalg.mat_vec(M, table.of_basis(i, j))
        for u in vectors[:3]:
            for v in vectors[:3]:
                assert composed.bilinear(u, v) == linalg.mat_vec(M, bilinear_direct(table, u, v))
        others = [composed, table.compose_with(linalg.identity(dim, m)),
                  table.compose_with(linalg.zeros(dim, dim, m))]
        for other in others:
            assert table.equals(other) == _dense_equal(table, other)
            assert other.is_zero() == all(c.is_zero() for i in range(dim)
                                          for j in range(dim) for c in other.of_basis(i, j))
        assert table.equals(others[1]) and others[2].is_zero()
        # the report lists every nonzero pair, or only i <= j for a skew table
        names = basis.names
        want = {f"{names[i]},{names[j]}": {names[k]: str(c)
                                           for k, c in enumerate(table.of_basis(i, j))
                                           if not c.is_zero()}
                for i in range(dim) for j in range(dim)
                if (i <= j or kind == "product")
                and any(not c.is_zero() for c in table.of_basis(i, j))}
        assert table.report(names) == want


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
