"""Shared algebra constructions and the dense oracles of the test suite."""
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from colorhomlie import linalg
from colorhomlie.fileio import ParseError, _load_json, parse_matrix
from colorhomlie.algebra_core import (BracketTable, CheckResult, ColorHomAlgebra,
                                      GradedBasis, HomAssociativeColorAlgebra,
                                      StructureConstants, check_color_hom_lie,
                                      commutator_algebra)
from colorhomlie.cohomology import CochainSpace, cochain_basis
from colorhomlie.morphisms_twists import twist
from colorhomlie.structure_theory import (_COMMUTE, NotClosedError, _defining_rows,
                                          _pattern_matrix, degree_pattern, solve_space)
from colorhomlie.scalars_grading import (BiCharacter, CycloScalar,
                                         FiniteAbelianGroup, ScalarError,
                                         cyclotomic_polynomial, euler_phi)

import importlib.resources as resources

DATA = resources.files("colorhomlie") / "data"


def data_path(name: str) -> str:
    return str(DATA / name)


def sc(value, m=2):
    return CycloScalar.from_rational(Fraction(value), m)


def build_algebra(orders, eps_exponents, m, names, degrees, bracket_entries, alpha,
                  name=""):
    group = FiniteAbelianGroup(tuple(orders))
    eps = BiCharacter(group, eps_exponents, m)
    degs = tuple(group.element(tuple(d)) for d in degrees)
    basis = GradedBasis(tuple(names), degs, group)
    entries = {}
    for (i, j), vec in bracket_entries.items():
        entries[(i, j)] = [sc(v, m) for v in vec]
    table = BracketTable(basis, eps, entries, m)
    alpha_m = [[sc(v, m) for v in row] for row in alpha]
    return ColorHomAlgebra(basis, eps, table, alpha_m, m, name=name)


def sl2c_z2z2():
    return build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"],
        [(1, 0), (0, 1), (1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], name="sl2c_z2z2")


def sl2c_z2z2_untwisted():
    """The same bracket with the identity twist (a color Lie algebra)."""
    return build_algebra(
        [2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2", "e3"],
        [(1, 0), (0, 1), (1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [1, 0, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="sl2c_z2z2_lie")


def sl2c_z2z3():
    return build_algebra(
        [2, 2, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, ["e1", "e2", "e3"],
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [1, 0, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="sl2c_z2z3")


def motion_z2z3():
    return build_algebra(
        [2, 2, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, ["e1", "e2", "e3"],
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="motion_z2z3")


def heis_zeta3():
    """The Z3 Heisenberg algebra with alpha = diag(2,3,6), Yau-twisted by
    diag(zeta, zeta, zeta^2); its structure constants lie in Q(zeta_3)."""
    H = build_algebra([3], [[0]], 3, ["e1", "e2", "e3"], [(1,), (1,), (2,)],
                      {(0, 1): [0, 0, 1]}, [[2, 0, 0], [0, 3, 0], [0, 0, 6]],
                      name="heis_z3")
    z, o = CycloScalar.root_of_unity(3, 1), CycloScalar.zero(3)
    beta = [[z, o, o], [o, z, o], [o, o, z * z]]
    return twist(H, beta, name="heis_zeta3")


def heis_zeta(m):
    """The Heisenberg algebra over Z_m x Z_m with eps((a,b),(c,d)) =
    zeta^(ad - bc), |x| = (1,0), |y| = (0,1), |z| = (1,1) and [x,y] = z;
    alpha = diag(2,3,6), Yau-twisted by diag(zeta, zeta^2, zeta^3).  Its
    scalars lie in Q(zeta_m), of degree phi(m) > 2 for m = 5, 7, 8."""
    H = build_algebra([m, m], [[0, 1], [m - 1, 0]], m, ["x", "y", "z"],
                      [(1, 0), (0, 1), (1, 1)], {(0, 1): [0, 0, 1]},
                      [[2, 0, 0], [0, 3, 0], [0, 0, 6]], name=f"heis_z{m}z{m}")
    o = CycloScalar.zero(m)
    beta = [[CycloScalar.root_of_unity(m, i + 1) if i == j else o for j in range(3)]
            for i in range(3)]
    return twist(H, beta, name=f"heis_zeta{m}")


def direct_sum(A, B, name):
    """Block-diagonal sum of two algebras over the same grading and root order."""
    zero = CycloScalar.zero(A.m)
    dim = A.dim + B.dim
    basis = GradedBasis(tuple(f"e{i + 1}" for i in range(dim)),
                        A.basis.degrees + B.basis.degrees, A.basis.group)
    entries = {key: list(vec) + [zero] * B.dim for key, vec in A.bracket.pairs.items()}
    for (i, j), vec in B.bracket.pairs.items():
        entries[(i + A.dim, j + A.dim)] = [zero] * A.dim + list(vec)
    alpha = ([list(row) + [zero] * B.dim for row in A.alpha]
             + [[zero] * A.dim + list(row) for row in B.alpha])
    return ColorHomAlgebra(basis, A.eps, BracketTable(basis, A.eps, entries, A.m),
                           alpha, A.m, name=name)


def clock_shift(n, exponents, name=""):
    """The eps-commutator algebra of M_n with the Z_n x Z_n clock-shift grading:
    deg(X^a Z^b) = (a, b), e_(a,b) e_(c,d) = zeta_n^(bc) e_(a+c,b+d), eps given
    by the exponent matrix, m = n and alpha = Id.  It is indecomposable, so
    its systems are not the near-diagonal ones of a direct sum."""
    group = FiniteAbelianGroup((n, n))
    cells = list(product(range(n), repeat=2))
    basis = GradedBasis(tuple(f"x{a}{b}" for a, b in cells),
                        tuple(group.element(cell) for cell in cells), group)
    zero = CycloScalar.zero(n)
    mu = [[[zero] * len(cells) for _ in cells] for _ in cells]
    for (i, (a, b)), (j, (c, d)) in product(enumerate(cells), repeat=2):
        mu[i][j][cells.index(((a + c) % n, (b + d) % n))] = CycloScalar.root_of_unity(n, b * c)
    one = CycloScalar.one(n)
    A = commutator_algebra(HomAssociativeColorAlgebra(
        basis, BiCharacter(group, exponents, n), mu, {i: {i: one} for i in range(len(cells))}, n))
    return ColorHomAlgebra(A.basis, A.eps, A.bracket, A.alpha, n, name=name)


def clock3():
    """clock_shift at n = 3 with exponents [[0, 1], [2, 0]]: dim 9, m = 3."""
    return clock_shift(3, [[0, 1], [2, 0]], name="clock3")


def clock3_twisted():
    """The Yau twist of clock3 by the character e_i -> zeta^a e_i, where
    |e_i| = (a, b): a grading automorphism, so alpha is diagonal but not a
    scalar."""
    A = clock3()
    zero = CycloScalar.zero(A.m)
    beta = [[CycloScalar.root_of_unity(A.m, A.degree(i).components[0]) if i == j else zero
             for j in range(A.dim)] for i in range(A.dim)]
    return twist(A, beta, name="clock3_twisted")


def semidirect(A, R, coords, gamma, r):
    """The abelian extension L x_omega V[gamma] of A by the module R, for the
    arity-2 cochain omega of degree gamma with free canonical coordinates
    coords: L + V with [x, y] = [x, y]_L + omega(x, y),
    [x, v] = eps(gamma, |x|) rho(alpha^r x) v, [v, w] = 0, twist alpha + beta,
    and v_k of degree |v_k| - gamma, so that omega(x, y) has degree |x| + |y|.
    For omega in the cochain-degree block gamma it is graded, and it is a
    color Hom-Lie algebra exactly when omega is a cocycle of delta_r^2 at
    gamma; built on dense matrices, not on the cochain complex."""
    space, zero = cochain_basis(A, R, 2, gamma), CycloScalar.zero(A.m)
    dim, power = A.dim + R.dim, mat_pow(A.alpha, r, A.m)
    entries = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            vec = [zero] * dim
            for k, c in A.bracket.rows.get((i, j), {}).items():
                vec[k] = c
            for k, c in space.evaluate_basis(coords, (i, j)).items():
                vec[A.dim + k] = c
            entries[(i, j)] = vec
        # [e_i, v_l] is column l of eps(gamma, |e_i|) rho(alpha^r e_i)
        action = mat_scale(A.eps(gamma, A.degree(i)), rho_of(R, [row[i] for row in power]))
        for l in range(R.dim):
            entries[(i, A.dim + l)] = [zero] * A.dim + [row[l] for row in action]
    basis = GradedBasis(A.basis.names + tuple(f"v_{name}" for name in R.carrier.names),
                        A.basis.degrees + tuple(d - gamma for d in R.carrier.degrees),
                        A.basis.group)
    alpha = ([list(row) + [zero] * R.dim for row in A.alpha]
             + [[zero] * A.dim + list(row) for row in R.beta])
    return ColorHomAlgebra(basis, A.eps, BracketTable(basis, A.eps, entries, A.m), alpha, A.m,
                           name=f"{A.name} x V[{gamma}]")


def zero_algebra(orders, eps_exponents, m, degrees, alpha=None):
    dim = len(degrees)
    names = [f"e{i + 1}" for i in range(dim)]
    alpha = alpha if alpha is not None else linalg_identity_rows(dim)
    return build_algebra(orders, eps_exponents, m, names, degrees, {}, alpha)


def linalg_identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# -- lookups, readers and span tests that only the tests use -----------------------

def as_rational(s) -> Fraction:
    """A rational ``CycloScalar`` as a ``Fraction``."""
    if not s.is_rational():
        raise ScalarError(f"{s} is not rational")
    return Fraction(s.num[0], s.den)


def basis_vector(A, i):
    """e_i of an algebra with a ``dim`` and a root order ``m``, dense."""
    return [CycloScalar.one(A.m) if j == i else CycloScalar.zero(A.m) for j in range(A.dim)]


def rho_of(R, coords):
    """rho(x) = sum_j x_j rho(e_j) on the dense matrices R.rho, for the
    algebra element x with the given dense coordinates."""
    out = zeros(R.dim, R.dim, R.m)
    for x, mat in zip(coords, R.rho):
        out = mat_add(out, mat_scale(x, mat))
    return out


def act(R, coords, mvec):
    """rho(x) m for the algebra element x with the given coordinates."""
    return mat_vec_direct(rho_of(R, coords), mvec)


def coord_index(space, tup, k):
    """The free coordinate of carrier component k on a canonical tuple."""
    return space.positions[tup] * space.module.dim + k


def phi_coefficient(phi, s, A):
    """phi_s of a formal automorphism on A, dense; None past its last coefficient."""
    return linalg.dense(phi.phis[s], A.dim, A.m) if s < len(phi.phis) else None


def zeros(rows, cols, m):
    z = CycloScalar.zero(m)
    return [[z for _ in range(cols)] for _ in range(rows)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, M):
    return [[c * a for a in row] for row in M]


def sparse_rows(rows):
    """Dense or sparse rows as the zero-free sparse rows the kernels read, in
    order, an empty row dropped."""
    return list(linalg.sparse(list(rows)).values())


def sparse_vector(vec):
    """A dense or sparse vector as a zero-free sparse one."""
    return linalg.sparse([vec]).get(0, {})


def in_span(rows, vec) -> bool:
    return sparse_vector(vec) in linalg.Echelon(sparse_rows(rows))


def kernel_basis(M, ncols, m):
    """``linalg.sparse_kernel_basis`` of dense or sparse rows, as dense vectors."""
    return linalg.dense(linalg.sparse_kernel_basis(sparse_rows(M), ncols, m), ncols, m)


def span_equal(rows_a, rows_b) -> bool:
    def rank(rows):
        return linalg.rank(sparse_rows(rows))
    return rank(rows_a) == rank(rows_b) == rank(list(rows_a) + list(rows_b))


def is_zero_matrix(M) -> bool:
    return all(a.is_zero() for row in M for a in row)


def assert_zero_free(M):
    """The engine's sparse form: a vector {index: scalar} holds no zero
    entry; a matrix {row: {column: scalar}}, or a list of sparse rows,
    holds no zero entry and no empty row."""
    rows = M.values() if isinstance(M, dict) else M
    if isinstance(M, dict) and not all(isinstance(row, dict) for row in rows):
        rows = [M] if M else []
    for row in rows:
        assert row, "empty row"
        assert not any(c.is_zero() for c in row.values()), row


def assert_rotations_share_residuals(failures):
    """Every rotation of a failing triple fails too, with equal residual
    strings in a list of its own; returns how many failing triples have
    distinct rotations."""
    seen = {tuple(f["triple"]): f["residual"] for f in failures}
    for (x, y, z), residual in seen.items():
        assert seen[(y, z, x)] == seen[(z, x, y)] == residual
    assert len({id(f["residual"]) for f in failures}) == len(failures)
    return sum(len(set(t)) > 1 for t in seen)


def assert_rref(vectors):
    """Dense or sparse vectors in reduced row echelon form: strictly
    increasing leading columns, a 1 at each, and a 0 at every other
    vector's leading column."""
    vectors = [v if isinstance(v, dict) else dict(enumerate(v)) for v in vectors]
    supports = [[c for c, a in sorted(v.items()) if not a.is_zero()] for v in vectors]
    assert all(supports), "zero vector"
    leads = [support[0] for support in supports]
    assert leads == sorted(set(leads)), leads
    for v, lead in zip(vectors, leads):
        assert v[lead] == CycloScalar.one(v[lead].root_order), (lead, v[lead])
        assert all(v.get(other) is None or v[other].is_zero()
                   for other in leads if other != lead), (lead, v)


def mat_pow(M, e, m):
    """M^e by repeated squaring, dense."""
    one, zero, n = CycloScalar.one(m), CycloScalar.zero(m), len(M)
    result = [[one if i == j else zero for j in range(n)] for i in range(n)]
    base = [list(r) for r in M]
    while e:
        if e & 1:
            result = linalg.mat_mul(result, base)
        base = linalg.mat_mul(base, base)
        e >>= 1
    return result


def member_of(space, M, m) -> bool:
    """Exact membership of a matrix in the span of the space's basis, on the
    matrices' dense row-major entries."""
    return in_span([[c for row in B for c in row] for B in space.basis],
                          [c for row in M for c in row])


def degree_report(R, A) -> CheckResult:
    """rho(e_i) must raise carrier degree by deg(e_i); beta must preserve it."""
    degrees = R.carrier.degrees
    cells = list(product(range(R.dim), repeat=2))
    failures = [{"map": A.basis.names[i], "entry": [r, c], "kind": "rho-degree"}
                for i, mat in enumerate(R.rho) for r, c in cells
                if not mat[r][c].is_zero() and degrees[r] != degrees[c] + A.degree(i)]
    failures += [{"entry": [r, c], "kind": "beta-not-even"} for r, c in cells
                 if not R.beta[r][c].is_zero() and degrees[r] != degrees[c]]
    return CheckResult(not failures, failures)


def parse_matrix_bundle(text, m):
    """Named matrices: {"matrices": {"alpha_1": [[...], ...], ...}}."""
    doc = _load_json(text)
    matrices = doc.get("matrices", doc if isinstance(doc, dict) else None)
    if not isinstance(matrices, dict):
        raise ParseError("matrix bundle must map names to matrices")
    return {str(name): parse_matrix(rows, m, text)
            for name, rows in matrices.items() if name != "schema"}


# -- independent operator-form oracles ------------------------------------------

def mat_vec_direct(M, v):
    """M v on dense lists with every cell multiplied, zeros included: the
    tests' one dense matrix-vector product (the engine keeps none)."""
    out = []
    for row in M:
        acc = None
        for a, b in zip(row, v):
            term = a * b
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def mat_mul_direct(A, B):
    """A B by the triple loop over every cell: an oracle for the
    zero-skipping ``linalg.mat_mul``."""
    n, k = len(A), len(B)
    p = len(B[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = None
            for t in range(k):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def rref_direct(rows):
    """Reduced row echelon form (in place on a copy); returns (rows, pivot_cols).

    The dense column-by-column Gauss-Jordan: an oracle for the sparse
    elimination behind ``linalg.rref`` and the other solvers.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * a for a in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def solve_direct(M, target, m):
    """One solution x of M x = target on dense rows, from ``rref_direct`` of
    [M | target], or None when the system is inconsistent."""
    ncols = len(M[0]) if M else 0
    red, pivots = rref_direct([list(row) + [t] for row, t in zip(M, target)])
    x = [CycloScalar.zero(m)] * ncols
    for ri, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[ri][ncols]
    return x


def inverse_direct(M, m):
    """The dense inverse of M from ``rref_direct`` of [M | I], or None when M
    is singular."""
    n, zero, one = len(M), CycloScalar.zero(m), CycloScalar.one(m)
    red, pivots = rref_direct([list(row) + [one if j == i else zero for j in range(n)]
                               for i, row in enumerate(M)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def bilinear_direct(table, u, v):
    """The dense double loop over every basis pair of the inputs' supports:
    an oracle for ``StructureConstants.bilinear``."""
    out = [CycloScalar.zero(table.m)] * table.dim
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        for j, b in enumerate(v):
            if b.is_zero():
                continue
            w = table.of_basis(i, j)
            coeff = a * b
            out = [o + coeff * c for o, c in zip(out, w)]
    return out



# -- pointwise oracles for the identities now evaluated on derived tables ----
#
# The loops below are the engine's former evaluations, kept as they were:
# each identity is evaluated pair by pair or triple by triple through
# ``of_basis``/``bilinear`` and ``mat_vec_direct``, with no derived table.

def jacobi_residual_direct(A, x, y, z):
    """Cyclic sum eps(z,x) [alpha(x), [y, z]] on one basis triple."""
    acc = [CycloScalar.zero(A.m)] * A.dim
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        e = A.eps(A.degree(c), A.degree(a))
        inner = A.bracket.of_basis(b, c)
        outer = A.bracket.bilinear(mat_vec_direct(A.alpha, basis_vector(A, a)), inner)
        acc = [t + e * o for t, o in zip(acc, outer)]
    return acc


def check_jacobi_direct(A):
    failures = []
    for x in range(A.dim):
        for y in range(A.dim):
            for z in range(A.dim):
                res = jacobi_residual_direct(A, x, y, z)
                if any(not c.is_zero() for c in res):
                    failures.append({
                        "triple": [A.basis.names[x], A.basis.names[y],
                                   A.basis.names[z]],
                        "residual": [str(c) for c in res],
                    })
    return CheckResult(not failures, failures)


def check_multiplicative_direct(A):
    failures = []
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = mat_vec_direct(A.alpha, A.bracket.of_basis(i, j))
            rhs = A.bracket.bilinear(mat_vec_direct(A.alpha, basis_vector(A, i)),
                                     mat_vec_direct(A.alpha, basis_vector(A, j)))
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                failures.append({
                    "pair": [A.basis.names[i], A.basis.names[j]],
                    "alpha_of_bracket": [str(c) for c in lhs],
                    "bracket_of_alphas": [str(c) for c in rhs],
                })
    return CheckResult(not failures, failures)


def endomorphism_failures_direct(table, matrix):
    """The dense pair loop: an oracle for the sparse
    ``StructureConstants.endomorphism_failures``."""
    cols = [[row[j] for row in matrix] for j in range(table.dim)]
    failures = []
    for i in range(table.dim):
        for j in range(table.dim):
            lhs = mat_vec_direct(matrix, table.of_basis(i, j))
            rhs = table.bilinear(cols[i], cols[j])
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                failures.append((i, j))
    return failures


def _is_even_direct(A, matrix):
    return all(matrix[i][j].is_zero() or A.degree(i) == A.degree(j)
               for i in range(A.dim) for j in range(A.dim))


def enumerate_morphisms_direct(A, entry_set, strict_even=False):
    """The full product over the columns left after the [v, v] = 0 pruning,
    each candidate checked on every pair: an oracle for the column search of
    ``enumerate_morphisms`` (no budget)."""
    entries = sorted(entry_set, key=lambda s: s.sort_key())
    n = A.dim
    all_columns = [list(col) for col in product(entries, repeat=n)]
    per_index = []
    for i in range(n):
        if all(c.is_zero() for c in A.bracket.of_basis(i, i)):
            per_index.append([v for v in all_columns
                              if all(c.is_zero() for c in A.bracket.bilinear(v, v))])
        else:
            per_index.append(all_columns)
    found = []
    for combo in product(*per_index):
        matrix = [[combo[j][i] for j in range(n)] for i in range(n)]
        even = _is_even_direct(A, matrix)
        if (even or not strict_even) and not endomorphism_failures_direct(A.bracket, matrix):
            found.append((matrix, even))
    found.sort(key=lambda f: tuple(c.sort_key() for row in f[0] for c in row))
    return found


def _alpha_coefficient_direct(B, l):
    if B.alpha_terms is None:
        if l == 0:
            return B.algebra.alpha
        return None
    if l < len(B.alpha_terms):
        return linalg.dense(B.alpha_terms[l], B.algebra.dim, B.algebra.m)
    return None


def _term_direct(B, i):
    return B.terms[i] if i <= B.order else None


def check_deformation_direct(A, B):
    """Order-by-order deformation equations, exhaustively on basis triples."""
    per_order = {}
    for s in range(B.order + 1):
        failures = []
        for x in range(A.dim):
            for y in range(A.dim):
                for z in range(A.dim):
                    acc = [CycloScalar.zero(A.m)] * A.dim
                    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                        e = A.eps(A.degree(c), A.degree(a))
                        for l in range(s + 1):
                            alpha_l = _alpha_coefficient_direct(B, l)
                            if alpha_l is None:
                                continue
                            ax = mat_vec_direct(alpha_l, basis_vector(A, a))
                            for i in range(s - l + 1):
                                j = s - l - i
                                ti, tj = _term_direct(B, i), _term_direct(B, j)
                                if ti is None or tj is None:
                                    continue
                                inner = ti.of_basis(b, c)
                                outer = tj.bilinear(ax, inner)
                                acc = [u + e * v for u, v in zip(acc, outer)]
                    if any(not u.is_zero() for u in acc):
                        failures.append({
                            "order": s,
                            "triple": [A.basis.names[x], A.basis.names[y],
                                       A.basis.names[z]],
                            "residual": [str(c) for c in acc]})
        per_order[s] = CheckResult(not failures, failures)
    return per_order


def check_equivalence_direct(A, B1, B2, phi):
    """phi_t([x,y]_t) = [phi_t x, phi_t y]'_t and phi_t o alpha_t = alpha'_t o phi_t,
    order by order on basis pairs."""
    k = B1.order
    bracket_failures, twist_failures = [], []
    for s in range(k + 1):
        for x in range(A.dim):
            for y in range(A.dim):
                lhs = [CycloScalar.zero(A.m)] * A.dim
                for i in range(s + 1):
                    phi_i = phi_coefficient(phi, i, A)
                    if phi_i is None:
                        continue
                    lhs = [u + v for u, v in zip(
                        lhs, mat_vec_direct(phi_i, B1.terms[s - i].of_basis(x, y)))]
                rhs = [CycloScalar.zero(A.m)] * A.dim
                for a in range(s + 1):
                    pa = phi_coefficient(phi, a, A)
                    if pa is None:
                        continue
                    fx = mat_vec_direct(pa, basis_vector(A, x))
                    for b in range(s - a + 1):
                        pb = phi_coefficient(phi, b, A)
                        if pb is None:
                            continue
                        fy = mat_vec_direct(pb, basis_vector(A, y))
                        c = s - a - b
                        rhs = [u + v for u, v in zip(rhs, B2.terms[c].bilinear(fx, fy))]
                if any(not (u - v).is_zero() for u, v in zip(lhs, rhs)):
                    bracket_failures.append({
                        "order": s, "pair": [A.basis.names[x], A.basis.names[y]]})
        for x in range(A.dim):
            lhs = [CycloScalar.zero(A.m)] * A.dim
            for i in range(s + 1):
                phi_i = phi_coefficient(phi, i, A)
                alpha_j = _alpha_coefficient_direct(B1, s - i)
                if phi_i is None or alpha_j is None:
                    continue
                lhs = [u + v for u, v in zip(
                    lhs, mat_vec_direct(phi_i,
                                       mat_vec_direct(alpha_j, basis_vector(A, x))))]
            rhs = [CycloScalar.zero(A.m)] * A.dim
            for a in range(s + 1):
                alpha_a = _alpha_coefficient_direct(B2, a)
                phi_b = phi_coefficient(phi, s - a, A)
                if alpha_a is None or phi_b is None:
                    continue
                rhs = [u + v for u, v in zip(
                    rhs, mat_vec_direct(alpha_a,
                                       mat_vec_direct(phi_b, basis_vector(A, x))))]
            if any(not (u - v).is_zero() for u, v in zip(lhs, rhs)):
                twist_failures.append({"order": s, "basis": A.basis.names[x]})
    return {
        "bracket": CheckResult(not bracket_failures, bracket_failures),
        "twist": CheckResult(not twist_failures, twist_failures),
        "automorphism": phi.validate(A),
    }


def transport_bracket_direct(A, B1, phi):
    """B2 with [x,y]'_t = phi_t([phi_t^-1 x, phi_t^-1 y]_t), truncated, pair
    by pair; the twist series transports by conjugation."""
    k = B1.order
    psis = phi.inverse_series(A, k)
    new_terms = []
    for s in range(k + 1):
        entries = {}
        for i in range(A.dim):
            for j in range(i, A.dim):
                acc = [CycloScalar.zero(A.m)] * A.dim
                for a in range(s + 1):
                    pa = phi_coefficient(phi, a, A)
                    if pa is None:
                        continue
                    for b in range(s - a + 1):
                        for c in range(s - a - b + 1):
                            d = s - a - b - c
                            px = mat_vec_direct(psis[b], basis_vector(A, i)) \
                                if b < len(psis) else None
                            py = mat_vec_direct(psis[c], basis_vector(A, j)) \
                                if c < len(psis) else None
                            if px is None or py is None:
                                continue
                            inner = B1.terms[d].bilinear(px, py)
                            acc = [u + v for u, v in zip(acc, mat_vec_direct(pa, inner))]
                entries[(i, j)] = acc
        new_terms.append(BracketTable(A.basis, A.eps, entries, A.m))
    if B1.alpha_terms is None:
        base_alpha = [A.alpha]
    else:
        base_alpha = [linalg.dense(M, A.dim, A.m) for M in B1.alpha_terms]
    new_alpha = []
    for s in range(k + 1):
        acc = zeros(A.dim, A.dim, A.m)
        for a in range(s + 1):
            pa = phi_coefficient(phi, a, A)
            if pa is None:
                continue
            for b in range(s - a + 1):
                c = s - a - b
                if b >= len(base_alpha) or c >= len(psis):
                    continue
                acc = mat_add(acc, mat_mul_direct(
                    pa, mat_mul_direct(base_alpha[b], psis[c])))
        new_alpha.append(acc)
    return new_terms, new_alpha


def series_product_direct(f, g, order, n, m):
    """Coefficients 0..order of the product of two dense n x n matrix series,
    a coefficient past the end of either read as zero: the convolution by
    every-cell products."""
    out = []
    for s in range(order + 1):
        acc = zeros(n, n, m)
        for a in range(min(s, len(f) - 1) + 1):
            if s - a < len(g):
                acc = mat_add(acc, mat_mul_direct(f[a], g[s - a]))
        out.append(acc)
    return out


def composition_failing_orders_direct(L, alphas, order):
    """Orders s at which alpha_t[x,y] = [alpha_t x, alpha_t y] fails at t^s."""
    failing_orders = []
    for s in range(order + 1):
        for x in range(L.dim):
            for y in range(L.dim):
                lhs = [CycloScalar.zero(L.m)] * L.dim
                if s < len(alphas):
                    lhs = mat_vec_direct(alphas[s], L.bracket.of_basis(x, y))
                rhs = [CycloScalar.zero(L.m)] * L.dim
                for a in range(s + 1):
                    b = s - a
                    if a >= len(alphas) or b >= len(alphas):
                        continue
                    rhs = [u + v for u, v in zip(rhs, L.bracket.bilinear(
                        mat_vec_direct(alphas[a], basis_vector(L, x)),
                        mat_vec_direct(alphas[b], basis_vector(L, y))))]
                if any(not (u - v).is_zero() for u, v in zip(lhs, rhs)):
                    if s not in failing_orders:
                        failing_orders.append(s)
    return failing_orders


def quotient_reduce_direct(quotient, v):
    """The dense v less its part along Ann: the annihilator rows of the
    quotient put in RREF by the dense elimination, and the entry of v at
    each pivot column cleared in turn."""
    A = quotient.A
    red, pivots = rref_direct(linalg.dense(list(quotient.ann.rows.values()), A.dim, A.m))
    v = list(v)
    for row, pc in zip(red, pivots):
        c = v[pc]
        if not c.is_zero():
            v = [a - c * b for a, b in zip(v, row)]
    return v


def hls_bracket_element_direct(A, D, x, y, quotient=None):
    """Representative of [x.Delta, y.Delta], its table rebuilt on the basis
    pairs the inputs reach and the value reduced at the end."""
    def value(i, j):
        e = A.eps(A.basis.degrees[i], A.basis.degrees[j])
        si = mat_vec_direct(D.sigma, basis_vector(A, i))
        sj = mat_vec_direct(D.sigma, basis_vector(A, j))
        di = mat_vec_direct(D.delta_map, basis_vector(A, i))
        dj = mat_vec_direct(D.delta_map, basis_vector(A, j))
        return [p - e * q for p, q in zip(A.mu.bilinear(si, dj), A.mu.bilinear(sj, di))]

    values = {(i, j): value(i, j) for i, a in enumerate(x) if not a.is_zero()
              for j, b in enumerate(y) if not b.is_zero()}
    out = StructureConstants(A.dim, A.m, values).bilinear(x, y)
    return quotient_reduce_direct(quotient, out) if quotient is not None else out


def check_fgh_direct(A, D, quotient):
    failures = []
    for i in range(A.dim):
        for j in range(A.dim):
            e = A.eps(A.basis.degrees[i], A.basis.degrees[j])
            lhs = hls_bracket_element_direct(A, D, basis_vector(A, i), basis_vector(A, j),
                                             quotient)
            rhs = [-e * c for c in hls_bracket_element_direct(A, D, basis_vector(A, j),
                                                              basis_vector(A, i), quotient)]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                failures.append({"pair": [A.basis.names[i], A.basis.names[j]]})
    return CheckResult(not failures, failures)


def check_mnop_direct(A, D, quotient, delta_scalar=None):
    """Cyclic sum eps(z,x)([sigma(x).Delta, [y.Delta, z.Delta]] +
    delta [x.Delta, [y.Delta, z.Delta]]) = 0 on basis triples, mod Ann."""
    d = D.delta_scalar if delta_scalar is None else delta_scalar
    failures = []
    for x in range(A.dim):
        for y in range(A.dim):
            for z in range(A.dim):
                acc = [CycloScalar.zero(A.m)] * A.dim
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    e = A.eps(A.basis.degrees[c], A.basis.degrees[a])
                    inner = hls_bracket_element_direct(A, D, basis_vector(A, b),
                                                       basis_vector(A, c), quotient)
                    sx = mat_vec_direct(D.sigma, basis_vector(A, a))
                    t1 = hls_bracket_element_direct(A, D, sx, inner, quotient)
                    t2 = hls_bracket_element_direct(A, D, basis_vector(A, a), inner,
                                                    quotient)
                    acc = [u + e * (p + d * q) for u, p, q in zip(acc, t1, t2)]
                acc = quotient_reduce_direct(quotient, acc)
                if any(not u.is_zero() for u in acc):
                    failures.append({
                        "triple": [A.basis.names[x], A.basis.names[y], A.basis.names[z]],
                        "residual": [str(c) for c in acc]})
    return CheckResult(not failures, failures)


def delta1_direct(A, R, fmat, gamma, r):
    """eps(g,x) rho(a^r x)(f(y)) - eps(g+x,y) rho(a^r y)(f(x)) - f([x,y])."""
    out, ar = {}, linalg.dense(A.alpha_sparse(r), A.dim, A.m)
    for x in range(A.dim):
        for y in range(A.dim):
            dx, dy = A.degree(x), A.degree(y)
            fx = [fmat[i][x] for i in range(A.dim)]
            fy = [fmat[i][y] for i in range(A.dim)]
            t1 = act(R, mat_vec_direct(ar, basis_vector(A, x)), fy)
            t2 = act(R, mat_vec_direct(ar, basis_vector(A, y)), fx)
            fb = mat_vec_direct(fmat, A.bracket.of_basis(x, y))
            c1 = A.eps(gamma, dx)
            c2 = A.eps(gamma + dx, dy)
            out[(x, y)] = [c1 * a - c2 * b - c for a, b, c in zip(t1, t2, fb)]
    return out


def delta2_direct(A, R, psi, gamma, r):
    """Arity-2 operator form with rho(alpha^(r+1) x) coefficients."""
    def ev(i, j):
        if i == j:
            if not A.eps.sign_is_minus_one(A.degree(i), A.degree(i)):
                return [CycloScalar.zero(A.m)] * R.dim
        if (i, j) in psi:
            return psi[(i, j)]
        s = -A.eps(A.degree(i), A.degree(j))
        return [s * c for c in psi[(j, i)]]
    def ev_vec(u, v):
        out = [CycloScalar.zero(A.m)] * R.dim
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if b.is_zero():
                    continue
                coeff = a * b
                out = [o + coeff * c for o, c in zip(out, ev(i, j))]
        return out
    out, ar = {}, linalg.dense(A.alpha_sparse(r + 1), A.dim, A.m)
    for x, y, z in product(range(A.dim), repeat=3):
        dx, dy, dz = A.degree(x), A.degree(y), A.degree(z)
        acc = [CycloScalar.zero(A.m)] * R.dim
        t1 = act(R, mat_vec_direct(ar, basis_vector(A, x)), ev(y, z))
        t2 = act(R, mat_vec_direct(ar, basis_vector(A, y)), ev(x, z))
        t3 = act(R, mat_vec_direct(ar, basis_vector(A, z)), ev(x, y))
        c1 = A.eps(gamma, dx)
        c2 = A.eps(gamma + dx, dy)
        c3 = A.eps(gamma + dx + dy, dz)
        u1 = ev_vec(A.bracket.of_basis(x, y), mat_vec_direct(A.alpha, basis_vector(A, z)))
        u2 = ev_vec(A.bracket.of_basis(x, z), mat_vec_direct(A.alpha, basis_vector(A, y)))
        u3 = ev_vec(mat_vec_direct(A.alpha, basis_vector(A, x)), A.bracket.of_basis(y, z))
        s02 = A.eps(dy, dz)
        for k in range(R.dim):
            acc[k] = (c1 * t1[k] - c2 * t2[k] + c3 * t3[k]
                      - u1[k] + s02 * u2[k] + u3[k])
        out[(x, y, z)] = acc
    return out


def densify(space, vectors):
    """Sparse {coordinate: scalar} cochain vectors as fresh dense lists of
    length space.free_dim."""
    zero = CycloScalar.zero(space.algebra.m)
    return [[v.get(c, zero) for c in range(space.free_dim)] for v in vectors]


def compat_rows_direct(A, R, n, tuples):
    """Equation rows of f o alpha^(x)n - beta o f over all basis n-tuples.

    Dense and per free coordinate through the multilinear
    ``CochainSpace.evaluate``: an oracle for the sparse rows behind
    ``cochain_basis``.  Rows are grouped per basis n-tuple in ``product``
    order, carrier index last.
    """
    mdim = R.dim
    free_dim = len(tuples) * mdim
    space = CochainSpace(A, R, n, A.basis.group.zero(), tuples, [])
    one = CycloScalar.one(A.m)
    if n == 0:
        # constraint (I - beta) m = 0
        rows = []
        for r in range(mdim):
            rows.append([(one if r == c else CycloScalar.zero(A.m)) - R.beta[r][c]
                         for c in range(mdim)])
        return rows
    if free_dim == 0:
        return []
    alpha_images = [sparse_vector(mat_vec_direct(A.alpha, basis_vector(A, i)))
                    for i in range(A.dim)]
    # one constraint column per free coordinate, then transpose into rows
    cols = []
    for ci in range(free_dim):
        unit = {ci: one}
        col = []
        for combo in product(range(A.dim), repeat=n):
            lhs, value = linalg.dense([space.evaluate(unit, [alpha_images[i] for i in combo]),
                                       space.evaluate_basis(unit, combo)], mdim, A.m)
            col.extend(a - b for a, b in zip(lhs, mat_vec_direct(R.beta, value)))
        cols.append(col)
    return [[cols[ci][ri] for ci in range(free_dim)] for ri in range(len(cols[0]))]


def _unit_matrices_direct(A, pattern):
    one = CycloScalar.one(A.m)
    units = []
    for (i, j) in pattern:
        M = zeros(A.dim, A.dim, A.m)
        M[i][j] = one
        units.append(M)
    return units


def _commute_rows_direct(A, units, offset, nvars):
    """Rows of [D, alpha] = 0 for the variable block starting at offset."""
    rows = []
    z = CycloScalar.zero(A.m)
    images = [mat_add(mat_mul_direct(U, A.alpha),
                             mat_scale(CycloScalar.from_rational(-1, A.m),
                                              mat_mul_direct(A.alpha, U)))
              for U in units]
    for i in range(A.dim):
        for j in range(A.dim):
            row = [z] * nvars
            nonzero = False
            for t, img in enumerate(images):
                row[offset + t] = img[i][j]
                nonzero = nonzero or not img[i][j].is_zero()
            if nonzero:
                rows.append(row)
    return rows


def identity_holds_on_all_pairs_direct(A, space, D):
    """The verdict of ``structure_theory.reverify_space`` on one matrix D of
    a der, centroid or qcentroid space, with its identity evaluated on every
    basis pair: the evaluation as it stood before re-verification skipped
    the pairs (x, y) with D e_x = D e_y = 0 and [e_x, e_y] = 0."""
    kind = space.kind
    commute = space.commute or _COMMUTE[kind] == (True,)
    sparse_D, alpha = linalg.sparse(D), A.alpha_sparse(1)
    if commute and linalg._product(sparse_D, alpha) != linalg._product(alpha, sparse_D):
        return False
    bracket, d_e = A.bracket, linalg._transpose(sparse_D)
    ak_e = linalg._transpose(A.alpha_sparse(space.k))
    for x, y in product(range(A.dim), repeat=2):
        e = A.eps(space.gamma, A.degree(x))
        left = bracket.sparse_bilinear(d_e.get(x, {}), ak_e.get(y, {}))
        right = {c: e * v for c, v in
                 bracket.sparse_bilinear(ak_e.get(x, {}), d_e.get(y, {})).items()}
        if kind == "qcentroid":
            holds = left == right
        else:
            dxy = bracket.mapped_row(x, y, d_e)
            if kind == "centroid":
                holds = dxy == left == right
            else:
                linalg._add_scaled(left, None, right)
                holds = dxy == left
        if not holds:
            return False
    return True


def defining_rows_direct(A, k, gamma, kind, pattern, commute):
    """Equation rows of a derivation-type space, through dense unit matrices.

    Each unknown is the coefficient of a unit matrix E_ij on the degree
    pattern, and every equation is evaluated by multiplying that matrix out:
    an oracle for ``structure_theory._defining_rows``, with the same unknown
    layout (der/centroid/qcentroid: D; qder: (D, D'); gder: (D, D', D''))
    and the same rows in the same order.
    """
    units = _unit_matrices_direct(A, pattern)
    nD = len(pattern)
    blocks = {"der": 1, "centroid": 1, "qcentroid": 1, "qder": 2, "gder": 3}[kind]
    nvars = blocks * nD
    z = CycloScalar.zero(A.m)
    rows = []
    E, ak = [basis_vector(A, i) for i in range(A.dim)], linalg.dense(A.alpha_sparse(k), A.dim, A.m)
    for x in range(A.dim):
        akx = mat_vec_direct(ak, E[x])
        e = A.eps(gamma, A.degree(x))
        for y in range(A.dim):
            aky = mat_vec_direct(ak, E[y])
            bxy = A.bracket.of_basis(x, y)
            # per unit matrix, the three bracket-type contributions
            d_of_bracket = [mat_vec_direct(U, bxy) for U in units]
            left = [A.bracket.bilinear(mat_vec_direct(U, E[x]), aky) for U in units]
            right = [A.bracket.bilinear(akx, mat_vec_direct(U, E[y])) for U in units]
            def emit(coeff_for):
                for comp in range(A.dim):
                    row = [z] * nvars
                    for t in range(nD):
                        for block, vec_scale in coeff_for(t):
                            val = vec_scale[comp]
                            if not val.is_zero():
                                row[block * nD + t] = row[block * nD + t] + val
                    rows.append(row)
            if kind == "der":
                emit(lambda t: [(0, [a - b - e * c for a, b, c in
                                     zip(d_of_bracket[t], left[t], right[t])])])
            elif kind == "qder":
                # D'([x,y]) = [D x, a^k y] + e [a^k x, D y]
                emit(lambda t: [(0, [-(b + e * c) for b, c in zip(left[t], right[t])]),
                                (1, d_of_bracket[t])])
            elif kind == "gder":
                # D''([x,y]) = [D x, a^k y] + e [a^k x, D' y]
                emit(lambda t: [(0, [-b for b in left[t]]),
                                (1, [-(e * c) for c in right[t]]),
                                (2, d_of_bracket[t])])
            elif kind == "centroid":
                emit(lambda t: [(0, [a - b for a, b in zip(d_of_bracket[t], left[t])])])
                emit(lambda t: [(0, [a - e * c for a, c in zip(d_of_bracket[t], right[t])])])
            elif kind == "qcentroid":
                emit(lambda t: [(0, [b - e * c for b, c in zip(left[t], right[t])])])
    if commute:
        for block in range(blocks):
            rows.extend(_commute_rows_direct(A, units, block * nD, nvars))
    return rows, nvars, nD


def forward_kernel_basis_direct(M, ncols, m):
    """Basis of {v : M v = 0}, one vector per free column of the forward
    rref of M, read off it: the kernel as ``linalg.sparse_kernel_basis``
    gave it before that returned the reduced row echelon basis."""
    red, pivots = linalg.rref(sparse_rows(M))
    o, pivot_set = CycloScalar.one(m), set(pivots)
    basis = {fc: {fc: o} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(red, pivots):
        for c, a in row.items():
            if c != pc:
                basis[c][pc] = -a
    return list(basis.values())


def solve_space_two_pass_direct(A, kind, k, gamma):
    """The spanning matrices of ``solve_space`` at the kind's default commute
    flag, in two eliminations: the forward kernel of the defining rows,
    projected onto the D block, and the rref of that projection."""
    pattern = degree_pattern(A, gamma)
    if not pattern:
        return []
    rows, nvars, nD = _defining_rows(A, k, gamma, kind, pattern, _COMMUTE[kind][0])
    flats = [{t: c for t, c in v.items() if t < nD}
             for v in forward_kernel_basis_direct(rows, nvars, A.m)]
    return [linalg.dense(_pattern_matrix(pattern, v), A.dim, A.m)
            for v in linalg.rref(flats)[0]]


def partner_rows_direct(A, k, gamma, D, kind):
    """Equations (rows, rhs) on the qder/gder partner maps of D, through dense
    unit matrices: an oracle for ``structure_theory._partner_rows``, with the
    same unknown layout (qder: P; gder: (P1, P2)) and rows in the same order.

    qder: one unknown P with P([x,y]) = [D x, a^k y] + eps(gamma,x)[a^k x, D y];
    gder: unknowns (P1, P2) with P2([x,y]) - eps(gamma,x)[a^k x, P1 y] = [D x, a^k y].
    """
    pattern = [(i, j) for i in range(A.dim) for j in range(A.dim)
               if A.degree(i) == A.degree(j) + gamma]
    units = _unit_matrices_direct(A, pattern)
    nD = len(pattern)
    blocks = 1 if kind == "qder" else 2
    nvars = blocks * nD
    z = CycloScalar.zero(A.m)
    rows, rhs = [], []
    E, ak = [basis_vector(A, i) for i in range(A.dim)], linalg.dense(A.alpha_sparse(k), A.dim, A.m)
    for x in range(A.dim):
        akx = mat_vec_direct(ak, E[x])
        e = A.eps(gamma, A.degree(x))
        for y in range(A.dim):
            aky = mat_vec_direct(ak, E[y])
            bxy = A.bracket.of_basis(x, y)
            p_of_bracket = [mat_vec_direct(U, bxy) for U in units]
            t1 = A.bracket.bilinear(mat_vec_direct(D, E[x]), aky)
            if kind == "qder":
                t2 = A.bracket.bilinear(akx, mat_vec_direct(D, E[y]))
                target = [a + e * b for a, b in zip(t1, t2)]
                for comp in range(A.dim):
                    rows.append([u[comp] for u in p_of_bracket])
                    rhs.append(target[comp])
            else:
                right_units = [A.bracket.bilinear(akx, mat_vec_direct(U, E[y]))
                               for U in units]
                for comp in range(A.dim):
                    row = [z] * nvars
                    for t in range(nD):
                        row[t] = -e * right_units[t][comp]
                        row[nD + t] = p_of_bracket[t][comp]
                    rows.append(row)
                    rhs.append(t1[comp])
    for block in range(blocks):
        commute = _commute_rows_direct(A, units, block * nD, nvars)
        rows.extend(commute)
        rhs.extend([z] * len(commute))
    return rows, rhs


def hom_jordan_direct(J):
    """Commutativity law on pairs and the twisted Jordan identity on
    quadruples, every product and associator recomputed per quadruple: an
    oracle for ``structure_theory.check_hom_jordan``."""
    n = J.dim
    m = J.m
    E = [basis_vector(J, i) for i in range(n)]
    hcj1 = []
    for i in range(n):
        for j in range(n):
            e = J.eps(J.degrees[i], J.degrees[j])
            lhs = J.mu.bilinear(E[i], E[j])
            rhs = [e * c for c in J.mu.bilinear(E[j], E[i])]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                hcj1.append({"pair": [i, j]})
    def _assoc(u, v, w):
        """Plain Hom-associator as(u,v,w) = (u.v).alpha(w) - alpha(u).(v.w)."""
        aw = mat_vec_direct(J.alpha_action, w)
        au = mat_vec_direct(J.alpha_action, u)
        t1 = J.mu.bilinear(J.mu.bilinear(u, v), aw)
        t2 = J.mu.bilinear(au, J.mu.bilinear(v, w))
        return [a - b for a, b in zip(t1, t2)]
    hcj2 = []
    for x, y, z, w in product(range(n), repeat=4):
        dx, dy, dz, dw = (J.degrees[t] for t in (x, y, z, w))
        az = mat_vec_direct(J.alpha_action, E[z])
        ax = mat_vec_direct(J.alpha_action, E[x])
        ay = mat_vec_direct(J.alpha_action, E[y])
        aw = mat_vec_direct(J.alpha_action, E[w])
        t1 = _assoc(J.mu.bilinear(E[x], E[y]), az, aw)
        t2 = _assoc(J.mu.bilinear(E[y], E[w]), az, ax)
        t3 = _assoc(J.mu.bilinear(E[w], E[x]), az, ay)
        e1 = J.eps(dw, dx + dz)
        e2 = J.eps(dx, dy + dz)
        e3 = J.eps(dy, dw + dz)
        acc = [e1 * a + e2 * b + e3 * c for a, b, c in zip(t1, t2, t3)]
        if any(not a.is_zero() for a in acc):
            hcj2.append({"quadruple": [x, y, z, w],
                         "residual": [str(c) for c in acc]})
    return {"hcj1": CheckResult(not hcj1, hcj1),
            "hcj2": CheckResult(not hcj2, hcj2)}


def _express_in_span(matrices, M, m):
    """The coordinates of M in the given matrices by one fresh dense
    ``solve_direct`` of the flattened system, or None: an oracle for the
    coordinates ``quasi_centroid_jordan`` forms as C^-1 v[P], from the one
    inverse of the picks' entries at the pivot columns of its echelon form."""
    flat_basis, flat = [[c for row in B for c in row] for B in matrices], \
        [c for row in M for c in row]
    rows = [[fb[i] for fb in flat_basis] for i in range(len(flat))]
    return solve_direct(rows, flat, m)


def quasi_centroid_jordan_direct(A, max_power=2, commute_with_alpha=False):
    """(matrices, degrees, table, alpha_action) of the quasi-centroid product,
    with the span rebuilt for each candidate, every product and conjugate
    formed densely and every coordinate vector a fresh ``_express_in_span``;
    NotClosedError as ``quasi_centroid_jordan`` raises it: an oracle for that
    function."""
    alpha_inv = inverse_direct(A.alpha, A.m)
    matrices, degrees = [], []
    for k in range(max_power + 1):
        for gamma in A.basis.group.elements():
            for M in solve_space(A, "qcentroid", k, gamma, commute_with_alpha).basis:
                if _express_in_span(matrices, M, A.m) is None:
                    matrices.append(M)
                    degrees.append(gamma)
    n = len(matrices)
    table = [[None] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        e = A.eps(degrees[i], degrees[j])
        P, Q = mat_mul_direct(matrices[i], matrices[j]), mat_mul_direct(matrices[j], matrices[i])
        table[i][j] = _express_in_span(
            matrices, [[p + e * q for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)], A.m)
        if table[i][j] is None:
            raise NotClosedError(
                f"quasi-centroid is not closed under the product at pair ({i},{j})")
    cols = [_express_in_span(matrices, mat_mul_direct(A.alpha, mat_mul_direct(M, alpha_inv)),
                             A.m) for M in matrices]
    if None in cols:
        raise NotClosedError("twist conjugation leaves the quasi-centroid span")
    return matrices, degrees, table, [list(r) for r in zip(*cols)]


def inclusion_lattice_direct(A, k_range, gamma_range):
    """The inclusion-law report with every space solved per use, the degree
    pattern searched as a list, every product by the every-cell loop and
    membership decided by the rank under ``rref_direct``: an oracle for
    ``structure_theory.check_inclusion_lattice``."""
    def rank(rows):
        return len(rref_direct(rows)[1]) if rows else 0
    def member(kind, k, gamma, M):
        basis = [[c for row in B for c in row] for B in solve_space(A, kind, k, gamma).basis]
        return rank(basis + [[c for row in M for c in row]]) == rank(basis)
    failures = {"centroid_in_qder": [], "centroid_compose_gder": [],
                "qcentroid_brackets": []}
    for k, gamma in product(k_range, gamma_range):
        for M in solve_space(A, "centroid", k, gamma).basis:
            if not member("qder", k, gamma, M):
                failures["centroid_in_qder"].append({"k": k, "degree": list(gamma.components)})
    for k, kp, gamma, gp in product(k_range, k_range, gamma_range, gamma_range):
        for C in solve_space(A, "centroid", kp, gp).basis:
            for D in solve_space(A, "gder", k, gamma).basis:
                comp = mat_mul_direct(C, D)
                pat = degree_pattern(A, gamma + gp)
                for i, j in product(range(A.dim), repeat=2):
                    if not comp[i][j].is_zero() and (i, j) not in pat:
                        failures["centroid_compose_gder"].append(
                            {"reason": "degree pattern", "k": k, "kp": kp})
                if not member("gder", k + kp, gamma + gp, comp):
                    failures["centroid_compose_gder"].append(
                        {"k": k, "kp": kp, "degree": list((gamma + gp).components)})
    for k, kp, gamma, gp in product(k_range, k_range, gamma_range, gamma_range):
        e = A.eps(gamma, gp)
        for D1 in solve_space(A, "qcentroid", k, gamma).basis:
            for D2 in solve_space(A, "qcentroid", kp, gp).basis:
                P, Q = mat_mul_direct(D1, D2), mat_mul_direct(D2, D1)
                brk = [[p - e * q for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)]
                if not member("gder", k + kp, gamma + gp, brk):
                    failures["qcentroid_brackets"].append(
                        {"k": k, "kp": kp, "degree": list((gamma + gp).components)})
    return {name: CheckResult(not items, items) for name, items in failures.items()}


# The arity-2 cocycle families the worked Z2xZ2 example lists per degree
# label (adjoint module, r = 0), as (pair, component, value) entries of
# psi(e_i, e_j) on the canonical pairs.
SL2C_Z2Z2_CASE_FAMILIES = {
    "g1": [[((0, 1), 1, 1), ((0, 2), 2, 1)],   # psi(e1,e2)=e2, psi(e1,e3)=e3
           [((0, 1), 2, 1)],                   # psi(e1,e2)=e3
           [((0, 2), 0, 1), ((1, 2), 1, 1)],   # psi(e1,e3)=e1, psi(e2,e3)=e2
           [((0, 2), 1, 1)]],                  # psi(e1,e3)=e2
    "g2": [[((0, 1), 2, 1)], [((1, 2), 0, 1)]],
    "g3": [[((0, 2), 0, 1), ((1, 2), 1, -1)],
           [((0, 2), 1, 1)], [((1, 2), 0, 1)]],
}


# -- dense oracles for the checks that now act on sparse operators ------------
#
# The engine's former evaluations, kept as they were: each identity applied
# to dense basis vectors and dense matrices, entry by entry.

def check_hom_associative_direct(H):
    failures = []
    mu = H.mu
    E = [basis_vector(H, i) for i in range(H.dim)]
    for x in range(H.dim):
        ax = mat_vec_direct(H.alpha, E[x])
        for y in range(H.dim):
            for z in range(H.dim):
                az = mat_vec_direct(H.alpha, E[z])
                lhs = mu.bilinear(ax, mu.of_basis(y, z))
                rhs = mu.bilinear(mu.of_basis(x, y), az)
                if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                    failures.append({"triple": [H.basis.names[x], H.basis.names[y],
                                                H.basis.names[z]]})
    return CheckResult(not failures, failures)


def is_eps_commutative_direct(H):
    for i in range(H.dim):
        for j in range(H.dim):
            e = H.eps(H.basis.degrees[i], H.basis.degrees[j])
            lhs = H.mu.of_basis(i, j)
            rhs = [e * c for c in H.mu.of_basis(j, i)]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                return False
    return True


def check_representation_direct(A, R):
    failures = []
    for i in range(A.dim):
        rho_ai = rho_of(R, mat_vec_direct(A.alpha, basis_vector(A, i)))
        for j in range(A.dim):
            rho_aj = rho_of(R, mat_vec_direct(A.alpha, basis_vector(A, j)))
            lhs = mat_mul_direct(rho_of(R, A.bracket.of_basis(i, j)), R.beta)
            e = A.eps(A.degree(i), A.degree(j))
            rhs = mat_add(mat_mul_direct(rho_ai, R.rho[j]),
                                 mat_scale(-e, mat_mul_direct(rho_aj, R.rho[i])))
            if lhs != rhs:
                failures.append({"pair": [A.basis.names[i], A.basis.names[j]]})
    return CheckResult(not failures, failures)


def check_module_direct(A, M):
    failures = []
    n = M.carrier.dim
    E = [basis_vector(M, mv) for mv in range(n)]
    for i in range(A.dim):
        ai = mat_vec_direct(A.alpha, basis_vector(A, i))
        for mv in range(n):
            lhs = mat_vec_direct(M.beta, act(M, basis_vector(A, i), E[mv]))
            rhs = act(M, ai, mat_vec_direct(M.beta, E[mv]))
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                failures.append({"kind": "twist-compatibility",
                                 "witness": [A.basis.names[i], mv]})
    for i in range(A.dim):
        ai = mat_vec_direct(A.alpha, basis_vector(A, i))
        for j in range(A.dim):
            aj = mat_vec_direct(A.alpha, basis_vector(A, j))
            e = A.eps(A.degree(i), A.degree(j))
            bij = A.bracket.of_basis(i, j)
            for mv in range(n):
                lhs = act(M, bij, mat_vec_direct(M.beta, E[mv]))
                t1 = act(M, ai, act(M, basis_vector(A, j), E[mv]))
                t2 = act(M, aj, act(M, basis_vector(A, i), E[mv]))
                rhs = [a - e * b for a, b in zip(t1, t2)]
                if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                    failures.append({"kind": "leibniz",
                                     "witness": [A.basis.names[i], A.basis.names[j], mv]})
    return CheckResult(not failures, failures)


def check_coadjoint_direct(A, R):
    failures = []
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = mat_mul_direct(R.beta, rho_of(R, A.bracket.of_basis(i, j)))
            e = A.eps(A.degree(i), A.degree(j))
            rhs = mat_add(
                mat_scale(e, mat_mul_direct(
                    R.rho[i], rho_of(R, mat_vec_direct(A.alpha, basis_vector(A, j))))),
                mat_scale(CycloScalar.from_rational(-1, A.m), mat_mul_direct(
                    R.rho[j], rho_of(R, mat_vec_direct(A.alpha, basis_vector(A, i))))))
            if lhs != rhs:
                failures.append({"pair": [A.basis.names[i], A.basis.names[j]]})
    return CheckResult(not failures, failures)


def alpha_s_adjoint_direct(A, s):
    """The matrices rho(e_i) of ad_s: column j is [alpha^s e_i, e_j]."""
    rho = []
    for i in range(A.dim):
        shifted = mat_vec_direct(linalg.dense(A.alpha_sparse(s), A.dim, A.m),
                                 basis_vector(A, i))
        cols = [A.bracket.bilinear(shifted, basis_vector(A, j)) for j in range(A.dim)]
        rho.append([[col[k] for col in cols] for k in range(A.dim)])
    return rho


def check_sigma_derivation_direct(A, D):
    """The cd1 and cd2 failure lists."""
    cd1 = []
    for j in range(A.dim):
        target = A.basis.degrees[j] + D.grade_d
        for i in range(A.dim):
            if not D.delta_map[i][j].is_zero() and A.basis.degrees[i] != target:
                cd1.append({"from": A.basis.names[j], "to": A.basis.names[i]})
    cd2 = []
    for i in range(A.dim):
        si = mat_vec_direct(D.sigma, basis_vector(A, i))
        di = mat_vec_direct(D.delta_map, basis_vector(A, i))
        e = A.eps(D.grade_d, A.basis.degrees[i])
        for j in range(A.dim):
            dj = mat_vec_direct(D.delta_map, basis_vector(A, j))
            lhs = mat_vec_direct(D.delta_map, A.mu.of_basis(i, j))
            rhs = [a + e * b for a, b in
                   zip(A.mu.bilinear(di, basis_vector(A, j)), A.mu.bilinear(si, dj))]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                cd2.append({"pair": [A.basis.names[i], A.basis.names[j]],
                            "lhs": [str(c) for c in lhs], "rhs": [str(c) for c in rhs]})
    return cd1, cd2


def check_ijkl_direct(A, D, d):
    failures = []
    for i in range(A.dim):
        lhs = mat_vec_direct(D.delta_map, mat_vec_direct(D.sigma, basis_vector(A, i)))
        rhs = [d * c for c in mat_vec_direct(D.sigma,
                                             mat_vec_direct(D.delta_map, basis_vector(A, i)))]
        if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
            failures.append({"basis": A.basis.names[i], "lhs": [str(c) for c in lhs],
                             "rhs": [str(c) for c in rhs]})
    return CheckResult(not failures, failures)


def annihilator_direct(A, D):
    """Ann(Delta) from the dense equation rows, through the dense elimination:
    the forward kernel basis, in its reduced row echelon form."""
    rows = []
    for w in range(A.dim):
        dw = mat_vec_direct(D.delta_map, basis_vector(A, w))
        products = [A.mu.bilinear(basis_vector(A, a), dw) for a in range(A.dim)]
        for comp in range(A.dim):
            rows.append([products[a][comp] for a in range(A.dim)])
    red, pivots = rref_direct(rows)
    zero, one = CycloScalar.zero(A.m), CycloScalar.one(A.m)
    basis = []
    for free in (c for c in range(A.dim) if c not in pivots):
        v = [one if c == free else zero for c in range(A.dim)]
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return rref_direct(basis)[0]


# -- randomized valid multiplicative algebras --------------------------------

_Z3_GROUPS = {
    "z2xz2": ([2, 2], [[0, 1], [1, 0]], 2),
    "z2^3": ([2, 2, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2),
    "z3": ([3], [[0]], 3),
}


def _rescale(A: ColorHomAlgebra, scales):
    """Conjugate by an invertible diagonal map e_i -> c_i e_i."""
    m = A.m
    cs = [sc(c, m) for c in scales]
    entries = {}
    for (i, j), vec in A.bracket.pairs.items():
        coeff = cs[i] * cs[j]
        entries[(i, j)] = [coeff * v / cs[k] for k, v in enumerate(vec)]
    table = BracketTable(A.basis, A.eps, entries, m)
    # diagonal conjugation leaves a diagonal alpha alone and conjugates others
    D = [[cs[i] if i == j else CycloScalar.zero(m) for j in range(A.dim)]
         for i in range(A.dim)]
    Dinv = [[cs[i].inverse() if i == j else CycloScalar.zero(m)
             for j in range(A.dim)] for i in range(A.dim)]
    alpha = mat_mul_direct(D, mat_mul_direct(A.alpha, Dinv))
    return ColorHomAlgebra(A.basis, A.eps, table, alpha, m, name=A.name + "_rescaled")


def random_multiplicative_algebra(rng: random.Random) -> ColorHomAlgebra:
    """A random valid multiplicative color Hom-Lie algebra of dim <= 4.

    Built from seed families whose axioms are known, then rescaled by a
    random invertible diagonal change of basis; the result is re-validated.
    """
    kind = rng.choice(["zero_z2z2", "zero_z3", "sl2_twisted", "heis_z3",
                       "sl2_z2z2", "solvable_z2z2", "super_z2"])
    if kind == "zero_z2z2":
        degs = [rng.choice([(0, 0), (1, 0), (0, 1), (1, 1)])
                for _ in range(rng.randint(1, 4))]
        diag = [rng.choice([1, -1, 2]) for _ in degs]
        A = zero_algebra([2, 2], [[0, 1], [1, 0]], 2, degs,
                         [[diag[i] if i == j else 0 for j in range(len(degs))]
                          for i in range(len(degs))])
    elif kind == "zero_z3":
        degs = [rng.choice([(0,), (1,), (2,)]) for _ in range(rng.randint(1, 4))]
        A = zero_algebra([3], [[0]], 3, degs)
    elif kind == "sl2_twisted":
        base = sl2c_z2z3()
        diag_choices = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
        d = rng.choice(diag_choices)
        beta = [[sc(d[i] if i == j else 0, 2) for j in range(3)] for i in range(3)]
        A = twist(base, beta, name="sl2_twisted")
    elif kind == "heis_z3":
        a, b = rng.choice([1, 2, -1]), rng.choice([1, 3, -2])
        A = build_algebra([3], [[0]], 3, ["e1", "e2", "e3"],
                          [(1,), (1,), (2,)], {(0, 1): [0, 0, 1]},
                          [[a, 0, 0], [0, b, 0], [0, 0, a * b]], name="heis_z3")
    elif kind == "solvable_z2z2":
        t = rng.choice([1, 2, 5, -1])
        A = build_algebra([2, 2], [[0, 1], [1, 0]], 2, ["e1", "e2"],
                          [(0, 0), (1, 0)], {(0, 1): [0, 1]},
                          [[1, 0], [0, t]], name="solvable")
    elif kind == "super_z2":
        # eps(1,1) = -1: the odd generator has a nonzero self-bracket
        s = rng.choice([1, -1])
        A = build_algebra([2], [[1]], 2, ["e", "x"], [(0,), (1,)],
                          {(1, 1): [2, 0]}, [[1, 0], [0, s]], name="super_z2")
    else:
        A = sl2c_z2z2()
    scales = [rng.choice([1, 2, 3, Fraction(1, 2)]) for _ in range(A.dim)]
    A = _rescale(A, scales)
    report = check_color_hom_lie(A)
    assert report.is_color_hom_lie and report.grading.ok, "generator invariant"
    assert report.multiplicative.ok, "generator invariant"
    return A


@pytest.fixture
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# the Fraction-tuple scalar: oracle for the integer-numerator CycloScalar
# ---------------------------------------------------------------------------

# Fraction polynomials, lowest degree first.  The engine reduces by a table of
# the powers of zeta_m and inverts by the norm; this oracle divides
# polynomials and inverts by extended Euclid, so the two share no algorithm.

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


def _fraction_phi(m: int) -> list:
    """Phi_m with Fraction coefficients."""
    return [Fraction(c) for c in cyclotomic_polynomial(m)]


@lru_cache(maxsize=None)
def _fraction_reduction_rows(m: int):
    """x^k mod Phi_m for k = phi(m) .. 2*phi(m)-2, as coefficient tuples."""
    phi = euler_phi(m)
    phim = _fraction_phi(m)
    rows = []
    for k in range(phi, 2 * phi - 1):
        p = [Fraction(0)] * (k + 1)
        p[k] = Fraction(1)
        _, rem = _poly_divmod(p, phim)
        rem = rem + [Fraction(0)] * (phi - len(rem))
        rows.append(tuple(rem))
    return tuple(rows)


def _fraction_reduce(raw_coeffs, m: int):
    """Canonical representative of a rational polynomial in zeta_m modulo Phi_m."""
    phi = euler_phi(m)
    coeffs = [Fraction(c) for c in raw_coeffs]
    if len(coeffs) > phi:
        _, rem = _poly_divmod(_poly_trim(coeffs), _fraction_phi(m))
        coeffs = rem
    coeffs = coeffs + [Fraction(0)] * (phi - len(coeffs))
    return FractionScalar(tuple(coeffs[:phi]), m)


@dataclass(frozen=True, slots=True)
class FractionScalar:
    """Element of Q(zeta_m) in the power basis modulo Phi_m.  Immutable."""

    coeffs: tuple
    root_order: int

    @staticmethod
    def from_rational(value, m: int = 1) -> "FractionScalar":
        c = [Fraction(value)] + [Fraction(0)] * (euler_phi(m) - 1)
        return FractionScalar(tuple(c), m)

    @staticmethod
    def zero(m: int = 1) -> "FractionScalar":
        return FractionScalar.from_rational(0, m)

    @staticmethod
    def one(m: int = 1) -> "FractionScalar":
        return FractionScalar.from_rational(1, m)

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "FractionScalar":
        """zeta_m^k, reduced."""
        k %= m
        p = [Fraction(0)] * (k + 1)
        p[k] = Fraction(1)
        return _fraction_reduce(p, m)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "FractionScalar"):
        if self.root_order != other.root_order:
            raise ScalarError(
                f"mixed cyclotomic orders {self.root_order} and {other.root_order}")

    def __add__(self, other):
        other = _fraction_coerce(other, self.root_order)
        self._check(other)
        return FractionScalar(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                           self.root_order)

    def __sub__(self, other):
        other = _fraction_coerce(other, self.root_order)
        self._check(other)
        return FractionScalar(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                           self.root_order)

    def __neg__(self):
        return FractionScalar(tuple(-a for a in self.coeffs), self.root_order)

    def __mul__(self, other):
        other = _fraction_coerce(other, self.root_order)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            return FractionScalar((a[0] * b[0],), self.root_order)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb != 0:
                    prod[i + j] += ca * cb
        out = list(prod[:n])
        rows = _fraction_reduction_rows(self.root_order)
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c != 0:
                row = rows[k - n]
                for t in range(n):
                    out[t] += c * row[t]
        return FractionScalar(tuple(out), self.root_order)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _fraction_coerce(other, self.root_order) - self

    def inverse(self) -> "FractionScalar":
        """Field inverse via the extended Euclidean algorithm on Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if len(self.coeffs) == 1:
            return FractionScalar((1 / self.coeffs[0],), self.root_order)
        # extended gcd of Phi_m and self; invariant s_i * self = r_i  (mod Phi_m)
        r0 = _fraction_phi(self.root_order)
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
        return _fraction_reduce(inv, self.root_order)

    def __truediv__(self, other):
        other = _fraction_coerce(other, self.root_order)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = FractionScalar.one(self.root_order)
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
        return f"FractionScalar({format_fraction_scalar(self)!r}, m={self.root_order})"

    def __str__(self):
        return format_fraction_scalar(self)


def _fraction_coerce(value, m: int) -> FractionScalar:
    if isinstance(value, FractionScalar):
        return value
    return FractionScalar.from_rational(value, m)


def format_fraction_scalar(s) -> str:
    """Canonical literal; plain rationals serialize without brackets."""
    if s.is_rational():
        return str(s.coeffs[0])
    return "[" + ";".join(str(c) for c in s.coeffs) + "]"


def skew_failure_direct(orders, exponents, m: int):
    """The first pair (a, b) of group elements, in ``elements()`` order, with
    eps(a, b) eps(b, a) != 1 for the bi-character of the exponent matrix, as
    component tuples; None when it is skew.  Exhaustive over the group."""
    def exponent(a, b):
        return sum(a[i] * exponents[i][j] * b[j]
                   for i in range(len(orders)) for j in range(len(orders)))
    elements = list(product(*(range(n) for n in orders)))
    for a in elements:
        for b in elements:
            if (exponent(a, b) + exponent(b, a)) % m:
                return a, b
    return None
