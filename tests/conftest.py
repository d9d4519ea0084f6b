"""Shared algebra constructions and the dense oracles of the test suite."""
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import (BracketTable, CheckResult, ColorHomAlgebra,
                                      GradedBasis, check_color_hom_lie)
from colorhomlie.cohomology import CochainSpace
from colorhomlie.morphisms_twists import twist
from colorhomlie.scalars_grading import (BiCharacter, CycloScalar,
                                         FiniteAbelianGroup, ScalarError,
                                         _poly_divmod, _poly_mul, _poly_sub,
                                         _poly_trim, cyclotomic_polynomial,
                                         euler_phi)

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


def zero_algebra(orders, eps_exponents, m, degrees, alpha=None):
    dim = len(degrees)
    names = [f"e{i + 1}" for i in range(dim)]
    alpha = alpha if alpha is not None else linalg_identity_rows(dim)
    return build_algebra(orders, eps_exponents, m, names, degrees, {}, alpha)


def linalg_identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# -- independent operator-form oracles ------------------------------------------

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



def delta1_direct(A, R, fmat, gamma, r):
    """eps(g,x) rho(a^r x)(f(y)) - eps(g+x,y) rho(a^r y)(f(x)) - f([x,y])."""
    out = {}
    for x in range(A.dim):
        for y in range(A.dim):
            dx, dy = A.degree(x), A.degree(y)
            fx = [fmat[i][x] for i in range(A.dim)]
            fy = [fmat[i][y] for i in range(A.dim)]
            t1 = R.act(A.apply_alpha(A.basis_vector(x), r), fy)
            t2 = R.act(A.apply_alpha(A.basis_vector(y), r), fx)
            fb = linalg.mat_vec(fmat, A.bracket.of_basis(x, y))
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
    out = {}
    for x, y, z in product(range(A.dim), repeat=3):
        dx, dy, dz = A.degree(x), A.degree(y), A.degree(z)
        acc = [CycloScalar.zero(A.m)] * R.dim
        t1 = R.act(A.apply_alpha(A.basis_vector(x), r + 1), ev(y, z))
        t2 = R.act(A.apply_alpha(A.basis_vector(y), r + 1), ev(x, z))
        t3 = R.act(A.apply_alpha(A.basis_vector(z), r + 1), ev(x, y))
        c1 = A.eps(gamma, dx)
        c2 = A.eps(gamma + dx, dy)
        c3 = A.eps(gamma + dx + dy, dz)
        u1 = ev_vec(A.bracket.of_basis(x, y), A.apply_alpha(A.basis_vector(z)))
        u2 = ev_vec(A.bracket.of_basis(x, z), A.apply_alpha(A.basis_vector(y)))
        u3 = ev_vec(A.apply_alpha(A.basis_vector(x)), A.bracket.of_basis(y, z))
        s02 = A.eps(dy, dz)
        for k in range(R.dim):
            acc[k] = (c1 * t1[k] - c2 * t2[k] + c3 * t3[k]
                      - u1[k] + s02 * u2[k] + u3[k])
        out[(x, y, z)] = acc
    return out


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
    alpha_images = [A.apply_alpha(A.basis_vector(i)) for i in range(A.dim)]
    # one constraint column per free coordinate, then transpose into rows
    cols = []
    for ci in range(free_dim):
        unit = space.zero_coords()
        unit[ci] = one
        col = []
        for combo in product(range(A.dim), repeat=n):
            lhs = space.evaluate(unit, [alpha_images[i] for i in combo])
            rhs = linalg.mat_vec(R.beta, space.evaluate_basis(unit, combo))
            col.extend(a - b for a, b in zip(lhs, rhs))
        cols.append(col)
    return [[cols[ci][ri] for ci in range(free_dim)] for ri in range(len(cols[0]))]


def _unit_matrices_direct(A, pattern):
    one = CycloScalar.one(A.m)
    units = []
    for (i, j) in pattern:
        M = linalg.zeros(A.dim, A.dim, A.m)
        M[i][j] = one
        units.append(M)
    return units


def _commute_rows_direct(A, units, offset, nvars):
    """Rows of [D, alpha] = 0 for the variable block starting at offset."""
    rows = []
    z = CycloScalar.zero(A.m)
    images = [linalg.mat_add(linalg.mat_mul(U, A.alpha),
                             linalg.mat_scale(CycloScalar.from_rational(-1, A.m),
                                              linalg.mat_mul(A.alpha, U)))
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
    E = [A.basis_vector(i) for i in range(A.dim)]
    for x in range(A.dim):
        akx = A.apply_alpha(E[x], k)
        e = A.eps(gamma, A.degree(x))
        for y in range(A.dim):
            aky = A.apply_alpha(E[y], k)
            bxy = A.bracket.of_basis(x, y)
            # per unit matrix, the three bracket-type contributions
            d_of_bracket = [linalg.mat_vec(U, bxy) for U in units]
            left = [A.bracket.bilinear(linalg.mat_vec(U, E[x]), aky) for U in units]
            right = [A.bracket.bilinear(akx, linalg.mat_vec(U, E[y])) for U in units]
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
    E = [A.basis_vector(i) for i in range(A.dim)]
    for x in range(A.dim):
        akx = A.apply_alpha(E[x], k)
        e = A.eps(gamma, A.degree(x))
        for y in range(A.dim):
            aky = A.apply_alpha(E[y], k)
            bxy = A.bracket.of_basis(x, y)
            p_of_bracket = [linalg.mat_vec(U, bxy) for U in units]
            t1 = A.bracket.bilinear(linalg.mat_vec(D, E[x]), aky)
            if kind == "qder":
                t2 = A.bracket.bilinear(akx, linalg.mat_vec(D, E[y]))
                target = [a + e * b for a, b in zip(t1, t2)]
                for comp in range(A.dim):
                    rows.append([u[comp] for u in p_of_bracket])
                    rhs.append(target[comp])
            else:
                right_units = [A.bracket.bilinear(akx, linalg.mat_vec(U, E[y]))
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
    E = linalg.identity(n, m)
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
        aw = linalg.mat_vec(J.alpha_action, w)
        au = linalg.mat_vec(J.alpha_action, u)
        t1 = J.mu.bilinear(J.mu.bilinear(u, v), aw)
        t2 = J.mu.bilinear(au, J.mu.bilinear(v, w))
        return [a - b for a, b in zip(t1, t2)]
    hcj2 = []
    for x, y, z, w in product(range(n), repeat=4):
        dx, dy, dz, dw = (J.degrees[t] for t in (x, y, z, w))
        az = linalg.mat_vec(J.alpha_action, E[z])
        ax = linalg.mat_vec(J.alpha_action, E[x])
        ay = linalg.mat_vec(J.alpha_action, E[y])
        aw = linalg.mat_vec(J.alpha_action, E[w])
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
    alpha = linalg.mat_mul(D, linalg.mat_mul(A.alpha, Dinv))
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

@lru_cache(maxsize=None)
def _fraction_reduction_rows(m: int):
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


def _fraction_reduce(raw_coeffs, m: int):
    """Canonical representative of a rational polynomial in zeta_m modulo Phi_m."""
    phi = euler_phi(m)
    coeffs = [Fraction(c) for c in raw_coeffs]
    if len(coeffs) > phi:
        _, rem = _poly_divmod(_poly_trim(coeffs), list(cyclotomic_polynomial(m)))
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
