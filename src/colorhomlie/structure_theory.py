"""Twisted derivation spaces, centroids, and the induced Jordan-type product.

Each space is solved exactly as the kernel of a linear system over the
degree-gamma matrix pattern.  Membership tests solve a linear system rather
than comparing dimensions, and every spanning matrix is re-verified against
its defining identity through an evaluation path independent of the solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import linalg
from .algebra_core import (AlgebraStructureError, CheckResult, ColorHomAlgebra,
                           StructureConstants)
from .scalars_grading import BiCharacter, CycloScalar, GroupElement

KINDS = ("der", "gder", "qder", "centroid", "qcentroid")


@dataclass
class HomogeneousMapSpace:
    kind: str
    k: int
    gamma: GroupElement
    basis: list  # spanning matrices

    @property
    def dim(self) -> int:
        return len(self.basis)


def degree_pattern(A: ColorHomAlgebra, gamma: GroupElement):
    """Matrix positions (i, j) allowed for a map raising degree by gamma."""
    return [(i, j) for i in range(A.dim) for j in range(A.dim)
            if A.degree(i) == A.degree(j) + gamma]


def _pattern_matrix(A: ColorHomAlgebra, pattern, coeffs):
    M = linalg.zeros(A.dim, A.dim, A.m)
    for c, (i, j) in zip(coeffs, pattern):
        M[i][j] = c
    return M


def _commute_rows(A: ColorHomAlgebra, pattern, offset, nvars):
    """Rows of [D, alpha] = 0 for the variable block starting at offset.

    Unknown t is the coefficient of E_ij, (i, j) = pattern[t], and
    (E_ij alpha - alpha E_ij)[a][b] = delta_ai alpha[j][b] - alpha[a][i] delta_jb;
    rows are in (a, b) order and the zero ones are dropped.
    """
    alpha = A.alpha
    cells = {}  # (a, b) -> {column: value}
    for t, (i, j) in enumerate(pattern):
        col = offset + t
        for b in range(A.dim):
            if not alpha[j][b].is_zero():
                cells.setdefault((i, b), {})[col] = alpha[j][b]
        for a in range(A.dim):
            if not alpha[a][i].is_zero():
                cell = cells.setdefault((a, j), {})
                cell[col] = cell[col] - alpha[a][i] if col in cell else -alpha[a][i]
    z = CycloScalar.zero(A.m)
    rows = []
    for key in sorted(cells):
        entries = [(col, v) for col, v in cells[key].items() if not v.is_zero()]
        if entries:
            row = [z] * nvars
            for col, v in entries:
                row[col] = v
            rows.append(row)
    return rows


# The defining identities on a basis pair (x, y).  Each inner list gives one
# group of dim equation rows (one per component) as terms
# (block, term, sign, twisted): term "d" is D([x,y]), "L" is [D x, a^k y] and
# "R" is [a^k x, D y], with D the unknown map of that block; a twisted term
# also carries eps(gamma, x).
_IDENTITIES = {
    "der": [[(0, "d", 1, False), (0, "L", -1, False), (0, "R", -1, True)]],
    # D'([x,y]) = [D x, a^k y] + e [a^k x, D y]
    "qder": [[(0, "L", -1, False), (0, "R", -1, True), (1, "d", 1, False)]],
    # D''([x,y]) = [D x, a^k y] + e [a^k x, D' y]
    "gder": [[(0, "L", -1, False), (1, "R", -1, True), (2, "d", 1, False)]],
    "centroid": [[(0, "d", 1, False), (0, "L", -1, False)],
                 [(0, "d", 1, False), (0, "R", -1, True)]],
    "qcentroid": [[(0, "L", 1, False), (0, "R", -1, True)]],
}


def _defining_rows(A: ColorHomAlgebra, k: int, gamma: GroupElement, kind: str,
                   pattern, commute: bool):
    """Linear system whose kernel describes the requested space.

    Unknown layout: der/centroid/qcentroid use one block D; qder uses (D, D');
    gder uses (D, D', D'').  Unknown t of a block is the coefficient of the
    unit matrix E_ij, (i, j) = pattern[t], which sends v to v[j] e_i.  On the
    pair (x, y) it contributes [x,y][j] to component i of D([x,y]),
    [e_i, a^k e_y] to [D x, a^k y] when j = x, and [a^k e_x, e_i] to
    [a^k x, D y] when j = y; only these terms are formed.
    """
    dim = A.dim
    nD = len(pattern)
    blocks = {"der": 1, "centroid": 1, "qcentroid": 1, "qder": 2, "gder": 3}[kind]
    nvars = blocks * nD
    z = CycloScalar.zero(A.m)
    E = [A.basis_vector(i) for i in range(dim)]
    ak = A.alpha_power(k)
    ak_cols = [[row[x] for row in ak] for x in range(dim)]

    def support(vec):
        return [(c, v) for c, v in enumerate(vec) if not v.is_zero()]

    # L[i][y] = [e_i, a^k e_y] and R[x][i] = [a^k e_x, e_i], by their supports
    L = [[support(A.bracket.bilinear(E[i], ak_cols[y])) for y in range(dim)]
         for i in range(dim)]
    R = [[support(A.bracket.bilinear(ak_cols[x], E[i])) for i in range(dim)]
         for x in range(dim)]
    in_column = [[] for _ in range(dim)]  # j -> [(t, i) : pattern[t] = (i, j)]
    for t, (i, j) in enumerate(pattern):
        in_column[j].append((t, i))
    rows = []
    for x in range(dim):
        e = A.eps(gamma, A.degree(x))
        for y in range(dim):
            bxy = support(A.bracket.of_basis(x, y))
            for group in _IDENTITIES[kind]:
                acc = {}  # (component, column) -> value
                for block, term, sign, twisted in group:
                    base = block * nD
                    if term == "d":
                        terms = [(i, base + t, v) for j, v in bxy for t, i in in_column[j]]
                    elif term == "L":
                        terms = [(c, base + t, v) for t, i in in_column[x] for c, v in L[i][y]]
                    else:
                        terms = [(c, base + t, v) for t, i in in_column[y] for c, v in R[x][i]]
                    for comp, col, v in terms:
                        if twisted:
                            v = e * v
                        if sign < 0:
                            v = -v
                        key = (comp, col)
                        acc[key] = acc[key] + v if key in acc else v
                group_rows = [[z] * nvars for _ in range(dim)]
                for (comp, col), v in acc.items():
                    if not v.is_zero():
                        group_rows[comp][col] = v
                rows.extend(group_rows)
    if commute:
        for block in range(blocks):
            rows.extend(_commute_rows(A, pattern, block * nD, nvars))
    return rows, nvars, nD


def _solve_space(A: ColorHomAlgebra, k: int, gamma: GroupElement, kind: str,
                 commute: bool) -> HomogeneousMapSpace:
    pattern = degree_pattern(A, gamma)
    if not pattern:
        return HomogeneousMapSpace(kind, k, gamma, [])
    rows, nvars, nD = _defining_rows(A, k, gamma, kind, pattern, commute)
    kernel = linalg.kernel_basis(rows, nvars, A.m)
    # project onto the D block and renormalize to a canonical basis
    flats = [v[:nD] for v in kernel]
    reduced = linalg.row_space_basis(flats)
    mats = [_pattern_matrix(A, pattern, v) for v in reduced]
    return HomogeneousMapSpace(kind, k, gamma, mats)


def derivation_space(A: ColorHomAlgebra, k: int, gamma: GroupElement) -> HomogeneousMapSpace:
    if k < 0:
        raise ValueError("twist power must be non-negative")
    return _solve_space(A, k, gamma, "der", commute=True)


def generalized_derivation_space(A: ColorHomAlgebra, k: int, gamma: GroupElement
                                 ) -> HomogeneousMapSpace:
    if k < 0:
        raise ValueError("twist power must be non-negative")
    return _solve_space(A, k, gamma, "gder", commute=True)


def quasi_derivation_space(A: ColorHomAlgebra, k: int, gamma: GroupElement
                           ) -> HomogeneousMapSpace:
    if k < 0:
        raise ValueError("twist power must be non-negative")
    return _solve_space(A, k, gamma, "qder", commute=True)


def centroid_space(A: ColorHomAlgebra, k: int, gamma: GroupElement,
                   commute_with_alpha: bool = True) -> HomogeneousMapSpace:
    if k < 0:
        raise ValueError("twist power must be non-negative")
    return _solve_space(A, k, gamma, "centroid", commute=commute_with_alpha)


def quasi_centroid_space(A: ColorHomAlgebra, k: int, gamma: GroupElement,
                         commute_with_alpha: bool = False) -> HomogeneousMapSpace:
    if k < 0:
        raise ValueError("twist power must be non-negative")
    return _solve_space(A, k, gamma, "qcentroid", commute=commute_with_alpha)


def solve_space(A: ColorHomAlgebra, kind: str, k: int, gamma: GroupElement,
                **flags) -> HomogeneousMapSpace:
    builders = {
        "der": derivation_space,
        "gder": generalized_derivation_space,
        "qder": quasi_derivation_space,
        "centroid": centroid_space,
        "qcentroid": quasi_centroid_space,
    }
    if kind not in builders:
        raise ValueError(f"unknown space kind {kind!r}")
    return builders[kind](A, k, gamma, **flags)


def reverify_space(A: ColorHomAlgebra, space: HomogeneousMapSpace) -> CheckResult:
    """Re-check the defining identity of every spanning matrix by direct
    evaluation (independent of the solver's row assembly).

    For the existential kinds (gder, qder) the partner maps are recovered by
    an exact linear solve before the identity is evaluated.
    """
    failures = []
    for D in space.basis:
        ok = _direct_identity_holds(A, space.kind, space.k, space.gamma, D)
        if not ok:
            failures.append({"matrix": [[str(c) for c in row] for row in D]})
    return CheckResult(not failures, failures)


def _partner_rows(A: ColorHomAlgebra, k: int, gamma: GroupElement, D, kind: str, pattern):
    """Equations (rows, rhs) on the partner maps of a qder/gder D.

    qder: one unknown P with P([x,y]) = [D x, a^k y] + eps(gamma,x)[a^k x, D y];
    gder: unknowns (P1, P2) with P2([x,y]) - eps(gamma,x)[a^k x, P1 y] = [D x, a^k y].
    Unknown t of a block is the coefficient of E_ij, (i, j) = pattern[t], and
    (E_ij v)[a] = delta_ai v[j]: it contributes [x,y][j] at component i of
    P([x,y]) and, when j = y, [a^k e_x, e_i] to [a^k x, P1 y].  Rows run over
    (x, y, component), then the [P, alpha] = 0 rows of each block.
    """
    dim, nD = A.dim, len(pattern)
    blocks = 1 if kind == "qder" else 2
    nvars = blocks * nD
    z = CycloScalar.zero(A.m)
    ak = A.alpha_power(k)
    ak_e = [[row[x] for row in ak] for x in range(dim)]
    d_e = [linalg.mat_vec(D, A.basis_vector(x)) for x in range(dim)]
    rows, rhs = [], []
    for x in range(dim):
        e = A.eps(gamma, A.degree(x))
        if kind == "gder":
            right = [A.bracket.bilinear(ak_e[x], A.basis_vector(i)) for i in range(dim)]
        for y in range(dim):
            bxy = A.bracket.of_basis(x, y)
            target = A.bracket.bilinear(d_e[x], ak_e[y])
            if kind == "qder":
                t2 = A.bracket.bilinear(ak_e[x], d_e[y])
                target = [a + e * b for a, b in zip(target, t2)]
            group = [[z] * nvars for _ in range(dim)]
            for t, (i, j) in enumerate(pattern):
                group[i][nvars - nD + t] = bxy[j]
                if kind == "gder" and j == y:
                    for comp, v in enumerate(right[i]):
                        group[comp][t] = -e * v
            rows.extend(group)
            rhs.extend(target)
    for block in range(blocks):
        commute = _commute_rows(A, pattern, block * nD, nvars)
        rows.extend(commute)
        rhs.extend([z] * len(commute))
    return rows, rhs


def _partner_solution(A: ColorHomAlgebra, k: int, gamma: GroupElement, D, kind: str):
    """Recover partner maps witnessing a qder/gder identity for a given D.

    Partner maps must commute with alpha, matching the space definitions.
    """
    pattern = degree_pattern(A, gamma)
    rows, rhs = _partner_rows(A, k, gamma, D, kind, pattern)
    sol = linalg.solve(rows, rhs, A.m)
    if sol is None:
        return None
    nD = len(pattern)
    blocks = 1 if kind == "qder" else 2
    return tuple(_pattern_matrix(A, pattern, sol[b * nD:(b + 1) * nD])
                 for b in range(blocks))


def _direct_identity_holds(A: ColorHomAlgebra, kind: str, k: int,
                           gamma: GroupElement, D) -> bool:
    E = [A.basis_vector(i) for i in range(A.dim)]
    if kind in ("der", "qder", "gder"):
        # these kinds require [D, alpha] = 0
        if not linalg.mat_eq(linalg.mat_mul(D, A.alpha), linalg.mat_mul(A.alpha, D)):
            return False
    def check_pair(identity):
        for x in range(A.dim):
            for y in range(A.dim):
                if not identity(x, y):
                    return False
        return True
    if kind in ("der", "centroid", "qcentroid"):
        # a^k e_x and D e_x once per x; D and the bracket are applied per pair
        ak = A.alpha_power(k)
        ak_e = [[row[x] for row in ak] for x in range(A.dim)]
        d_e = [linalg.mat_vec(D, E[x]) for x in range(A.dim)]
        def identity(x, y):
            e = A.eps(gamma, A.degree(x))
            dxy = linalg.mat_vec(D, A.bracket.of_basis(x, y))
            left = A.bracket.bilinear(d_e[x], ak_e[y])
            right = A.bracket.bilinear(ak_e[x], d_e[y])
            if kind == "der":
                want = [a + e * b for a, b in zip(left, right)]
                return all((p - q).is_zero() for p, q in zip(dxy, want))
            if kind == "centroid":
                return (all((p - q).is_zero() for p, q in zip(dxy, left)) and
                        all((p - e * q).is_zero() for p, q in zip(dxy, right)))
            return all((p - e * q).is_zero() for p, q in zip(left, right))
        return check_pair(identity)
    if kind in ("qder", "gder"):
        return _partner_solution(A, k, gamma, D, kind) is not None
    raise ValueError(kind)


def member_of(space: HomogeneousMapSpace, M, m: int) -> bool:
    """Exact membership of a matrix in the span of the space's basis."""
    flat_basis = [[c for row in B for c in row] for B in space.basis]
    flat = [c for row in M for c in row]
    return linalg.in_span(flat_basis, flat)


def jordan_product(D1, gamma1: GroupElement, D2, gamma2: GroupElement,
                   eps: BiCharacter):
    """eps-anticommutator D1 D2 + eps(gamma1, gamma2) D2 D1."""
    e = eps(gamma1, gamma2)
    return linalg.mat_add(linalg.mat_mul(D1, D2),
                          linalg.mat_scale(e, linalg.mat_mul(D2, D1)))


@dataclass
class ProductAlgebraData:
    """A graded product on an operator span: basis matrices with degrees,
    dense product table in span coordinates, and the twist action."""
    matrices: list
    degrees: list
    table: list      # table[i][j] -> coordinate vector over the span
    alpha_action: list  # matrix of conjugation by alpha on the span
    eps: BiCharacter
    m: int
    mu: StructureConstants = field(init=False)  # the product, from table

    def __post_init__(self):
        self.mu = StructureConstants.of_cells(self.table, self.m)

    @property
    def dim(self):
        return len(self.matrices)


class NotClosedError(AlgebraStructureError):
    pass


def _express_in_span(matrices, M, m: int):
    flat_basis = [[c for row in B for c in row] for B in matrices]
    flat = [c for row in M for c in row]
    rows = [[fb[i] for fb in flat_basis] for i in range(len(flat))]
    return linalg.solve(rows, flat, m)


def quasi_centroid_jordan(A: ColorHomAlgebra, max_power: int = 2,
                          commute_with_alpha: bool = False) -> ProductAlgebraData:
    """The eps-anticommutator product on the quasi-centroid span.

    Elements are collected over twist powers 0..max_power, because the
    product of power-k and power-s elements lands at power k+s; within a
    single power the span is generally not closed.  The twist acts by
    conjugation D -> alpha D alpha^(-1); an invertible twist is required.
    Raises NotClosedError when the product or the twist action leaves the
    collected span (e.g. when max_power is too small for the algebra).
    """
    try:
        alpha_inv = linalg.inverse(A.alpha)
    except ValueError:
        raise AlgebraStructureError("quasi-centroid twist action needs invertible alpha")
    matrices, degrees = [], []
    for k in range(max_power + 1):
        for gamma in A.basis.group.elements():
            space = quasi_centroid_space(A, k, gamma, commute_with_alpha)
            for M in space.basis:
                flat_basis = [[c for row in B for c in row] for B in matrices]
                flat = [c for row in M for c in row]
                if not linalg.in_span(flat_basis, flat):
                    matrices.append(M)
                    degrees.append(gamma)
    n = len(matrices)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            P = jordan_product(matrices[i], degrees[i], matrices[j], degrees[j], A.eps)
            coords = _express_in_span(matrices, P, A.m)
            if coords is None:
                raise NotClosedError(
                    f"quasi-centroid is not closed under the product at pair ({i},{j})")
            row.append(coords)
        table.append(row)
    action_cols = []
    for i in range(n):
        conj = linalg.mat_mul(A.alpha, linalg.mat_mul(matrices[i], alpha_inv))
        coords = _express_in_span(matrices, conj, A.m)
        if coords is None:
            raise NotClosedError("twist conjugation leaves the quasi-centroid span")
        action_cols.append(coords)
    alpha_action = linalg.transpose(action_cols) if action_cols else []
    return ProductAlgebraData(matrices, degrees, table, alpha_action, A.eps, A.m)


def check_hom_jordan(J: ProductAlgebraData) -> dict:
    """Commutativity law on pairs; the twisted Jordan identity on quadruples.

    The basis products e_a.e_b, the twist images alpha e_t and each distinct
    associator as(e_a.e_b, alpha e_z, alpha e_c) are formed once.
    """
    n = J.dim
    m = J.m
    E = linalg.identity(n, m)
    prod = [[J.mu.of_basis(a, b) for b in range(n)] for a in range(n)]
    alpha = [linalg.mat_vec(J.alpha_action, E[t]) for t in range(n)]
    hcj1 = []
    for i in range(n):
        for j in range(n):
            e = J.eps(J.degrees[i], J.degrees[j])
            lhs = prod[i][j]
            rhs = [e * c for c in prod[j][i]]
            if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                hcj1.append({"pair": [i, j]})
    # Hom-associators as(u,v,w) = (u.v).alpha(w) - alpha(u).(v.w) at
    # u = e_a.e_b, v = alpha e_z, w = alpha e_c, on every index quadruple
    alpha2 = [linalg.mat_vec(J.alpha_action, v) for v in alpha]
    alpha_prod = [[linalg.mat_vec(J.alpha_action, v) for v in row] for row in prod]
    left = {(a, b, z): J.mu.bilinear(prod[a][b], alpha[z])
            for a, b, z in product(range(n), repeat=3)}
    right = {(z, c): J.mu.bilinear(alpha[z], alpha[c]) for z, c in product(range(n), repeat=2)}
    assoc = {}
    for a, b, z, c in product(range(n), repeat=4):
        t1 = J.mu.bilinear(left[(a, b, z)], alpha2[c])
        t2 = J.mu.bilinear(alpha_prod[a][b], right[(z, c)])
        assoc[(a, b, z, c)] = [p - q for p, q in zip(t1, t2)]
    hcj2 = []
    for x, y, z, w in product(range(n), repeat=4):
        dx, dy, dz, dw = (J.degrees[t] for t in (x, y, z, w))
        t1 = assoc[(x, y, z, w)]
        t2 = assoc[(y, w, z, x)]
        t3 = assoc[(w, x, z, y)]
        e1 = J.eps(dw, dx + dz)
        e2 = J.eps(dx, dy + dz)
        e3 = J.eps(dy, dw + dz)
        acc = [e1 * a + e2 * b + e3 * c for a, b, c in zip(t1, t2, t3)]
        if any(not a.is_zero() for a in acc):
            hcj2.append({"quadruple": [x, y, z, w],
                         "residual": [str(c) for c in acc]})
    return {"hcj1": CheckResult(not hcj1, hcj1),
            "hcj2": CheckResult(not hcj2, hcj2)}


def check_inclusion_lattice(A: ColorHomAlgebra, k_range, gamma_range) -> dict:
    """Membership-based verification of the composition and inclusion laws:
    centroid o gder lands in gder at the summed power and degree, centroid
    embeds in qder, and eps-commutators of quasi-centroid elements are gder."""
    failures = {"centroid_in_qder": [], "centroid_compose_gder": [],
                "qcentroid_brackets": []}
    spaces = {}
    def get(kind, k, gamma):
        key = (kind, k, tuple(gamma.components))
        if key not in spaces:
            spaces[key] = solve_space(A, kind, k, gamma)
        return spaces[key]
    for k in k_range:
        for gamma in gamma_range:
            cent = get("centroid", k, gamma)
            qder = get("qder", k, gamma)
            for M in cent.basis:
                if not member_of(qder, M, A.m):
                    failures["centroid_in_qder"].append(
                        {"k": k, "degree": list(gamma.components)})
    for k in k_range:
        for kp in k_range:
            for gamma in gamma_range:
                for gp in gamma_range:
                    cent = get("centroid", kp, gp)
                    gder = get("gder", k, gamma)
                    if not cent.basis or not gder.basis:
                        continue
                    target = get("gder", k + kp, gamma + gp)
                    for C in cent.basis:
                        for D in gder.basis:
                            comp = linalg.mat_mul(C, D)
                            pat = degree_pattern(A, gamma + gp)
                            for i in range(A.dim):
                                for j in range(A.dim):
                                    if not comp[i][j].is_zero() and (i, j) not in pat:
                                        failures["centroid_compose_gder"].append(
                                            {"reason": "degree pattern",
                                             "k": k, "kp": kp})
                            if not member_of(target, comp, A.m):
                                failures["centroid_compose_gder"].append(
                                    {"k": k, "kp": kp,
                                     "degree": list((gamma + gp).components)})
    for k in k_range:
        for kp in k_range:
            for gamma in gamma_range:
                for gp in gamma_range:
                    qc1 = get("qcentroid", k, gamma)
                    qc2 = get("qcentroid", kp, gp)
                    if not qc1.basis or not qc2.basis:
                        continue
                    target = get("gder", k + kp, gamma + gp)
                    e = A.eps(gamma, gp)
                    for D1 in qc1.basis:
                        for D2 in qc2.basis:
                            brk = linalg.mat_add(
                                linalg.mat_mul(D1, D2),
                                linalg.mat_scale(-e, linalg.mat_mul(D2, D1)))
                            if not member_of(target, brk, A.m):
                                failures["qcentroid_brackets"].append(
                                    {"k": k, "kp": kp,
                                     "degree": list((gamma + gp).components)})
    return {name: CheckResult(not items, items) for name, items in failures.items()}
