"""Twisted derivation spaces, centroids, and the induced Jordan-type product.

Each space is solved exactly as the kernel of a linear system over the
degree-gamma matrix pattern.  Membership tests solve a linear system rather
than comparing dimensions, and every spanning matrix is re-verified against
its defining identity through an evaluation path independent of the solver.
"""
from __future__ import annotations

from functools import cache
from itertools import product

from . import linalg
from .algebra_core import (AlgebraStructureError, CheckResult, ColorHomAlgebra,
                           StructureConstants)
from .linalg import _add_scaled, _combine, _product, _transpose
from .scalars_grading import BiCharacter, CycloScalar, GroupElement

KINDS = ("der", "gder", "qder", "centroid", "qcentroid")


class HomogeneousMapSpace:
    __slots__ = ("kind", "k", "gamma", "_basis", "size", "m", "commute")

    def __init__(self, kind: str, k: int, gamma: GroupElement, basis: list, size: int,
                 m: int, commute: bool = False):
        self.kind, self.k, self.gamma = kind, k, gamma
        # the spanning size x size matrices, dense or sparse, kept sparse only
        self._basis, self.size, self.m = [linalg.sparse(M) for M in basis], size, m
        self.commute = commute  # [D, alpha] = 0 is part of the definition

    dim = property(lambda self: len(self._basis))
    basis = property(lambda self: [linalg.dense(M, self.size, self.m) for M in self._basis],
                     doc="The spanning matrices as fresh dense copies.")


def degree_pattern(A: ColorHomAlgebra, gamma: GroupElement):
    """Matrix positions (i, j) allowed for a map raising degree by gamma,
    formed once per gamma and kept on A."""
    if gamma not in A._patterns:
        shifted = [A.degree(j) + gamma for j in range(A.dim)]
        A._patterns[gamma] = [(i, j) for i in range(A.dim) for j in range(A.dim)
                              if A.degree(i) == shifted[j]]
    return A._patterns[gamma]


def _flat(M):
    """A sparse matrix as the vector {(i, j): nonzero scalar}."""
    return {(i, j): c for i, row in M.items() for j, c in row.items()}


def _anticommutator(X, Y, e):
    """X Y + e Y X on sparse matrices."""
    return _combine([(None, _product(X, Y)), (e, _product(Y, X))])


def _pattern_matrix(pattern, coeffs):
    """The sparse matrix with coeffs[t] ({t: nonzero scalar}) at pattern[t]."""
    rows = {}
    for t, c in coeffs.items():
        i, j = pattern[t]
        rows.setdefault(i, {})[j] = c
    return rows


def _commute_rows(A: ColorHomAlgebra, gamma: GroupElement, pattern, blocks: int):
    """Sparse rows of [D, alpha] = 0 for each of the blocks of unknowns.

    Unknown t of a block is the coefficient of E_ij, (i, j) = pattern[t], and
    (E_ij alpha - alpha E_ij)[a][b] = delta_ai alpha[j][b] - alpha[a][i] delta_jb;
    rows are in (block, a, b) order and the zero ones are dropped; those of
    block 0 are formed once per gamma and kept on A, the others shifted."""
    if gamma not in A._commute:
        alpha, alpha_cols = A.alpha_sparse(1), _transpose(A.alpha_sparse(1))
        cells = {}  # (a, b) -> {t: value}
        for t, (i, j) in enumerate(pattern):
            for b, v in alpha.get(j, {}).items():
                cells.setdefault((i, b), {})[t] = v
            for a, v in alpha_cols.get(i, {}).items():
                cell = cells.setdefault((a, j), {})
                cell[t] = cell[t] - v if t in cell else -v
        A._commute[gamma] = [row for key in sorted(cells)
                             if (row := {t: v for t, v in cells[key].items() if any(v.num)})]
    rows, n = A._commute[gamma], len(pattern)
    return rows + [{block * n + t: v for t, v in row.items()}
                   for block in range(1, blocks) for row in rows]


# The defining identities on a basis pair (x, y).  Each inner list gives one
# group of dim equation rows (one per component) as terms (block, name) of
# _term_rows, with D the unknown map of that block.
_IDENTITIES = {
    "der": [[(0, "d"), (0, "-L"), (0, "-R")]],
    # D'([x,y]) = [D x, a^k y] + e [a^k x, D y]
    "qder": [[(0, "-L"), (0, "-R"), (1, "d")]],
    # D''([x,y]) = [D x, a^k y] + e [a^k x, D' y]
    "gder": [[(0, "-L"), (1, "-R"), (2, "d")]],
    "centroid": [[(0, "d"), (0, "-L")], [(0, "d"), (0, "-R")]],
    "qcentroid": [[(0, "L"), (0, "-R")]],
}
# The unknown blocks of each kind: D, then the partner maps D' and D''.
_BLOCKS = {"der": 1, "gder": 3, "qder": 2, "centroid": 1, "qcentroid": 1}
# The values of commute_with_alpha each kind accepts, its default first:
# [D, alpha] = 0 belongs to every definition but the quasi-centroid's, and
# only the two centroids may drop or add it.
_COMMUTE = {"der": (True,), "gder": (True,), "qder": (True,),
            "centroid": (True, False), "qcentroid": (False, True)}


def _term_rows(A: ColorHomAlgebra, k: int, gamma: GroupElement, pattern, name: str):
    """One term of the identities as a sparse matrix whose row
    (x * dim + y, component) is {t: nonzero value}: "d" is D([x,y]), "L" is
    [D x, a^k y], "-L" its negative and "-R" is -eps(gamma,x)[a^k x, D y].
    Unknown t is the coefficient of E_ij, (i, j) = pattern[t]: it contributes
    [x,y][j] to component i of D([x,y]), [e_i, a^k e_y] to [D x, a^k y] when
    j = x, and [a^k e_x, e_i] to [a^k x, D y] when j = y, read from the rows
    of the bracket and of its two precomposed tables, kept on A per k."""
    dim = A.dim
    if k not in A._precomposed:
        ak, ident = A.alpha_sparse(k), A.alpha_sparse(0)
        A._precomposed[k] = (A.bracket.precompose(ident, ak).rows,
                             A.bracket.precompose(ak, ident).rows)
    # L[(i, y)] = [e_i, a^k e_y] and R[(x, i)] = [a^k e_x, e_i]
    L, R = A._precomposed[k]
    in_column = [[] for _ in range(dim)]  # j -> [(t, i) : pattern[t] = (i, j)]
    for t, (i, j) in enumerate(pattern):
        in_column[j].append((t, i))
    table = {}
    for x in range(dim):
        e = -A.eps(gamma, A.degree(x)) if name == "-R" else None
        for y in range(dim):
            if name == "d":
                terms = [(i, t, v) for j, v in A.bracket.rows.get((x, y), {}).items()
                         for t, i in in_column[j]]
            elif name == "-R":
                terms = [(c, t, e * v) for t, i in in_column[y]
                         for c, v in R.get((x, i), {}).items()]
            else:
                terms = [(c, t, v if name == "L" else -v) for t, i in in_column[x]
                         for c, v in L.get((i, y), {}).items()]
            for comp, t, v in terms:
                table.setdefault((x * dim + y, comp), {})[t] = v
    return table


def _defining_rows(A: ColorHomAlgebra, k: int, gamma: GroupElement, kind: str,
                   pattern, commute: bool):
    """Sparse rows of the linear system whose kernel is the requested space.

    Unknown layout: der/centroid/qcentroid use one block D; qder uses (D, D');
    gder uses (D, D', D'').  Each term table is built on first request and
    kept on A per (k, gamma) for every kind.  Each group of the identities is
    one ``_combine`` of its term tables, each with its columns shifted by its
    block; the rows are read out by (pair, group, component)."""
    nD, tables = len(pattern), A._terms.setdefault((k, gamma), {})
    for name in dict.fromkeys(name for group in _IDENTITIES[kind] for _, name in group):
        if name not in tables:
            tables[name] = _term_rows(A, k, gamma, pattern, name)
    groups = [_combine([(None, {key: {block * nD + t: v for t, v in row.items()}
                                for key, row in tables[name].items()} if block
                         else tables[name]) for block, name in group])
              for group in _IDENTITIES[kind]]
    rows = [groups[g][pair, comp]
            for pair, g, comp in sorted((pair, g, comp) for g, M in enumerate(groups)
                                        for pair, comp in M)]
    if commute:
        rows.extend(_commute_rows(A, gamma, pattern, _BLOCKS[kind]))
    return rows, _BLOCKS[kind] * nD, nD


def solve_space(A: ColorHomAlgebra, kind: str, k: int, gamma: GroupElement,
                commute_with_alpha: bool = None) -> HomogeneousMapSpace:
    """The space of the given kind (one of KINDS) at twist power k and degree
    gamma.  commute_with_alpha=None takes the kind's default, [D, alpha] = 0
    for all but qcentroid; only centroid and qcentroid accept the other value.
    Solved once per (kind, k, gamma, commute) and kept on A, sparse; the
    space holds a fresh copy."""
    if kind not in _COMMUTE:
        raise ValueError(f"unknown space kind {kind!r}")
    if k < 0:
        raise ValueError("twist power must be non-negative")
    commute = _COMMUTE[kind][0] if commute_with_alpha is None else commute_with_alpha
    if commute not in _COMMUTE[kind]:
        raise ValueError(f"[D, alpha] = 0 is part of the definition of {kind!r}")
    key = (kind, k, gamma, commute)
    if key not in A._spaces:
        pattern, mats = degree_pattern(A, gamma), []
        if pattern:
            rows, nvars, nD = _defining_rows(A, k, gamma, kind, pattern, commute)
            # rref(ker) on the D block: vectors leading past it vanish, the rest stay rref
            flats = [{t: c for t, c in v.items() if t < nD}
                     for v in linalg.sparse_kernel_basis(rows, nvars, A.m)]
            mats = [_pattern_matrix(pattern, v) for v in flats if v]
        A._spaces[key] = mats
    return HomogeneousMapSpace(kind, k, gamma, A._spaces[key], A.dim, A.m, commute)


def reverify_space(A: ColorHomAlgebra, space: HomogeneousMapSpace) -> CheckResult:
    """Re-check the defining identity of every spanning matrix, and
    [D, alpha] = 0 where the space requires it, by direct evaluation on basis
    pairs (independent of the solver's row assembly).

    For the existential kinds (gder, qder) the partner systems of all the
    spanning matrices are one augmented system, D_i's right-hand side at
    column aug + i, eliminated once: D_i has partner maps exactly when
    column aug + i vanishes on every echelon row led at or past aug.
    """
    kind, alpha = space.kind, A.alpha_sparse(1)
    # a kind that admits only [D, alpha] = 0 is checked for it in any case
    commute = space.commute or _COMMUTE[kind] == (True,)
    if kind in ("qder", "gder"):
        # the rows led past the unknowns span the combinations vanishing on them
        rows, aug = _partner_rows(A, space.k, space.gamma, space._basis, kind,
                                  degree_pattern(A, space.gamma)) if space._basis else ([], 0)
        stuck = {c - aug for p, row in linalg.Echelon(rows).rows.items() if p >= aug
                 for c in row}
        holds = lambda i, D: i not in stuck
    else:
        # a^k e_x as sparse columns and eps(gamma, x), formed once per space
        ak_e = _transpose(A.alpha_sparse(space.k))
        eps = [A.eps(space.gamma, A.degree(x)) for x in range(A.dim)]
        holds = lambda i, D: _direct_identity_holds(A, kind, D, ak_e, eps)
    failures = [{"matrix": [[str(c) for c in row] for row in space.basis[i]]}
                for i, D in enumerate(space._basis)
                if commute and _product(D, alpha) != _product(alpha, D) or not holds(i, D)]
    return CheckResult(not failures, failures)


def _partner_rows(A: ColorHomAlgebra, k: int, gamma: GroupElement, Ds, kind: str, pattern):
    """Augmented equations (rows, aug) on the partner maps of each qder/gder
    matrix of the list Ds, the right-hand side of Ds[i] at column aug + i,
    past every unknown.

    qder: one unknown P with P([x,y]) = [D x, a^k y] + eps(gamma,x)[a^k x, D y];
    gder: unknowns (P1, P2) with P2([x,y]) - eps(gamma,x)[a^k x, P1 y] = [D x, a^k y].
    Unknown t of a block is the coefficient of E_ij, (i, j) = pattern[t], and
    (E_ij v)[a] = delta_ai v[j]: it contributes [x,y][j] at component i of
    P([x,y]) and, when j = y, [a^k e_x, e_i] to [a^k x, P1 y].  Rows run over
    (x, y, component), then the [P, alpha] = 0 rows of each block; the rows
    are sparse, and a row whose coefficients and right-hand sides all vanish
    is dropped.
    """
    dim, nD = A.dim, len(pattern)
    blocks = _BLOCKS[kind] - 1
    bracket, one, aug = A.bracket, CycloScalar.one(A.m), blocks * nD
    ak_e, d_es = _transpose(A.alpha_sparse(k)), [_transpose(D) for D in Ds]
    rows = []
    for x in range(dim):
        e = A.eps(gamma, A.degree(x))
        if kind == "gder":
            right = [bracket.sparse_bilinear(ak_e.get(x, {}), {i: one}) for i in range(dim)]
        for y in range(dim):
            bxy = bracket.rows.get((x, y), {})
            group = [{} for _ in range(dim)]
            for t, (i, j) in enumerate(pattern):
                if j in bxy:
                    group[i][(blocks - 1) * nD + t] = bxy[j]
                if kind == "gder" and j == y:
                    for comp, v in right[i].items():
                        group[comp][t] = -e * v
            for col, d_e in enumerate(d_es, aug):
                target = bracket.sparse_bilinear(d_e.get(x, {}), ak_e.get(y, {}))
                if kind == "qder":
                    _add_scaled(target, e, bracket.sparse_bilinear(ak_e.get(x, {}),
                                                                   d_e.get(y, {})))
                for comp, v in target.items():
                    group[comp][col] = v
            rows.extend(row for row in group if row)
    return rows + _commute_rows(A, gamma, pattern, blocks), aug


def _direct_identity_holds(A: ColorHomAlgebra, kind: str, D, ak_e, eps) -> bool:
    """The der, centroid or qcentroid identity of D on every basis pair."""
    # D e_x is a sparse column too; D and the bracket act per pair, on supports
    bracket, d_e = A.bracket, _transpose(D)
    def identity(x, y):
        left = bracket.sparse_bilinear(d_e.get(x, {}), ak_e.get(y, {}))
        right = {c: eps[x] * v for c, v in
                 bracket.sparse_bilinear(ak_e.get(x, {}), d_e.get(y, {})).items()}
        if kind == "qcentroid":
            return left == right
        dxy = bracket.mapped_row(x, y, d_e)
        if kind == "centroid":
            return dxy == left == right
        _add_scaled(left, None, right)
        return dxy == left
    # where D e_x = D e_y = 0 and [e_x, e_y] = 0 every term vanishes
    return all(identity(x, y) for x in range(A.dim) for y in range(A.dim)
               if x in d_e or y in d_e or (x, y) in bracket.rows)


def jordan_product(D1, gamma1: GroupElement, D2, gamma2: GroupElement,
                   eps: BiCharacter):
    """eps-anticommutator D1 D2 + eps(gamma1, gamma2) D2 D1 of dense matrices."""
    P = _anticommutator(linalg.sparse(D1), linalg.sparse(D2), eps(gamma1, gamma2))
    return linalg.dense(P, len(D1), D1[0][0].root_order)


class ProductAlgebraData:
    """A graded product on an operator span: size x size basis matrices with
    degrees, the product table mu in span coordinates (table[i][j] is the
    image of (e_i, e_j)), and the twist action by conjugation.  Each is given
    dense or sparse and kept sparse only."""

    __slots__ = ("_matrices", "size", "degrees", "mu", "_alpha_action", "eps", "m")

    def __init__(self, matrices: list, size: int, degrees: list, table: list,
                 alpha_action, eps: BiCharacter, m: int):
        *self._matrices, self._alpha_action = (linalg.sparse(M)
                                               for M in (*matrices, alpha_action))
        self.size, self.degrees, self.eps, self.m = size, degrees, eps, m
        self.mu = StructureConstants.of_cells(table, m)

    dim = property(lambda self: len(self._matrices))
    # fresh dense copies of the basis matrices, the table and the twist action
    matrices = property(lambda self: [linalg.dense(M, self.size, self.m) for M in self._matrices])
    table = property(lambda self: [[self.mu.of_basis(i, j) for j in range(self.dim)]
                                   for i in range(self.dim)])
    alpha_action = property(lambda self: linalg.dense(self._alpha_action, self.dim, self.m))


class NotClosedError(AlgebraStructureError):
    pass


def quasi_centroid_jordan(A: ColorHomAlgebra, max_power: int = 2,
                          commute_with_alpha: bool = False) -> ProductAlgebraData:
    """The eps-anticommutator product on the quasi-centroid span.

    Elements are collected over twist powers 0..max_power, because the
    product of power-k and power-s elements lands at power k+s; within a
    single power the span is generally not closed.  The twist acts by
    conjugation D -> alpha D alpha^(-1); an invertible twist is required.
    Raises NotClosedError when the product or the twist action leaves the
    collected span (e.g. when max_power is too small for the algebra).
    One echelon form of the collected span picks the elements.  The picked
    flats are independent, so their entries at the span's pivot columns P form
    an invertible matrix C, and a product or conjugate v of the span, formed
    on sparse rows, has the coordinates C^-1 v[P].
    """
    if max_power < 0:
        raise ValueError("twist power must be non-negative")
    try:
        alpha_inv = A.alpha_sparse(-1)
    except AlgebraStructureError:
        raise AlgebraStructureError("quasi-centroid twist action needs invertible alpha")
    span, flats = linalg.Echelon(), []
    matrices, degrees = [], []
    for k in range(max_power + 1):
        for gamma in A.basis.group.elements():
            for M in solve_space(A, "qcentroid", k, gamma, commute_with_alpha)._basis:
                if span.add(flat := _flat(M)):
                    flats.append(flat)
                    matrices.append(M)
                    degrees.append(gamma)
    n, pivots = len(matrices), sorted(span.rows)
    # row k of the inverse of C's transpose is column k of C^-1
    inverse_cols = linalg.inverse({k: {t: flat[p] for t, p in enumerate(pivots) if p in flat}
                                   for k, flat in enumerate(flats)}, n, A.m)
    def coords(rows, pair=None):
        if (vec := _flat(rows)) not in span:
            raise NotClosedError(
                "twist conjugation leaves the quasi-centroid span" if pair is None else
                f"quasi-centroid is not closed under the product at pair ({pair[0]},{pair[1]})")
        at_pivots = {k: vec[p] for k, p in enumerate(pivots) if p in vec}
        return _product({0: at_pivots}, inverse_cols).get(0, {})
    table = [[coords(_anticommutator(M, N, A.eps(degrees[i], degrees[j])), (i, j))
              for j, N in enumerate(matrices)] for i, M in enumerate(matrices)]
    alpha = A.alpha_sparse(1)
    action_cols = {k: coords(_product(alpha, _product(M, alpha_inv)))
                   for k, M in enumerate(matrices)}
    return ProductAlgebraData(matrices, A.dim, degrees, table, _transpose(action_cols),
                              A.eps, A.m)


def check_hom_jordan(J: ProductAlgebraData) -> dict:
    """Commutativity law on pairs; the twisted Jordan identity on quadruples.

    Vectors are {k: nonzero scalar} dicts on their supports: the basis
    products are the rows of J.mu, the twist images the nonzero entries of
    J.alpha_action.  By linearity in the first slot, each cyclic-sum term
    eps(d_r, d_p + d_z) as(e_p.e_q, alpha e_z, alpha e_r) is formed once from
    the base associators as(e_k, alpha e_z, alpha e_c), eps once per degree
    triple, and added into the three quadruples whose sums hold it.
    """
    n, mu, rows = J.dim, J.mu, J.mu.rows
    one, minus = CycloScalar.one(J.m), -CycloScalar.one(J.m)
    alpha = _transpose(J._alpha_action)  # alpha[t] = alpha e_t
    hcj1 = [{"pair": [i, j]} for i, j in mu.commutation_failures(J.degrees, J.eps, 1)]
    # Hom-associators as(u,v,w) = (u.v).alpha(w) - alpha(u).(v.w) at
    # u = e_k, v = alpha e_z, w = alpha e_c: assoc[k][(z, c)], the nonzero ones
    alpha2 = _product(alpha, alpha)  # alpha2[c] = alpha(alpha e_c)
    right = {(z, c): mu.sparse_bilinear(alpha.get(z, {}), alpha.get(c, {}))
             for z, c in product(range(n), repeat=2)}
    assoc = {}
    for k in {k for row in rows.values() for k in row}:
        for z in range(n):
            left = mu.sparse_bilinear({k: one}, alpha.get(z, {}))
            for c in range(n):
                if not left and not right[(z, c)]:
                    continue
                acc = mu.sparse_bilinear(left, alpha2.get(c, {}))
                _add_scaled(acc, minus, mu.sparse_bilinear(alpha.get(k, {}),
                                                           right[(z, c)]))
                if acc:
                    assoc.setdefault(k, {})[(z, c)] = acc
    eps = cache(lambda r, p, z: J.eps(r, p + z))  # once per degree triple
    text, sums = cache(str), {}  # each distinct residual scalar formatted once
    for (p, q), pq in rows.items():
        terms = {}  # (z, r) -> as(e_p.e_q, alpha e_z, alpha e_r)
        for k, c in pq.items():
            for zr, vec in assoc.get(k, {}).items():
                _add_scaled(terms.setdefault(zr, {}), c, vec)
        for (z, r), term in terms.items():
            e = eps(J.degrees[r], J.degrees[p], J.degrees[z])
            term = {t: e * c for t, c in term.items()}
            for quadruple in ((p, q, z, r), (r, p, z, q), (q, r, z, p)):
                _add_scaled(sums.setdefault(quadruple, {}), None, term)
    zero, hcj2 = str(CycloScalar.zero(J.m)), []
    for quadruple in sorted(sums):
        acc = sums[quadruple]
        if acc:
            residual = [zero] * n
            for t, c in acc.items():
                residual[t] = text(c)
            hcj2.append({"quadruple": list(quadruple), "residual": residual})
    return {"hcj1": CheckResult(not hcj1, hcj1),
            "hcj2": CheckResult(not hcj2, hcj2)}


def check_inclusion_lattice(A: ColorHomAlgebra, k_range, gamma_range) -> dict:
    """Membership-based verification of the composition and inclusion laws:
    centroid o gder lands in gder at the summed power and degree, centroid
    embeds in qder, and eps-commutators of quasi-centroid elements are gder.
    Each (kind, k, gamma) basis is read once per call, as sparse rows, and
    membership in it is tested on one echelon form, solved only when needed:
    zero is in every space, and qder and gder both ask [D, alpha] = 0, so a
    matrix that does not commute with alpha is in neither.  [D2, D1] =
    -eps(g', g)[D1, D2] lies in the same gder space as [D1, D2], so each
    unordered pair of quasi-centroid elements is decided once."""
    failures = {"centroid_in_qder": [], "centroid_compose_gder": [],
                "qcentroid_brackets": []}
    bases, tests, alpha = {}, {}, A.alpha_sparse(1)
    def basis(*key):  # key = (kind, k, gamma)
        if key not in bases:
            bases[key] = solve_space(A, *key)._basis
        return bases[key]
    def member(M, *key):  # key = ("qder" or "gder", k, gamma)
        if not M or _product(M, alpha) != _product(alpha, M):
            return not M
        if key not in tests:
            tests[key] = linalg.Echelon(_flat(B) for B in basis(*key))
        return _flat(M) in tests[key]
    for k, gamma in product(k_range, gamma_range):
        for M in basis("centroid", k, gamma):
            if not member(M, "qder", k, gamma):
                failures["centroid_in_qder"].append({"k": k, "degree": list(gamma.components)})
    quadruples = list(product(k_range, k_range, gamma_range, gamma_range))
    for k, kp, gamma, gp in quadruples:
        cent, gder = basis("centroid", kp, gp), basis("gder", k, gamma)
        if not cent or not gder:
            continue
        for C in cent:
            for D in gder:
                if not member(_product(C, D), "gder", k + kp, gamma + gp):
                    failures["centroid_compose_gder"].append(
                        {"k": k, "kp": kp, "degree": list((gamma + gp).components)})
    verdicts = {}  # ((k, gamma, a), (kp, gp, b)) -> [D1_a, D2_b] in gder
    for k, kp, gamma, gp in quadruples:
        qc1, qc2 = basis("qcentroid", k, gamma), basis("qcentroid", kp, gp)
        if not qc1 or not qc2:
            continue
        e = A.eps(gamma, gp)
        for (a, D1), (b, D2) in product(enumerate(qc1), enumerate(qc2)):
            pair = ((k, gamma, a), (kp, gp, b))
            if (ok := verdicts.get(pair[::-1])) is None:
                ok = verdicts[pair] = member(_anticommutator(D1, D2, -e), "gder",
                                             k + kp, gamma + gp)
            if not ok:
                failures["qcentroid_brackets"].append(
                    {"k": k, "kp": kp, "degree": list((gamma + gp).components)})
    return {name: CheckResult(not items, items) for name, items in failures.items()}
