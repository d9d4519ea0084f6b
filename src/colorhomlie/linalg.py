"""Exact linear algebra over cyclotomic scalars.

Matrices are plain lists of lists of ``CycloScalar`` with a shared root order.
Everything is Gauss-Jordan with exact division and canonical pivot
normalization, so reduced forms (and hence reported bases) are reproducible.
"""
from __future__ import annotations

from .scalars_grading import CycloScalar


def zeros(rows: int, cols: int, m: int):
    z = CycloScalar.zero(m)
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(n: int, m: int):
    z, o = CycloScalar.zero(m), CycloScalar.one(m)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_vec(M, v):
    out = []
    for row in M:
        acc = None
        for a, b in zip(row, v):
            term = a * b
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def mat_mul(A, B):
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


def mat_pow(M, e: int, m: int):
    n = len(M)
    result = identity(n, m)
    base = [list(r) for r in M]
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, M):
    return [[c * a for a in row] for row in M]


def mat_eq(A, B):
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all((a - b).is_zero() for a, b in zip(ra, rb))
        for ra, rb in zip(A, B))


def rref(rows):
    """Reduced row echelon form (in place on a copy); returns (rows, pivot_cols)."""
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


def rank(rows) -> int:
    return len(rref(rows)[1]) if rows else 0


def kernel_basis(M, ncols: int, m: int):
    """Basis of {v : M v = 0}; M given as a list of equation rows."""
    red, pivots = rref(M) if M else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    z, o = CycloScalar.zero(m), CycloScalar.one(m)
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = o
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis


def row_space_basis(rows):
    """Canonical (rref) basis of the span of the given rows."""
    red, _ = rref(rows) if rows else ([], [])
    return [r for r in red if any(not a.is_zero() for a in r)]


def in_span(rows, vec) -> bool:
    if not rows:
        return all(a.is_zero() for a in vec)
    base = rank(rows)
    return rank(rows + [vec]) == base


def span_equal(rows_a, rows_b) -> bool:
    ra, rb = rank(rows_a), rank(rows_b)
    return ra == rb == rank(rows_a + rows_b)


def solve(M, target, m: int):
    """One solution x of M x = target, or None.  M is a list of rows."""
    ncols = len(M[0]) if M else 0
    aug = [list(row) + [t] for row, t in zip(M, target)]
    red, pivots = rref(aug)
    z = CycloScalar.zero(m)
    x = [z] * ncols
    for ri, pc in enumerate(pivots):
        if pc == ncols:
            return None  # inconsistent row 0 ... 0 | 1
        x[pc] = red[ri][ncols]
    # verify (cheap; guards the free-variable positions)
    for row, t in zip(M, target):
        acc = None
        for a, b in zip(row, x):
            term = a * b
            acc = term if acc is None else acc + term
        if acc is None:
            if not t.is_zero():
                return None
        elif not (acc - t).is_zero():
            return None
    return x


def inverse(M):
    """Exact inverse via Gauss-Jordan; raises ValueError when singular."""
    n = len(M)
    m = M[0][0].root_order
    aug = [list(row) + list(idrow) for row, idrow in zip(M, identity(n, m))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def is_zero_matrix(M) -> bool:
    return all(a.is_zero() for row in M for a in row)


def quotient_representatives(z_basis, b_basis):
    """Vectors from z_basis completing a basis of span(b_basis) to span(z_basis).

    Both inputs are lists of coordinate vectors with span(b) <= span(z); the
    returned representatives are drawn greedily from z_basis, so they are
    reproducible for a fixed input order.  Each vector is reduced once
    against a growing echelon form of b_basis and the representatives so far.
    """
    echelon = []  # (pivot column, sparse row scaled to 1 at the pivot)

    def absorb(vec) -> bool:
        """Add vec's residual to the echelon form; False when it is zero."""
        v = list(vec)
        for p, row in echelon:
            f = v[p]
            if not f.is_zero():
                for c, a in row:
                    v[c] = v[c] - f * a
        for p, a in enumerate(v):
            if not a.is_zero():
                inv = a.inverse()
                echelon.append((p, [(c, inv * x) for c, x in enumerate(v)
                                    if not x.is_zero()]))
                return True
        return False

    for b in b_basis:
        absorb(b)
    return [v for v in z_basis if absorb(v)]
