"""Exact linear algebra over cyclotomic scalars.

Inside the engine a matrix has one form, {row: {column: nonzero scalar}}
without empty rows, and a vector is {index: nonzero scalar}; the columns of
a matrix (the images of the basis vectors) are the rows of its
``_transpose``, and ``_product`` and ``_combine`` are its product and its
linear combinations.  Every object that owns an operator (a twist, a
representation, a sigma-derivation, a spanning matrix, a series
coefficient) stores it in this form only.  ``sparse`` is the one way in,
called once by the constructor that receives a matrix in either form, and
``dense`` the one way out, for files, reports and the read-only dense
views.  A dict handed to a kernel is zero-free, and each kernel keeps its
output so by dropping an entry where it cancels; no kernel reads a dense
row.  ``mat_mul`` is the one dense product, a face of ``_product`` for
callers that hold dense lists.

Elimination is Gauss-Jordan with exact division and canonical pivot
normalization, so a one-entry pivot row is the unit row {p: 1}, stored
without an inverse; reducing against it or clearing its column deletes one
entry, with no scalar arithmetic.  The reduced row echelon form is unique
over a field, and ``rref`` returns one, so each question below is asked of
one ``Echelon``:

* kernel: ``sparse_kernel_basis``, itself rref(ker M), reduced by no caller again;
* span membership: ``vec in Echelon(rows)``;
* consistency of M x = b: column ``ncols`` is no pivot of ``Echelon`` on [M | b];
* quotient Z/B: the vectors of Z, in order, that ``Echelon(B).add`` takes;
* inverse: ``inverse`` of [M | I], sparse in and out.
"""
from __future__ import annotations

from .scalars_grading import CycloScalar, ScalarError, _muladd


def mat_mul(A, B):
    """A B on dense lists, the dense face of ``_product``."""
    p = len(B[0]) if B else 0
    m = B[0][0].root_order if A and p else 1
    if A and p and A[0][0].root_order != m:  # a skipped zero would hide it
        raise ScalarError(f"mixed cyclotomic orders {A[0][0].root_order} and {m}")
    P = _product(sparse(A), sparse(B))
    return dense([P.get(r, {}) for r in range(len(A))], p, m)


def _add_scaled(acc, coeff, row):
    """acc += coeff * row on sparse rows, in place (coeff None adds row),
    deleting each entry that cancels."""
    if coeff is None:
        for k, c in row.items():
            if k not in acc:
                acc[k] = c
            elif any((y := acc[k] + c).num):
                acc[k] = y
            else:
                del acc[k]
    else:
        for k, c in row.items():
            if any((y := _muladd(c, coeff, acc.get(k))).num):
                acc[k] = y
            else:
                acc.pop(k, None)


def sparse(M):
    """A dense matrix (a list of rows), or a sparse one, in the sparse form:
    fresh rows without zero entries, and no empty rows."""
    rows = M.items() if isinstance(M, dict) else enumerate(M)
    return {r: kept for r, row in rows if (kept := {
        c: a for c, a in (row.items() if isinstance(row, dict) else enumerate(row))
        if any(a.num)})}


def dense(vectors, length: int, m: int):
    """Sparse vectors, or the rows 0..length-1 of a sparse matrix, as fresh
    dense vectors of the given length."""
    if isinstance(vectors, dict):
        vectors = [vectors.get(r, {}) for r in range(length)]
    zero = CycloScalar.zero(m)
    return [[v.get(c, zero) for c in range(length)] for v in vectors]


def _combine(terms):
    """The sparse matrix sum of coeff * M over the (coeff, M) terms; a coeff
    of None adds M as it is."""
    acc = {}
    for coeff, M in terms:
        for r, row in M.items():
            _add_scaled(acc.setdefault(r, {}), coeff, row)
    return {r: row for r, row in acc.items() if row}


def _transpose(rows):
    """The transpose of a sparse matrix."""
    out = {}
    for r, row in rows.items():
        for c, a in row.items():
            out.setdefault(c, {})[r] = a
    return out


def _product(rows, other):
    """The product of two sparse matrices."""
    out = {}
    for r, row in rows.items():
        acc = {}
        for c, v in row.items():
            if c in other:
                _add_scaled(acc, v, other[c])
        if acc:
            out[r] = acc
    return out


class Echelon:
    """A fully reduced echelon form {pivot column: sparse row}, grown one
    vector at a time.

    ``holders`` maps each non-pivot column to a list of the pivot rows that
    may be nonzero there, so that a new pivot column is cleared from those
    rows only.  An entry may be stale, naming a row where the column has
    since cancelled, or repeated; ``add`` skips a row that no longer holds
    the column.  Every row is 1 at its pivot, so a one-entry row is {p: 1},
    and ``_reduce`` and ``add`` meet it by deleting an entry.
    """

    __slots__ = ("rows", "holders")

    def __init__(self, vectors=()):
        self.rows, self.holders = {}, {}
        for vec in vectors:
            self.add(vec)

    def _reduce(self, vec):
        """The sparse vec as a fresh dict, reduced in one pass against every
        pivot, against a unit row {p: 1} by deleting the entry at p: empty
        exactly when vec lies in the span."""
        v, rows = dict(vec), self.rows
        for p in [p for p in v if p in rows]:
            if len(row := rows[p]) == 1:
                del v[p]
            else:
                _add_scaled(v, -v[p], row)
        return v

    def __contains__(self, vec) -> bool:
        return not self._reduce(vec)

    def add(self, vec) -> bool:
        """Absorb vec: reduced, scaled to 1 at its leftmost nonzero column and
        that column cleared from the other rows; False, changing nothing, in the span."""
        v = self._reduce(vec)
        if not v:
            return False
        c, unit = min(v), len(v) == 1
        one = CycloScalar.one(v[c].root_order)
        if unit:
            v = {c: one}
        elif v[c] != one:
            inv = v[c].inverse()
            v = {k: inv * a for k, a in v.items()}
        rows, holders = self.rows, self.holders
        cleared = [c]
        for p in holders.pop(c, ()):
            prow = rows[p]
            if c not in prow:
                continue
            if unit:
                del prow[c]
            else:
                _add_scaled(prow, -prow[c], v)
            cleared.append(p)
        # the rows just cleared, and the new one, may be nonzero wherever v is
        for k in v:
            if k != c:
                holders.setdefault(k, []).extend(cleared)
        rows[c] = v
        return True


def rref(rows):
    """Reduced row echelon form of zero-free sparse rows: (rows, pivot_cols),
    the nonzero rows as sparse dicts sorted by pivot column.  It is unique
    over a field, so the row order does not change it."""
    echelon = Echelon(rows).rows
    pivots = sorted(echelon)
    return [echelon[c] for c in pivots], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def sparse_kernel_basis(M, ncols: int, m: int):
    """rref(ker M): the reduced row echelon basis of {v : M v = 0}, sparse
    vectors sorted by leading column; M is a list of zero-free sparse
    equation rows.  M is eliminated once, with its columns reversed,
    so each vector is 1 at its own free column, its leftmost nonzero, and
    otherwise nonzero only at pivot columns, where no vector leads."""
    last = ncols - 1
    red, pivots = rref([{last - c: a for c, a in row.items()} for row in M])
    o = CycloScalar.one(m)
    pivot_set = set(pivots)
    basis = {fc: {last - fc: o} for fc in range(last, -1, -1) if fc not in pivot_set}
    for row, pc in zip(red, pivots):
        for c, a in row.items():
            if c != pc:
                basis[c][last - pc] = -a
    return list(basis.values())


def inverse(M, n: int, m: int):
    """The inverse of the n x n sparse matrix M, sparse, from one echelon form
    of the rows [M | I]; raises ValueError when M is singular."""
    o = CycloScalar.one(m)
    red = Echelon({**M.get(i, {}), n + i: o} for i in range(n)).rows
    if any(c >= n for c in red):
        raise ValueError("matrix is singular")
    return {r: {c - n: a for c, a in red[r].items() if c >= n} for r in range(n)}
