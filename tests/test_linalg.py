"""Exact elimination: the sparse solvers of ``linalg`` against the dense
column-by-column Gauss-Jordan ``rref_direct``; and the zero-skipping dense
product ``mat_mul`` against the every-cell loop.

Every solver goes through one sparse row type, {column: nonzero scalar}, and
takes only that: a dense test matrix goes in through ``linalg.sparse`` or
``as_sparse``.  The reduced row echelon form is unique over a field, so each
result must equal the one the dense oracle gives on the same matrix: the
same rows, pivots, kernel and image bases, consistency verdicts, inverses
and greedy picks.
"""
import copy
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from colorhomlie import linalg
from colorhomlie.algebra_core import StructureConstants, cyclic_residual
from colorhomlie.scalars_grading import BiCharacter, CycloScalar, FiniteAbelianGroup, ScalarError

from conftest import (assert_rref, assert_zero_free, bilinear_direct, direct_sum, in_span,
                      inverse_direct, kernel_basis, mat_mul_direct, mat_vec_direct, rref_direct,
                      sl2c_z2z2, solve_direct)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
ROOT_ORDERS = (1, 2, 3, 4)
PHI = {1: 1, 2: 1, 3: 2, 4: 2}


def scalars(m: int, sparse: bool):
    """Small cyclotomic scalars; a sparse draw is zero three times in four."""
    nonzero = st.tuples(st.lists(st.integers(-3, 3), min_size=PHI[m], max_size=PHI[m]),
                        st.sampled_from([1, 2, 3])).map(
        lambda cd: CycloScalar([Fraction(c, cd[1]) for c in cd[0]], m))
    if not sparse:
        return nonzero
    return st.sampled_from([0, 0, 0, 1]).flatmap(
        lambda k: nonzero if k else st.just(CycloScalar.zero(m)))


def as_sparse(row):
    return {c: a for c, a in enumerate(row) if not a.is_zero()}


def as_dense(row, ncols, m):
    return [row.get(c, CycloScalar.zero(m)) for c in range(ncols)]


@st.composite
def systems(draw, square=False):
    """(m, ncols, dense rows, the same rows as sparse dicts).

    The rows are drawn sparse or dense; an all-zero row, an all-zero column
    and a duplicated row are each put in about half the time, and ncols = 0
    is allowed unless the matrix is square.
    """
    m = draw(st.sampled_from(ROOT_ORDERS))
    ncols = draw(st.integers(1 if square else 0, 5))
    nrows = ncols if square else draw(st.integers(0, 6))
    entry = scalars(m, draw(st.booleans()))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero = CycloScalar.zero(m)
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [zero] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        rows = [row[:c] + [zero] + row[c + 1:] for row in rows]
    if rows and not square and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return m, ncols, rows, [as_sparse(row) for row in rows]


def combination(draw, rows, m, ncols):
    """A random linear combination of the rows (zero when there are none)."""
    out = [CycloScalar.zero(m)] * ncols
    for row in rows:
        c = draw(scalars(m, sparse=True))
        out = [a + c * b for a, b in zip(out, row)]
    return out


# -- the dense oracles, each on rref_direct ---------------------------------------

def rank_direct(rows):
    return len(rref_direct(rows)[1]) if rows else 0


def kernel_direct(M, ncols, m):
    red, pivots = rref_direct(M) if M else ([], [])
    z, o = CycloScalar.zero(m), CycloScalar.one(m)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [z] * ncols
        v[fc] = o
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis


def consistent(rows, target, ncols):
    """Whether M x = target has a solution, asked as the package asks it:
    column ncols is no pivot of one echelon form of [M | target], each sparse
    row augmented by its entry of target (a zero entry left out)."""
    augmented = [{**row, ncols: t} if not t.is_zero() else row
                 for row, t in zip(rows, target)]
    return ncols not in linalg.Echelon(augmented).rows


def quotient_direct(z_basis, b_basis):
    """Greedy picks by rank: v is taken when it raises the rank of b + picks."""
    picks = []
    for v in z_basis:
        if rank_direct(b_basis + picks + [v]) > rank_direct(b_basis + picks):
            picks.append(v)
    return picks


# -- properties -------------------------------------------------------------------

@PROPERTY
@given(systems())
def test_rref_matches_dense_oracle(system):
    m, ncols, rows, srows = system
    before = [dict(r) for r in srows]
    red, pivots = linalg.rref(srows)
    want_rows, want_pivots = rref_direct(rows) if rows else ([], [])
    assert pivots == want_pivots
    assert [as_dense(r, ncols, m) for r in red] == want_rows
    # the sparse row type: no stored zeros, 1 at the pivot; inputs untouched
    assert all(not a.is_zero() for r in red for a in r.values())
    assert all(r[p] == CycloScalar.one(m) and min(r) == p for r, p in zip(red, pivots))
    assert srows == before


@PROPERTY
@given(systems())
def test_kernel_and_rank_match_dense_oracle(system):
    m, ncols, rows, srows = system
    # the kernel comes back in reduced row echelon form, so it equals the
    # oracle's forward kernel basis once that is reduced
    assert kernel_basis(srows, ncols, m) == rref_direct(kernel_direct(rows, ncols, m))[0]
    assert_rref(linalg.sparse_kernel_basis(srows, ncols, m))
    assert linalg.rank(srows) == rank_direct(rows)


@PROPERTY
@given(st.sampled_from((2, 3)), st.integers(1, 7), st.integers(0, 7), st.booleans(),
       st.data())
def test_the_kernel_is_the_rref_of_the_forward_kernel(m, ncols, nrows, as_dicts, data):
    # the kernel contract: one elimination gives rref(ker M), as zero-free
    # sparse vectors, whether M comes as sparse rows or as dense rows that
    # hold zeros; the oracle reduces the dense forward kernel a second time
    rows = data.draw(st.lists(st.lists(scalars(m, sparse=True), min_size=ncols,
                                       max_size=ncols), min_size=nrows, max_size=nrows))
    if rows and data.draw(st.booleans()):
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    # per row, or through linalg.sparse, which leaves out the zero rows
    given_rows = [as_sparse(row) for row in rows] if as_dicts else \
        list(linalg.sparse(rows).values())
    got = linalg.sparse_kernel_basis(given_rows, ncols, m)
    assert_rref(got)
    assert_zero_free(got)
    assert linalg.dense(got, ncols, m) == rref_direct(kernel_direct(rows, ncols, m))[0]


@PROPERTY
@given(systems(), st.data())
def test_kernel_and_echelon_leave_their_input_rows_unchanged(system, data):
    # structure_theory hands one kept row to several eliminations, so no
    # elimination may write to the rows it is given
    m, ncols, rows, srows = system
    inputs = srows + [as_sparse(combination(data.draw, rows, m, ncols))]
    before = copy.deepcopy(inputs)
    linalg.sparse_kernel_basis(srows, ncols, m)
    echelon = linalg.Echelon(srows)
    assert inputs[-1] in echelon
    echelon.add(inputs[-1])
    assert inputs == before


@PROPERTY
@given(systems(), st.data())
def test_in_span_matches_dense_oracle(system, data):
    m, ncols, rows, srows = system
    if data.draw(st.booleans()):
        vec = combination(data.draw, rows, m, ncols)
    else:
        vec = data.draw(st.lists(scalars(m, sparse=True), min_size=ncols, max_size=ncols))
    want = (rank_direct(rows + [vec]) == rank_direct(rows) if rows
            else all(a.is_zero() for a in vec))
    assert in_span(srows, vec) == want
    assert in_span(srows, as_sparse(vec)) == want


@PROPERTY
@given(systems(), st.data())
def test_solve_matches_dense_oracle(system, data):
    m, ncols, rows, srows = system
    zero = CycloScalar.zero(m)
    x0 = data.draw(st.lists(scalars(m, sparse=True), min_size=ncols, max_size=ncols))
    reachable = [sum((a * b for a, b in zip(row, x0)), zero) for row in rows]
    arbitrary = data.draw(st.lists(scalars(m, sparse=True), min_size=len(rows),
                                   max_size=len(rows)))
    for target in (reachable, arbitrary):
        want = solve_direct(rows, target, m) is not None
        assert consistent(srows, target, ncols) == want
        if target is reachable:
            assert want


@PROPERTY
@given(systems(square=True), st.booleans(), st.data())
def test_inverse_matches_dense_oracle(system, invertible, data):
    m, n, rows, _ = system
    if invertible:
        # a product of unit lower and invertible upper triangular factors
        one = CycloScalar.one(m)
        lower = [[one if i == j else (rows[i][j] if j < i else CycloScalar.zero(m))
                  for j in range(n)] for i in range(n)]
        diag = data.draw(st.lists(scalars(m, sparse=False).filter(lambda a: not a.is_zero()),
                                  min_size=n, max_size=n))
        upper = [[diag[i] if i == j else (rows[i][j] if j > i else CycloScalar.zero(m))
                  for j in range(n)] for i in range(n)]
        rows = linalg.mat_mul(lower, upper)
    want, given_rows = inverse_direct(rows, m), linalg.sparse(rows)
    before = copy.deepcopy(given_rows)
    if want is None:
        assert not invertible
        with pytest.raises(ValueError):
            linalg.inverse(given_rows, n, m)
    else:
        got = linalg.inverse(given_rows, n, m)
        assert_zero_free(got)
        assert got == linalg.sparse(want)
    assert given_rows == before
    assert linalg.inverse({}, 0, m) == {}


@PROPERTY
@given(systems(), st.data())
def test_quotient_representatives_match_greedy_oracle(system, data):
    m, ncols, rows, srows = system
    subspace = [combination(data.draw, rows, m, ncols)
                for _ in range(data.draw(st.integers(0, 3)))]
    # the quotient as cohomology_group asks it: the vectors one echelon form
    # of the subspace takes, in order
    quotient = linalg.Echelon(as_sparse(v) for v in subspace)
    got = [v for v in srows if quotient.add(v)]
    assert [as_dense(v, ncols, m) for v in got] == quotient_direct(rows, subspace)


# -- the column index of Echelon ---------------------------------------------------

class CountingHolders(dict):
    """A holders index that counts the pivot rows ``Echelon.add`` visits."""
    visits = 0

    def pop(self, key, default=None):
        found = super().pop(key, default)
        self.visits += len(found)
        return found


def test_echelon_add_visits_only_the_holders_of_the_new_pivot_column():
    from colorhomlie import cohomology
    from colorhomlie.representations import adjoint
    base = sl2c_z2z2()
    A = direct_sum(direct_sum(base, base, "sl2c_z2z2^2"), base, "sl2c_z2z2^3")
    cx = cohomology._complex(A, adjoint(A))
    # the twist is diagonal, so each compatibility row has one entry and no
    # earlier pivot row holds a later pivot column; delta's rows do meet
    for rows, most in ((cohomology._compat_rows(cx, 3), 0),
                       (cx.delta(2, A.basis.group.element((1, 0)), 0), 150)):
        echelon, scanned = linalg.Echelon(), 0
        echelon.holders = CountingHolders()
        for vec in rows.values():
            scanned += len(echelon.rows)
            echelon.add(vec)
        assert len(echelon.rows) > 100 and scanned > 30000
        assert echelon.holders.visits <= most


def test_stale_holders_are_skipped_and_the_form_stays_exact():
    m = 2
    half = CycloScalar([Fraction(3, 2)], m)
    n = [CycloScalar.from_rational(k, m) for k in range(6)]
    vectors = [{0: n[1], 2: n[2], 3: n[3], 4: n[1]},
               {1: n[1], 2: n[1], 4: n[2]},
               {2: n[1], 3: half},  # clears column 2: column 3 cancels from row 0
               {3: n[5], 4: n[1]}]  # column 3 becomes a pivot
    echelon = linalg.Echelon(vectors[:3])
    assert 3 not in echelon.rows[0] and 0 in echelon.holders[3]
    assert echelon.add(vectors[3])
    dense_rows = [as_dense(v, 5, m) for v in vectors]
    want_rows, want_pivots = rref_direct(dense_rows)
    red, pivots = linalg.rref(vectors)
    assert pivots == want_pivots == [0, 1, 2, 3]
    assert [as_dense(r, 5, m) for r in red] == want_rows
    assert [as_dense(echelon.rows[p], 5, m) for p in pivots] == want_rows


# -- unit pivot rows ----------------------------------------------------------------

def counting_inverse(monkeypatch):
    """Patch ``CycloScalar.inverse`` to count its calls; returns the count."""
    calls, inverse = [0], CycloScalar.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)
    monkeypatch.setattr(CycloScalar, "inverse", counted)
    return calls


@pytest.mark.parametrize("m", (2, 3))
def test_unit_rows_are_stored_met_and_cleared_without_an_inverse(m, monkeypatch):
    w = CycloScalar.root_of_unity(m)  # -1 or zeta_3, so p + q w is never 0 or 1 below
    r = [CycloScalar.from_rational(p, m) + q * w
         for p, q in ((3, 1), (1, 2), (5, 1), (2, 3), (1, -1), (4, 1))]
    one = CycloScalar.one(m)
    calls = counting_inverse(monkeypatch)
    echelon = linalg.Echelon()
    assert echelon.add({0: r[0], 1: r[1]}) and calls[0] == 1  # leads with r[0] != 1
    # a one-entry vector becomes a pivot, and its column is deleted from row 0
    assert echelon.add({1: r[2]}) and 1 not in echelon.holders
    assert echelon.rows == {0: {0: one}, 1: {1: one}}
    # reduced against the unit rows 0 and 1 to one entry: another unit row
    assert echelon.add({0: r[3], 1: r[4], 2: r[5]}) and echelon.rows[2] == {2: one}
    # reduced against unit row 1 to a multi-entry pivot row that leads with r[1]
    assert echelon.add({1: r[0], 3: r[1], 4: r[2]}) and calls[0] == 2
    # a multi-entry pivot row that leads with 1 clears column 4 from row 3
    assert echelon.add({4: one, 5: r[3]}) and 4 not in echelon.rows[3]
    assert not echelon.add({0: r[4], 4: r[5], 5: r[5] * r[3]})
    assert {0: r[4], 2: r[0]} in echelon and {5: r[0]} not in echelon
    assert calls[0] == 2
    vectors = [{0: r[0], 1: r[1]}, {1: r[2]}, {0: r[3], 1: r[4], 2: r[5]},
               {1: r[0], 3: r[1], 4: r[2]}, {4: one, 5: r[3]}]
    want_rows, want_pivots = rref_direct([as_dense(v, 6, m) for v in vectors])
    assert sorted(echelon.rows) == want_pivots == [0, 1, 2, 3, 4]
    assert [as_dense(echelon.rows[p], 6, m) for p in want_pivots] == want_rows
    red, pivots = linalg.rref(vectors)
    assert pivots == want_pivots and [as_dense(v, 6, m) for v in red] == want_rows


def test_the_heis_zeta3_structure_solves_take_few_inverses(monkeypatch):
    from colorhomlie.structure_theory import KINDS, solve_space
    from conftest import heis_zeta3
    A = heis_zeta3()
    calls = counting_inverse(monkeypatch)
    for kind, k, gamma in product(KINDS, (0, 1), A.basis.group.elements()):
        solve_space(A, kind, k, gamma)
    # 106 with an inverse per one-entry pivot row, 18 with unit rows
    assert calls[0] <= 30


# -- the zero-skipping dense products ---------------------------------------------

@st.composite
def matrices(draw, m, nrows, ncols):
    """An nrows x ncols matrix, sparse or dense; an all-zero row and an
    all-zero column are each put in about half the time."""
    entry = scalars(m, draw(st.booleans()))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero = CycloScalar.zero(m)
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [zero] * ncols
    if draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        rows = [row[:c] + [zero] + row[c + 1:] for row in rows]
    return rows


@PROPERTY
@given(st.sampled_from(ROOT_ORDERS), st.integers(0, 4), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_mat_mul_matches_every_cell_oracle(m, n, k, p, data):
    A = data.draw(matrices(m, n, k))
    B = data.draw(matrices(m, k, p))
    assert linalg.mat_mul(A, B) == mat_mul_direct(A, B)


@pytest.mark.parametrize("zero_operand", [False, True])
def test_dense_products_reject_mixed_root_orders(zero_operand):
    # a zero operand is skipped, not multiplied, and is still checked
    def mat(m, value):
        return [[CycloScalar.from_rational(value, m)] * 2 for _ in range(2)]
    A, B = mat(2, 1), mat(3, 0 if zero_operand else 2)
    with pytest.raises(ScalarError):
        linalg.mat_mul(A, B)
    with pytest.raises(ScalarError):
        linalg.mat_mul(B, A)


# -- the one sparse operator form ---------------------------------------------------

@PROPERTY
@given(st.sampled_from(ROOT_ORDERS), st.integers(0, 4), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_sparse_form_round_trips_and_multiplies_like_the_dense_kernels(m, n, k, p, data):
    # sparse() of dense rows, of sparse rows and of its own output; dense()
    # back; _product, _transpose and _combine against the every-cell oracles
    A, B = data.draw(matrices(m, n, k)), data.draw(matrices(m, k, p))
    c = data.draw(scalars(m, sparse=True))
    SA, SB = linalg.sparse(A), linalg.sparse(B)
    assert SA == {r: as_sparse(row) for r, row in enumerate(A) if as_sparse(row)}
    assert linalg.sparse(SA) == SA and linalg.sparse(SA) is not SA
    assert linalg.sparse([as_sparse(row) for row in A]) == SA
    assert linalg.dense([SA.get(r, {}) for r in range(n)], k, m) == A
    assert linalg._product(SA, SB) == linalg.sparse(mat_mul_direct(A, B))
    assert linalg._transpose(SA) == linalg.sparse([[row[j] for row in A] for j in range(k)])
    twice = linalg._combine([(None, SA), (c, SA)])
    assert twice == linalg.sparse([[a + c * a for a in row] for row in A])
    assert all(row and all(not v.is_zero() for v in row.values()) for row in twice.values())


# -- zero-free kernels on inputs built to cancel ------------------------------------

@st.composite
def cancelling(draw):
    """(m, rows, units): an n x n dense matrix at m = 2, 3 or 4, n in 2..4,
    with entries 0 and +-zeta^e, so that its sums cancel often.  Row n - 1
    repeats row 0, row 1 negates it when n > 2, and in about half the rows
    the last entry negates the first, so such a row of rows . rows loses
    the terms of rows 0 and n - 1 to each other."""
    m = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2, 4))
    units = [s * CycloScalar.root_of_unity(m, e) for s in (1, -1) for e in (0, 1)]
    entry = st.sampled_from([CycloScalar.zero(m)] * 2 + units)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for row in rows:
        if draw(st.booleans()):
            row[-1] = -row[0]
    rows[-1] = list(rows[0])
    if n > 2:
        rows[1] = [-a for a in rows[0]]
    return m, rows, units


@PROPERTY
@given(cancelling(), st.data())
def test_kernels_drop_what_cancels_and_keep_no_empty_row(case, data):
    m, rows, units = case
    n, zero, minus = len(rows), CycloScalar.zero(m), -CycloScalar.one(m)
    f = data.draw(st.sampled_from(units))
    S = linalg.sparse(rows)
    dense_sum = lambda X, c, Y: linalg.sparse([[a + c * b for a, b in zip(x, y)]
                                               for x, y in zip(X, Y)])
    P = linalg._product(S, S)
    C = linalg._combine([(None, S), (minus, linalg._transpose(S))])
    for got, want in ((P, linalg.sparse(mat_mul_direct(rows, rows))),
                      (C, dense_sum(rows, minus, [[row[j] for row in rows] for j in range(n)])),
                      (linalg._combine([(None, P), (minus, linalg._product(S, S))]), {}),
                      (linalg._combine([(f, S), (None, S), (-f, S)]), S)):
        assert_zero_free(got)
        assert got == want
    # _add_scaled, in place: f * row n-1 and back, then row 0 less its copy;
    # then row 0 and its negative, added as they are
    acc = dict(S.get(0, {}))
    for c in (f, -f, minus):
        linalg._add_scaled(acc, c, S.get(n - 1, {}))
        assert_zero_free(acc)
    assert acc == {}
    linalg._add_scaled(acc, None, S.get(0, {}))
    linalg._add_scaled(acc, None, {k: -c for k, c in S.get(0, {}).items()})
    assert acc == {}
    # a table with (e_i, e_j) -> row (i + j) mod n; (e_0, e_0) and (e_0, e_(n-1))
    # give the same row, so u = e_0, v = e_0 - e_(n-1) is the zero image
    table = StructureConstants(n, m, {(i, j): rows[(i + j) % n]
                                      for i in range(n) for j in range(n)})
    assert table.sparse_bilinear({0: f}, {0: f, n - 1: -f}) == {}
    cols = linalg._transpose(S)  # cols[k] = rows e_k
    for u, v in ((rows[0], rows[n - 1]), (rows[1 % n], rows[0]), (rows[0], rows[0])):
        got = table.sparse_bilinear(as_sparse(u), as_sparse(v))
        assert_zero_free(got)
        assert got == as_sparse(bilinear_direct(table, u, v))
    for i in range(n):
        for j in range(n):
            got = table.mapped_row(i, j, cols)
            assert_zero_free(got)
            assert got == as_sparse(mat_vec_direct(rows, table.of_basis(i, j)))
    # the cyclic residual of a Lie bracket vanishes on every triple; that of
    # the table above is compared with the dense sum over the rotations
    group = FiniteAbelianGroup((1,))
    eps, degrees = BiCharacter(group, [[0]], m), [group.zero()] * 4
    one = CycloScalar.one(m)
    lie = StructureConstants(3, m, {(a, b): {c: s * f} for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
                                    for (a, b), s in (((a, b), one), ((b, a), minus))})
    for x, y, z in product(range(3), repeat=3):
        assert cyclic_residual([(lie, lie)], degrees, eps, x, y, z) == {}
    for x, y, z in product(range(n), repeat=3):
        got = cyclic_residual([(table, table)], degrees, eps, x, y, z)
        assert_zero_free(got)
        want = [zero] * n
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            unit = [one if t == a else zero for t in range(n)]
            want = [w + t for w, t in zip(want, bilinear_direct(table, unit, table.of_basis(b, c)))]
        assert got == as_sparse(want)


@PROPERTY
@given(cancelling(), st.data())
def test_eliminations_filter_dense_rows_and_leave_out_a_zero_right_hand_side(case, data):
    m, rows, units = case
    n, zero = len(rows), CycloScalar.zero(m)
    red, pivots = rref_direct(rows)
    for given_rows in (list(linalg.sparse(rows).values()), [as_sparse(row) for row in rows]):
        got, got_pivots = linalg.rref(given_rows)
        assert got_pivots == pivots and [as_dense(r, n, m) for r in got] == red
        echelon = linalg.Echelon(given_rows)
        assert_zero_free(echelon.rows)
        assert sorted(echelon.rows) == pivots
    # the zero right-hand side; a consistent one holding zeros; an arbitrary one
    x0 = data.draw(st.lists(st.sampled_from([zero] + units), min_size=n, max_size=n))
    reachable = mat_vec_direct(rows, x0)
    arbitrary = data.draw(st.lists(st.sampled_from([zero, zero] + units), min_size=n,
                                   max_size=n))
    for target in ([zero] * n, reachable, arbitrary):
        want = solve_direct(rows, target, m) is not None
        assert consistent([as_sparse(row) for row in rows], target, n) == want
        if target is not arbitrary:
            assert want
    # a zero right-hand side appended to the dense rows is filtered out on the way in
    assert linalg.Echelon(linalg.sparse([row + [zero] for row in rows]).values()).rows == \
        linalg.Echelon(linalg.sparse(rows).values()).rows
