"""Bracket endomorphisms as matrices: morphism verification, twists, enumeration.

Matrices act in the column convention: the image of the j-th basis vector is
the j-th column.  Twisting composes the bracket with an algebra endomorphism
and multiplies the twist map from the left (new twist = beta . alpha).
The checks read sparse matrices; ``enumerate_morphisms`` returns dense ones.
"""
from __future__ import annotations

import functools
import os
from itertools import product

from . import linalg
from .linalg import _add_scaled, _product
from .algebra_core import AlgebraStructureError, ColorHomAlgebra

DEFAULT_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "COLORHOM_BUDGET"


class BudgetExceededError(RuntimeError):
    pass


class NotAMorphismError(AlgebraStructureError):
    pass


def _is_even(A: ColorHomAlgebra, matrix) -> bool:
    """Even = maps each graded component into itself (sparsity vs degrees)."""
    return all(A.degree(i) == A.degree(j) for i, row in matrix.items() for j in row)


def verify_morphism(A: ColorHomAlgebra, f, strict_even: bool = False) -> bool:
    """f([x,y]) = [f(x), f(y)] on all ordered basis pairs, for a sparse f.

    All ordered pairs are needed: for maps that move vectors across graded
    components the skew rule does not transport the (i,j) identity to (j,i).
    """
    if strict_even and not _is_even(A, f):
        return False
    return next(A.bracket.endomorphism_failures(f), None) is None


def twist(A: ColorHomAlgebra, beta, name: str = "") -> ColorHomAlgebra:
    """Yau twist: bracket beta o [.,.] with twist map beta . alpha; beta dense or sparse."""
    beta = linalg.sparse(beta)
    if not verify_morphism(A, beta):
        raise NotAMorphismError("twist requires a verified algebra endomorphism")
    return ColorHomAlgebra(A.basis, A.eps, A.bracket.compose_with(beta),
                           _product(beta, A.alpha_sparse(1)), A.m, name=name)


def current_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    try:
        return int(env) if env else DEFAULT_BUDGET
    except ValueError:  # the parser reads it for every algebra file
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None


def enumerate_morphisms(A: ColorHomAlgebra, entry_set, strict_even: bool = False,
                        budget=None):
    """All dim x dim matrices over the distinct values of entry_set that are
    bracket endomorphisms, as (matrix, even) pairs.

    The budget counts the whole grid.  The search fixes the columns (images
    of the basis vectors) in order and checks f([e_i, e_j]) = [f e_i, f e_j]
    once columns i, j and the support of [e_i, e_j] are fixed, evaluating
    each bracket of two candidate columns once; each ordered pair is checked
    at exactly one column, so no result is checked again.  A pair (i, j),
    i, j < d, whose row sum_k c_k e_k ends at d fixes column d: f e_d =
    ([f e_i, f e_j] - sum_(k<d) c_k f e_k) / c_d is computed and looked up
    in the grid, not searched for.  Results are in the canonical order of
    their row-major entries.
    """
    entries = sorted(set(entry_set), key=lambda s: s.sort_key())
    n, bracket = A.dim, A.bracket
    total = len(entries) ** (n * n)
    limit = current_budget(budget)
    if total > limit:
        raise BudgetExceededError(
            f"{len(entries)}^{n * n} = {total} candidates exceed budget {limit}")
    columns = list(product(entries, repeat=n))
    sparse = [{k: c for k, c in enumerate(col) if any(c.num)} for col in columns]
    even = [{p for p, col in enumerate(sparse) if all(A.degree(k) == A.degree(d) for k in col)}
            for d in range(n)]
    # per column d, the pairs checked once it is fixed, and those that need it alone
    alone, checks = [[] for _ in range(n)], [[] for _ in range(n)]
    lead = [None] * n  # per column d, the first pair that fixes it: (i, j, 1/c_d, -c_k/c_d)
    for i, j in product(range(n), repeat=2):
        row = bracket.rows.get((i, j), {})
        (alone if i == j and set(row) <= {i} else checks)[max(i, j, *row)].append((i, j))
        if row and max(i, j) < (d := max(row)) and lead[d] is None:
            inv = row[d].inverse()
            lead[d] = (i, j, inv, {k: -c * inv for k, c in row.items() if k < d})
    grid = {frozenset(col.items()): p for p, col in enumerate(sparse)}
    chosen, cols = [0] * n, {}

    @functools.cache
    def image(p, q):
        return bracket.sparse_bilinear(sparse[p], sparse[q])

    def fits(d, p, pairs):
        chosen[d], cols[d] = p, sparse[p]
        return all(bracket.mapped_row(i, j, cols) == image(chosen[i], chosen[j])
                   for i, j in pairs)

    def extend(d):
        """Yield (matrix, even) for each completion of the columns before d."""
        if d == n:
            yield ([[columns[chosen[j]][i] for j in range(n)] for i in range(n)],
                   all(chosen[t] in even[t] for t in range(n)))
            return
        picks = per_index[d]
        if lead[d] is not None:
            i, j, inv, terms = lead[d]
            col = {k: v * inv for k, v in image(chosen[i], chosen[j]).items()}
            for k, c in terms.items():
                _add_scaled(col, c, cols[k])
            p = grid.get(frozenset(col.items()))
            picks = [p] if p in allowed[d] else []
        for p in picks:
            if fits(d, p, checks[d]):
                yield from extend(d + 1)

    per_index = [[p for p in range(len(columns)) if (not strict_even or p in even[d])
                  and fits(d, p, alone[d])] for d in range(n)]
    allowed = [set(ps) for ps in per_index]
    return sorted(extend(0),
                  key=lambda f: tuple(entries.index(c) for row in f[0] for c in row))


def morphism_is_invertible(A: ColorHomAlgebra, matrix) -> bool:
    """Whether the sparse matrix has full rank A.dim."""
    return linalg.rank(list(matrix.values())) == A.dim
