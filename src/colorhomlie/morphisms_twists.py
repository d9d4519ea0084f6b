"""Linear maps on a graded algebra, morphism verification, twists, enumeration.

Matrices act in the column convention: the image of the j-th basis vector is
the j-th column.  Twisting composes the bracket with an algebra endomorphism
and multiplies the twist map from the left (new twist = beta . alpha).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

from . import linalg
from .algebra_core import AlgebraStructureError, ColorHomAlgebra

DEFAULT_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "COLORHOM_BUDGET"


class BudgetExceededError(RuntimeError):
    pass


class NotAMorphismError(AlgebraStructureError):
    pass


@dataclass
class LinearMap:
    matrix: list
    even: bool


def _is_even(A: ColorHomAlgebra, matrix) -> bool:
    """Even = maps each graded component into itself (sparsity vs degrees)."""
    for i in range(A.dim):
        for j in range(A.dim):
            if not matrix[i][j].is_zero() and A.degree(i) != A.degree(j):
                return False
    return True


def verify_morphism(A: ColorHomAlgebra, f, strict_even: bool = False) -> bool:
    """f([x,y]) = [f(x), f(y)] on all ordered basis pairs.

    All ordered pairs are needed: for maps that move vectors across graded
    components the skew rule does not transport the (i,j) identity to (j,i).
    """
    matrix = f.matrix if isinstance(f, LinearMap) else f
    if strict_even and not _is_even(A, matrix):
        return False
    return next(A.bracket.endomorphism_failures(matrix), None) is None


def twist(A: ColorHomAlgebra, beta, name: str = "") -> ColorHomAlgebra:
    """Yau twist: bracket beta o [.,.] with twist map beta . alpha."""
    matrix = beta.matrix if isinstance(beta, LinearMap) else beta
    if not verify_morphism(A, matrix):
        raise NotAMorphismError("twist requires a verified algebra endomorphism")
    bracket = A.bracket.compose_with(matrix)
    alpha = linalg.mat_mul(matrix, A.alpha)
    return ColorHomAlgebra(A.basis, A.eps, bracket, alpha, A.m, name=name)


def current_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_BUDGET


def enumerate_morphisms(A: ColorHomAlgebra, entry_set, strict_even: bool = False,
                        budget=None):
    """All dim x dim matrices over entry_set that are bracket endomorphisms.

    The grid is exhausted column-wise: a column is the image of one basis
    vector, and whenever [e_i, e_i] = 0 a candidate column v must already
    satisfy [v, v] = 0, which prunes most of the grid before the full pair
    check runs.  Results are sorted by the canonical scalar key of their
    row-major entries, so the list is deterministic and lexicographic.
    """
    entries = sorted(entry_set, key=lambda s: s.sort_key())
    n = A.dim
    total = len(entries) ** (n * n)
    limit = current_budget(budget)
    if total > limit:
        raise BudgetExceededError(
            f"{len(entries)}^{n * n} = {total} candidates exceed budget {limit}")
    all_columns = [list(col) for col in product(entries, repeat=n)]
    per_index = []
    for i in range(n):
        self_bracket = A.bracket.of_basis(i, i)
        if all(c.is_zero() for c in self_bracket):
            cols = [v for v in all_columns
                    if all(c.is_zero() for c in A.bracket.bilinear(v, v))]
        else:
            cols = all_columns
        per_index.append(cols)
    found = []
    for combo in product(*per_index):
        matrix = [[combo[j][i] for j in range(n)] for i in range(n)]
        if verify_morphism(A, matrix, strict_even=strict_even):
            found.append(LinearMap(matrix, _is_even(A, matrix)))
    found.sort(key=lambda f: tuple(c.sort_key() for row in f.matrix for c in row))
    return found


def morphism_is_invertible(f: LinearMap) -> bool:
    return linalg.rank(f.matrix) == len(f.matrix)
