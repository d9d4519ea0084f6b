"""Cross-module consistency: arity-1 cocycles against twisted derivations.

The degree-patterned part of the compatible 1-cocycle space for the shifted
adjoint action matches the corresponding twisted-derivation space, computed
by a completely separate solver.  This ties the cohomology assembly and the
structure-theory elimination together through two independent code paths.
"""
import random

from colorhomlie import linalg
from colorhomlie.cohomology import cohomology_group
from colorhomlie.representations import adjoint, alpha_s_adjoint
from colorhomlie.scalars_grading import CycloScalar
from colorhomlie.structure_theory import degree_pattern, derivation_space

from conftest import random_multiplicative_algebra, sl2c_z2z2


def _pattern_part(A, vectors, gamma):
    """Combinations of the given 1-cochain vectors supported on the
    degree-gamma matrix pattern (coordinates are (source j, target k))."""
    if not vectors:
        return []
    pattern = set(degree_pattern(A, gamma))
    rows = []
    for j in range(A.dim):
        for k in range(A.dim):
            if (k, j) not in pattern:
                rows.append([v[j * A.dim + k] for v in vectors])
    if rows:
        combos = linalg.kernel_basis(rows, len(vectors), A.m)
    else:
        combos = [row for row in linalg.identity(len(vectors), A.m)]
    out = []
    for cv in combos:
        acc = [CycloScalar.zero(A.m)] * (A.dim * A.dim)
        for c, v in zip(cv, vectors):
            acc = [a + c * b for a, b in zip(acc, v)]
        if any(not a.is_zero() for a in acc):
            out.append(acc)
    return out


def _space_as_coords(A, space):
    out = []
    for M in space.basis:
        vec = []
        for j in range(A.dim):
            for k in range(A.dim):
                vec.append(M[k][j])
        out.append(vec)
    return out


def _assert_match(A, rep, r, k):
    for gamma in A.basis.group.elements():
        res = cohomology_group(A, rep, 1, r, gamma, restrict="compatible")
        cocycle_part = _pattern_part(A, res.cocycle_basis, gamma)
        der = _space_as_coords(A, derivation_space(A, k, gamma))
        if cocycle_part or der:
            assert linalg.span_equal(cocycle_part, der), \
                (A.name, tuple(gamma.components), len(cocycle_part), len(der))


def test_one_cocycles_are_twisted_derivations_shipped():
    A = sl2c_z2z2()
    _assert_match(A, adjoint(A), r=1, k=1)
    # invertible twist: the shifted action at s = -1 matches plain derivations
    _assert_match(A, alpha_s_adjoint(A, -1), r=1, k=0)


def test_one_cocycles_are_twisted_derivations_randomized(rng):
    for _ in range(12):
        A = random_multiplicative_algebra(rng)
        _assert_match(A, adjoint(A), r=1, k=1)
        if linalg.rank(A.alpha) == A.dim:
            _assert_match(A, alpha_s_adjoint(A, -1), r=1, k=0)


def test_inner_coboundaries_from_fixed_points():
    # arity-1 coboundaries come from twist-fixed elements acting by the
    # bracket; on the shipped example the fixed space is the e3 line
    A = sl2c_z2z2()
    R = adjoint(A)
    gamma = A.basis.group.element((1, 1))
    res = cohomology_group(A, R, 1, 1, gamma, restrict="compatible")
    assert res.dim_B == 1
    # the coboundary of e3 acts like +-[e3, .]; its matrix entries live on
    # the degree-(1,1) pattern
    pattern = set(degree_pattern(A, gamma))
    for v in res.coboundary_basis:
        for j in range(A.dim):
            for k in range(A.dim):
                if not v[j * A.dim + k].is_zero():
                    assert (k, j) in pattern
