"""Acceptance suite: the pinned reproduction targets for this engine.

Each check prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
pytest -s and in failure output).  Five worked values of the source are
misprinted: no implementation can reproduce them, because each contradicts
its own example (A1-dims, A1-representatives, A2-printed-table,
A3-columns-3-4, A6-leibniz).  Those checks assert the verified values, each
either a literal derived by hand from the definition or confirmed inside the
test by an independent path (the operator-form coboundary oracles of
conftest, matrix columns read straight from the bundle); the printed value
stays next to it as an erratum with the reason it cannot hold.
"""
import random
import time
from itertools import product

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import check_color_hom_lie, derived_algebra
from colorhomlie.cli import run_command
from colorhomlie.cohomology import (coboundary_of_coords, cohomology_group,
                                    delta_matrix)
from colorhomlie.deformations import (check_deformation,
                                      composition_deformation, first_order_class)
from colorhomlie.fileio import parse_algebra_file, parse_commutative_algebra_file
from colorhomlie.hls_bracket import (QuotientSpace, SigmaDerivation, annihilator,
                                     check_ann_invariance, check_ijkl, check_mnop,
                                     check_sigma_derivation)
from colorhomlie.morphisms_twists import (enumerate_morphisms,
                                          morphism_is_invertible, twist,
                                          verify_morphism)
from colorhomlie.representations import adjoint
from colorhomlie.scalars_grading import CycloScalar
from colorhomlie.structure_theory import (check_hom_jordan,
                                          check_inclusion_lattice,
                                          quasi_centroid_jordan)

from conftest import (SL2C_Z2Z2_CASE_FAMILIES, build_algebra, coord_index, data_path,
                      delta1_direct, delta2_direct, in_span, kernel_basis,
                      parse_matrix_bundle, random_multiplicative_algebra, sc, span_equal,
                      sparse_rows, zeros)


def conclude(label, ok, detail=""):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail and not ok else ""))
    return ok


def _sl2c_z2z2():
    return parse_algebra_file(data_path("sl2c_z2z2.alg"))


def _sl2c_z2z3():
    return parse_algebra_file(data_path("sl2c_z2z3.alg"))


def _motion():
    return parse_algebra_file(data_path("motion_z2z3.alg"))


# =====================================================================
# A1: second-cohomology reproduction on the Z2xZ2 example
# =====================================================================

# (dim Z, dim B, dim H) of the arity-2 adjoint cohomology at r = 0, the same
# for every degree label, on the full skew cochain space and on the
# twist-compatible subspace.
A1_EXPECTED = {"free": (6, 4, 2), "compatible": (4, 4, 0)}
# Erratum: the source prints (4, 2, 2) / (2, 2, 0) / (3, 3, 0) for the labels
# g1 / g2 / g3.  Those Z entries count the cocycle families it lists per label
# (SL2C_Z2Z2_CASE_FAMILIES spans 4, 2 and 3 dimensions); they are not kernel
# dimensions.  The degree-gamma subspaces C^2_gamma do not give them either:
# (3,3,0), (1,0,1), (1,0,1), (1,1,0) for gamma = 0, g1, g2, g3.
A1_PRINTED = {"g1": (4, 2, 2), "g2": (2, 2, 0), "g3": (3, 3, 0)}

# eps(a, a) = +1 for every degree of the example, so a skew 2-cochain is
# fixed by its values on the pairs i < j.  Oracle vectors list psi(e_i, e_j)
# component by component over these pairs.
A1_PAIRS = ((0, 1), (0, 2), (1, 2))


def _a1_compute(restrict):
    A = _sl2c_z2z2()
    R = adjoint(A)
    G = A.basis.group
    gammas = {"g1": G.element((1, 0)), "g2": G.element((0, 1)),
              "g3": G.element((1, 1))}
    out = {}
    for name, gamma in gammas.items():
        res = cohomology_group(A, R, 2, 0, gamma, restrict=restrict)
        out[name] = res
    return A, R, out


def _a1_psi(A, entries):
    """Oracle vector of the 2-cochain with psi(e_i, e_j)_k = value."""
    v = [sc(0, A.m)] * (len(A1_PAIRS) * A.dim)
    for pair, k, value in entries:
        v[A1_PAIRS.index(pair) * A.dim + k] = sc(value, A.m)
    return v


def _a1_delta2(A, R, gamma, v):
    psi = {p: v[t * A.dim:(t + 1) * A.dim] for t, p in enumerate(A1_PAIRS)}
    out = delta2_direct(A, R, psi, gamma, 0)
    return [c for key in sorted(out) for c in out[key]]


def _a1_alpha_diagonal(A):
    # the example's twist is diag(-1, -1, 1), so the compatibility laws
    # f o alpha = alpha o f and psi o (alpha x alpha) = alpha o psi hold
    # slot by slot
    assert all(A.alpha[i][j].is_zero()
               for i, j in product(range(A.dim), repeat=2) if i != j)
    return [A.alpha[i][i] for i in range(A.dim)]


def _a1_coboundaries(A, R, gamma):
    """delta1_direct images of the unit 1-cochains with f o alpha = alpha o f."""
    alpha = _a1_alpha_diagonal(A)
    images = []
    for i, j in product(range(A.dim), repeat=2):
        if alpha[i] != alpha[j]:
            continue
        f = zeros(A.dim, A.dim, A.m)
        f[i][j] = sc(1, A.m)
        img = delta1_direct(A, R, f, gamma, 0)
        images.append([c for p in A1_PAIRS for c in img[p]])
    return images


def _a1_oracle(A, R, gamma, restrict):
    """Cocycle basis and coboundary spanning set from the operator-form oracles."""
    alpha = _a1_alpha_diagonal(A)
    size = len(A1_PAIRS) * A.dim
    slots = [t * A.dim + k for t, (i, j) in enumerate(A1_PAIRS) for k in range(A.dim)
             if restrict == "free" or alpha[i] * alpha[j] == alpha[k]]
    images = [_a1_delta2(A, R, gamma, [sc(int(c == s), A.m) for c in range(size)])
              for s in slots]
    Z = []
    for kv in kernel_basis([list(row) for row in zip(*images)],
                                  len(slots), A.m):
        z = [sc(0, A.m)] * size
        for s, c in zip(slots, kv):
            z[s] = c
        Z.append(z)
    B = _a1_coboundaries(A, R, gamma)
    # delta o delta = 0 on the oracle side, so B lies in Z and H = Z / B
    assert all(c.is_zero() for b in B for c in _a1_delta2(A, R, gamma, b))
    return Z, B


def test_a1_h2_runtime_and_consistency():
    started = time.monotonic()
    A, R, results = _a1_compute("free")
    elapsed = time.monotonic() - started
    ok = elapsed < 5.0
    for res in results.values():
        for b in res.coboundary_basis:
            ok = ok and in_span(res.cocycle_basis, b)
    assert conclude("A1-runtime", ok, f"elapsed {elapsed:.2f}s")


def test_a1_h2_dimensions_as_pinned():
    mismatches = []
    for restrict, want in A1_EXPECTED.items():
        A, R, results = _a1_compute(restrict)
        for name, res in results.items():
            got = (res.dim_Z, res.dim_B, res.dim_H)
            Z, B = _a1_oracle(A, R, res.gamma, restrict)
            rank_B = linalg.rank(sparse_rows(B))
            oracle = (len(Z), rank_B, len(Z) - rank_B)
            # engine coordinates are the oracle's: canonical pairs x component
            same = (res.space.tuples == list(A1_PAIRS)
                    and span_equal(Z, res.cocycle_basis)
                    and span_equal(B, res.coboundary_basis))
            if got != want or oracle != want or not same:
                mismatches.append(f"{name} {restrict}: expected {want}, engine "
                                  f"{got}, oracle {oracle}, same spaces {same}")
    # the printed Z column: the listed families are cocycles spanning 4, 2, 3
    for name, families in SL2C_Z2Z2_CASE_FAMILIES.items():
        gamma = results[name].gamma
        vectors = [_a1_psi(A, entries) for entries in families]
        closed = all(c.is_zero() for v in vectors
                     for c in _a1_delta2(A, R, gamma, v))
        span = linalg.rank(sparse_rows(vectors))
        if not closed or span != A1_PRINTED[name][0]:
            mismatches.append(f"{name} families: cocycles={closed}, span {span}, "
                              f"printed Z {A1_PRINTED[name][0]}")
    ok = conclude("A1-dims", not mismatches, "; ".join(mismatches))
    assert ok, (
        "arity-2 (dim Z, dim B, dim H) must be (6,4,2) free and (4,4,0) "
        "compatible at every label, with the engine's Z and B equal to the "
        "operator-form oracles' kernel and image, and the listed case "
        "families must be cocycles spanning the printed Z column (4, 2, 3): "
        + "; ".join(mismatches))


def test_a1_h2_representative_span_as_pinned():
    A, R, free = _a1_compute("free")
    res = free["g1"]
    psi_a = [((0, 1), 1, 1), ((0, 2), 2, 1)]    # psi(e1,e2)=e2, psi(e1,e3)=e3
    psi_c = [((0, 1), 0, 1), ((1, 2), 2, -1)]   # psi(e1,e2)=e1, psi(e2,e3)=-e3
    # Erratum: the source prints psi_b, psi(e1,e3)=e1, as the second
    # representative.  It is not a cocycle; the kernel ties it to the partner
    # psi(e2,e3)=e2, and with that partner it is a coboundary, so psi_a and
    # psi_b span one class while dim H = 2.
    psi_b = [((0, 2), 0, 1)]
    tied = psi_b + [((1, 2), 1, 1)]
    B = _a1_coboundaries(A, R, res.gamma)
    def is_cocycle(entries):
        return all(c.is_zero()
                   for c in _a1_delta2(A, R, res.gamma, _a1_psi(A, entries)))
    ok = is_cocycle(psi_c) and not in_span(B, _a1_psi(A, psi_c))
    ok = ok and not is_cocycle(psi_b) and in_span(B, _a1_psi(A, tied))
    # engine coordinates are the oracle's: canonical pairs x component
    ok = ok and res.space.tuples == list(A1_PAIRS)
    target = [_a1_psi(A, psi_a), _a1_psi(A, psi_c)] + res.coboundary_basis
    computed = res.representatives + res.coboundary_basis
    ok = ok and span_equal(target, computed)
    ok = conclude("A1-representatives", ok,
                  "psi_a, psi_c and the printed psi_b erratum disagree with H")
    assert ok, (
        "psi_c = psi(e1,e2)=e1, psi(e2,e3)=-e3 must be an oracle cocycle "
        "outside B, psi(e1,e3)=e1 must need its psi(e2,e3)=e2 partner (and "
        "then be a coboundary), and psi_a, psi_c must span the computed "
        "representatives modulo coboundaries")


def test_a1_verified_substance():
    # the defensible content behind A1: the a1-type class is a genuine
    # nontrivial class, and dim H at the g1 label is 2
    A, R, free = _a1_compute("free")
    res = free["g1"]
    space = res.space
    psi_a = [sc(0, A.m)] * space.free_dim
    psi_a[coord_index(space, (0, 1), 1)] = sc(1, A.m)
    psi_a[coord_index(space, (0, 2), 2)] = sc(1, A.m)
    ok = res.dim_H == 2
    ok = ok and in_span(res.cocycle_basis, psi_a)
    ok = ok and not in_span(res.coboundary_basis, psi_a)
    assert conclude("A1-substance", ok)


# =====================================================================
# A2: morphism grid enumeration and the printed twist table
# =====================================================================

def _v(k, s):
    return (k - 1, s)


# The twist table as the source prints it (an erratum, kept for the relation
# check below): per column, ([e1,e2], [e1,e3], [e2,e3]) as (basis index, sign);
# the two starred cells are printed with symbols their own grading forbids
A2_PRINTED = {
    1: (_v(3, -1), _v(2, -1), _v(1, 1)),
    2: (_v(3, -1), _v(2, 1), _v(3, -1)),   # [e2,e3] cell printed as -e3 (sic)
    3: (_v(3, -1), _v(2, 1), _v(1, -1)),
    4: (_v(3, 1), _v(2, -1), _v(1, -1)),
    5: (_v(2, 1), _v(3, 1), _v(1, 1)),
    6: (_v(2, -1), _v(3, -1), _v(1, 1)),
    7: (_v(2, -1), _v(3, 1), _v(1, -1)),
    8: (_v(2, 1), _v(3, -1), _v(1, -1)),
    9: (_v(3, 1), _v(1, 1), _v(2, 1)),
    10: (_v(3, -1), _v(1, -1), _v(2, 1)),
    11: (_v(1, 1), _v(2, -1), _v(2, -1)),  # [e2,e3] cell printed as -e2 (sic)
    12: (_v(3, -1), _v(1, 1), _v(2, -1)),
    13: (_v(3, 1), _v(1, -1), _v(2, -1)),
    14: (_v(1, 1), _v(3, 1), _v(2, 1)),
    15: (_v(1, -1), _v(3, -1), _v(2, 1)),
    16: (_v(1, -1), _v(3, 1), _v(2, -1)),
    17: (_v(1, 1), _v(3, -1), _v(2, -1)),
    18: (_v(2, 1), _v(1, 1), _v(3, 1)),
    19: (_v(2, -1), _v(1, -1), _v(3, 1)),
    20: (_v(2, -1), _v(1, 1), _v(3, -1)),
    21: (_v(2, 1), _v(1, -1), _v(3, -1)),
    22: (_v(1, 1), _v(2, 1), _v(3, 1)),
    23: (_v(1, -1), _v(2, -1), _v(3, 1)),
    24: (_v(1, -1), _v(2, 1), _v(3, -1)),
}

# The twisted brackets alpha_k([ei,ej]) in the same format.  The bracket of
# sl2c_z2z3 is [e1,e2] = e3, [e1,e3] = e2, [e2,e3] = e1, so for a signed
# permutation alpha the three cells are its columns 3, 2 and 1.  Every printed
# column differs: column 4 pairs with the identity, whose twist is the
# bracket itself (e3, e2, e1), but is printed as (e3, -e2, -e1); under that
# sign-flipped bracket only matrices 1-4, 9, 10, 12 and 13 are endomorphisms,
# so no single bracket fits both the printed table and the 24 matrices.
A2_TWISTS = {
    1: (_v(3, 1), _v(2, -1), _v(1, -1)),
    2: (_v(3, -1), _v(2, 1), _v(1, -1)),
    3: (_v(3, -1), _v(2, -1), _v(1, 1)),
    4: (_v(3, 1), _v(2, 1), _v(1, 1)),
    5: (_v(2, 1), _v(3, -1), _v(1, -1)),
    6: (_v(2, -1), _v(3, 1), _v(1, -1)),
    7: (_v(2, -1), _v(3, -1), _v(1, 1)),
    8: (_v(2, 1), _v(3, 1), _v(1, 1)),
    9: (_v(3, 1), _v(1, -1), _v(2, -1)),
    10: (_v(3, -1), _v(1, 1), _v(2, -1)),
    11: (_v(1, 1), _v(2, 1), _v(3, 1)),
    12: (_v(3, -1), _v(1, -1), _v(2, 1)),
    13: (_v(3, 1), _v(1, 1), _v(2, 1)),
    14: (_v(1, 1), _v(3, -1), _v(2, -1)),
    15: (_v(1, -1), _v(3, 1), _v(2, -1)),
    16: (_v(1, -1), _v(3, -1), _v(2, 1)),
    17: (_v(1, 1), _v(3, 1), _v(2, 1)),
    18: (_v(2, 1), _v(1, -1), _v(3, -1)),
    19: (_v(2, -1), _v(1, 1), _v(3, -1)),
    20: (_v(2, -1), _v(1, -1), _v(3, 1)),
    21: (_v(2, 1), _v(1, 1), _v(3, 1)),
    22: (_v(1, 1), _v(2, -1), _v(3, -1)),
    23: (_v(1, -1), _v(2, 1), _v(3, -1)),
    24: (_v(1, -1), _v(2, -1), _v(3, 1)),
}

A2_PAIRS = ((0, 1), (0, 2), (1, 2))


def _bundle_matrices(A):
    with open(data_path("sl2_morphism_bundle.json"), "r", encoding="utf-8") as fh:
        bundle = parse_matrix_bundle(fh.read(), A.m)
    return {int(name.split("_")[1]): M for name, M in bundle.items()}


def _twist_cells(A, M):
    T = twist(A, M)
    return tuple(T.bracket.of_basis(i, j) for (i, j) in A2_PAIRS)


def _cell_matches(vec, cell):
    idx, sign = cell
    return all((c - (sc(sign, 2) if k == idx else sc(0, 2))).is_zero()
               for k, c in enumerate(vec))


def test_a2_enumeration_and_extras():
    A = _sl2c_z2z3()
    started = time.monotonic()
    found = enumerate_morphisms(A, [sc(-1, A.m), sc(0, A.m), sc(1, A.m)])
    elapsed = time.monotonic() - started
    keys = {tuple(tuple(str(c) for c in row) for row in f) for f, _ in found}
    bundle = _bundle_matrices(A)
    ok = elapsed < 10.0
    for k, M in bundle.items():
        ok = ok and tuple(tuple(str(c) for c in row) for row in M) in keys
    extras = [f for f, _ in found if not morphism_is_invertible(A, linalg.sparse(f))]
    for f in extras:
        ok = ok and verify_morphism(A, linalg.sparse(f))  # independent oracle re-check
    ok = ok and len(found) == 25 and len(extras) == 1
    assert conclude("A2-enumeration", ok, f"count={len(found)} elapsed={elapsed:.2f}s")


def _signed_column(M, col):
    """(row, sign) of the single nonzero entry of a signed-permutation column."""
    (index, value), = [(i, r[col]) for i, r in enumerate(M)
                       if not r[col].is_zero()]
    return index, 1 if (value - sc(1, 2)).is_zero() else -1


def test_a2_twist_tables_match_printed():
    A = _sl2c_z2z3()
    bundle = _bundle_matrices(A)
    bad = []
    for k in sorted(bundle):
        columns = tuple(_signed_column(bundle[k], col) for col in (2, 1, 0))
        cells = _twist_cells(A, bundle[k])
        if columns != A2_TWISTS[k] or not all(
                _cell_matches(cells[pos], A2_TWISTS[k][pos]) for pos in range(3)):
            bad.append(k)
    misprinted = [k for k in sorted(bundle) if A2_PRINTED[k] != A2_TWISTS[k]]
    flipped = build_algebra(
        [2, 2, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, ["e1", "e2", "e3"],
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
        {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    flipped_endos = [k for k in sorted(bundle)
                     if verify_morphism(flipped, linalg.sparse(bundle[k]))]
    ok = (not bad and misprinted == sorted(bundle)
          and flipped_endos == [1, 2, 3, 4, 9, 10, 12, 13])
    ok = conclude("A2-printed-table", ok,
                  f"mismatched columns {bad}, misprinted {misprinted}, "
                  f"flipped-bracket endomorphisms {flipped_endos}")
    assert ok, (
        "the twist of each bundle matrix must equal its columns 3, 2, 1 "
        f"(A2_TWISTS; mismatched columns {bad}); the printed table must differ "
        f"in every column ({misprinted}), and the sign-flipped bracket its "
        "column 4 implies must admit only matrices 1-4, 9, 10, 12, 13 "
        f"({flipped_endos})")


def test_a2_documented_erratum_relation():
    # printed = twist computed from the sign-normalized base for 22 columns;
    # printed column 1 shows the normalized twist of matrix 2, and printed
    # column 2 shows the normalized twist of matrix 3 (with a symbol typo in
    # its grading-forced [e2,e3] cell)
    A = _sl2c_z2z3()
    bundle = _bundle_matrices(A)
    def normalized_cells(M):
        cells = _twist_cells(A, M)
        return (cells[0], [-c for c in cells[1]], [-c for c in cells[2]])
    ok = True
    for k in sorted(bundle):
        if k in (1, 2):
            continue
        norm = normalized_cells(bundle[k])
        for pos in range(3):
            if k == 11 and pos == 2:
                # symbol typo: cell printed as -e2 where the normalized twist
                # gives -e3 (and the grading would force an e1 multiple)
                continue
            ok = ok and _cell_matches(norm[pos], A2_PRINTED[k][pos])
    norm1 = normalized_cells(bundle[2])
    for pos in range(3):
        ok = ok and _cell_matches(norm1[pos], A2_PRINTED[1][pos])
    norm2 = normalized_cells(bundle[3])
    for pos in range(2):
        ok = ok and _cell_matches(norm2[pos], A2_PRINTED[2][pos])
    assert conclude("A2-erratum", ok)


# =====================================================================
# A3: parametric twist families on the motion algebra
# =====================================================================

def _family_matrices(A):
    b1, b2 = sc(2, A.m), sc(3, A.m)
    a1, a2 = sc(1, A.m), sc(2, A.m)
    c1 = sc(5, A.m)
    z, o = sc(0, A.m), sc(1, A.m)
    return {
        1: [[-o, z, z], [z, b1, -b2], [z, b2, -b1]],
        2: [[o, z, z], [z, b1, b2], [z, b2, b1]],
        3: [[z, z, z], [a1, z, z], [a2, z, z]],
        4: [[c1, z, z], [z, z, z], [z, z, z]],
    }


def _vecs(A, entries):
    out = [sc(0, A.m)] * 3
    for idx, v in entries:
        out[idx] = sc(v, A.m)
    return out


def test_a3_families_are_morphisms():
    A = _motion()
    ok = all(verify_morphism(A, linalg.sparse(M)) for M in _family_matrices(A).values())
    assert conclude("A3-morphisms", ok)


def test_a3_twists_match_formulas_columns_1_2():
    A = _motion()
    fams = _family_matrices(A)
    expected = {
        1: ([(1, -3), (2, -2)], [(1, 2), (2, 3)], []),
        2: ([(1, 3), (2, 2)], [(1, 2), (2, 3)], []),
    }
    ok = True
    for k, cells in expected.items():
        T = twist(A, fams[k])
        for pos, (i, j) in enumerate(A2_PAIRS):
            want = _vecs(A, cells[pos])
            got = T.bracket.of_basis(i, j)
            ok = ok and all((a - b).is_zero() for a, b in zip(got, want))
    assert conclude("A3-columns-1-2", ok)


def test_a3_twists_match_formulas_columns_3_4():
    A = _motion()
    fams = _family_matrices(A)
    # Families 3 and 4 send e2 and e3 to 0, and [e2,e3] = 0 here, so every
    # cell alpha([ei,ej]) vanishes: both twisted algebras are abelian.
    expected = {3: ([], [], []), 4: ([], [], [])}
    # Erratum: the source prints [e2,e3] = a1 e2 + a2 e3 for family 3 and
    # [e2,e3] = c1 e1 for family 4, i.e. alpha(e1).  That needs [e2,e3] = e1,
    # the sl2c_z2z3 bracket, and there neither family is an endomorphism.
    bad = []
    for k, cells in expected.items():
        T = twist(A, fams[k])
        for pos, (i, j) in enumerate(A2_PAIRS):
            want = _vecs(A, cells[pos])
            got = T.bracket.of_basis(i, j)
            if not all((a - b).is_zero() for a, b in zip(got, want)):
                bad.append(k)
                break
    sl2 = _sl2c_z2z3()
    printed_fits = [k for k in expected if verify_morphism(sl2, linalg.sparse(fams[k]))]
    ok = conclude("A3-columns-3-4", not bad and not printed_fits,
                  f"columns {bad}, endomorphisms of sl2c_z2z3 {printed_fits}")
    assert ok, (
        "the twists of the degenerate families must be abelian (families 3 "
        "and 4 kill e2 and e3, and [e2,e3] = 0 here), and neither family may "
        "be an endomorphism of the [e2,e3] = e1 bracket the printed cells "
        f"imply: columns {bad}, endomorphisms {printed_fits}")


# =====================================================================
# A4: square-zero of the coboundary family on randomized algebras
# =====================================================================

def test_a4_square_zero_50_random_algebras():
    from colorhomlie.cohomology import CochainSpace, canonical_tuples
    rng = random.Random(515253)
    checked = 0
    ok = True
    for _ in range(50):
        A = random_multiplicative_algebra(rng)
        R = adjoint(A)
        tuples2 = canonical_tuples(A, 2)
        for r in (0, 1, 2):
            for gamma in A.basis.group.elements():
                cols, _ = delta_matrix(A, R, 1, r, gamma, domain="compatible")
                # applying the arity-2 coboundary needs no compatibility basis
                space2 = CochainSpace(A, R, 2, gamma, tuples2, [])
                for col in cols:
                    img2, _ = coboundary_of_coords(A, R, space2, col, r)
                    ok = ok and all(c.is_zero() for c in img2)
        checked += 1
    assert conclude("A4-square-zero", ok and checked == 50, f"checked={checked}")


# =====================================================================
# A5: twist and derived closure
# =====================================================================

def test_a5_twist_and_derived_closure():
    A = _sl2c_z2z3()
    ok = True
    for f, _ in enumerate_morphisms(A, [sc(-1, A.m), sc(0, A.m), sc(1, A.m)]):
        report = check_color_hom_lie(twist(A, f))
        ok = ok and report.is_color_hom_lie and report.multiplicative.ok
    for path in ("sl2c_z2z2.alg", "sl2c_z2z3.alg", "motion_z2z3.alg"):
        B = parse_algebra_file(data_path(path))
        assert check_color_hom_lie(B).multiplicative.ok
        for n in (1, 2):
            report = check_color_hom_lie(derived_algebra(B, n))
            ok = ok and report.is_color_hom_lie
    assert conclude("A5-closure", ok)


# =====================================================================
# A6: the q-difference twisted derivation instance at q = 2
# =====================================================================

def _q2_instance():
    A = parse_commutative_algebra_file(data_path("qwitt_trunc_q2.alg"))
    q = sc(2, A.m)
    one, zero = sc(1, A.m), sc(0, A.m)
    sigma = [[one, zero, zero], [zero, q, zero], [zero, zero, q * q]]
    delta = [[zero, one, zero], [zero, zero, one + q], [zero, zero, zero]]
    return A, SigmaDerivation(sigma, delta, A.basis.group.zero(), q, A.dim, A.m), q


def test_a6_identities_except_leibniz():
    A, D, q = _q2_instance()
    quotient = QuotientSpace(A, annihilator(A, D))
    rep = check_sigma_derivation(A, D)
    ok = rep["sigma_endomorphism"].ok and rep["cd1"].ok
    ok = ok and check_ann_invariance(A, D)
    ok = ok and check_ijkl(A, D).ok
    ok = ok and not check_ijkl(A, SigmaDerivation(D.sigma, D.delta_map, D.grade_d,
                                                  sc(1, A.m), A.dim, A.m)).ok
    ok = ok and check_mnop(A, D, quotient).ok
    from colorhomlie.hls_bracket import check_fgh
    ok = ok and check_fgh(A, D, quotient).ok
    assert conclude("A6-identities", ok)


def test_a6_leibniz_clause_as_pinned():
    # u_i = x^i on the line truncated at x^3 = 0.  Delta(u_i) = [i]_q u_(i-1)
    # with [i]_q = 1 + q + ... + q^(i-1), so CD2 holds wherever the product
    # stays below the truncation (every pair but the two listed below).  On
    # (u1, u2) and (u2, u1) the product is 0 while the right-hand side is
    # [3]_q u2 = (1 + q + q^2) u2 = 7 u2: the q-derivative does not preserve
    # x^3 = 0 at q = 2.
    # Erratum: the source states CD2 for the whole truncated line.  Any Delta
    # obeying the intertwining law Delta sigma = q sigma Delta (A6-identities)
    # lowers degree by one, and the pair (x, x^2) then forces 7a = 0.
    A, D, q = _q2_instance()
    rep = check_sigma_derivation(A, D)
    zero = str(sc(0, A.m))
    boundary = {"lhs": [zero] * 3, "rhs": [zero, zero, str(1 + q + q * q)]}
    expected = [{"pair": [a, b], **boundary} for a, b in (("u1", "u2"), ("u2", "u1"))]
    ok = rep["cd2"].failures == expected
    ok = conclude("A6-leibniz", ok, f"cd2 failures {rep['cd2'].failures}")
    assert ok, (
        "the twisted Leibniz rule must hold on every pair whose product stays "
        "below x^3 = 0 and fail exactly on (u1,u2) and (u2,u1), with lhs 0 and "
        f"rhs (1+q+q^2) u2 = 7 u2: got {rep['cd2'].failures}")


def test_a6_zeta3_companion_all_green():
    A = parse_commutative_algebra_file(data_path("qwitt_trunc_zeta3.alg"))
    q = CycloScalar.root_of_unity(3)
    one, zero = CycloScalar.one(3), CycloScalar.zero(3)
    sigma = [[one, zero, zero], [zero, q, zero], [zero, zero, q * q]]
    delta = [[zero, one, zero], [zero, zero, one + q], [zero, zero, zero]]
    D = SigmaDerivation(sigma, delta, A.basis.group.zero(), q, A.dim, A.m)
    from colorhomlie.hls_bracket import check_hls_jacobi
    rep = check_hls_jacobi(A, D)
    ok = all(rep[k].ok for k in ("sigma_endomorphism", "cd1", "cd2", "abc",
                                 "ijkl", "fgh", "mnop"))
    assert conclude("A6-zeta3", ok)


# =====================================================================
# A7: inclusion laws for the derivation-type spaces
# =====================================================================

def test_a7_inclusion_lattice():
    A = _sl2c_z2z2()
    report = check_inclusion_lattice(A, (0, 1), list(A.basis.group.elements()))
    ok = all(result.ok for result in report.values())
    assert conclude("A7-inclusions", ok,
                    str({k: v.ok for k, v in report.items()}))


# =====================================================================
# A8: the product on the quasi-centroid
# =====================================================================

def test_a8_quasi_centroid_jordan():
    A = _sl2c_z2z2()
    J = quasi_centroid_jordan(A, max_power=2)
    report = check_hom_jordan(J)
    ok = report["hcj1"].ok and report["hcj2"].ok and J.dim >= 1
    assert conclude("A8-jordan", ok, f"span dim {J.dim}")


# =====================================================================
# A9: composition deformations from grid morphisms
# =====================================================================

def test_a9_composition_deformations():
    L = _sl2c_z2z3()
    bundle = _bundle_matrices(L)
    ok = True
    for k in (1, 2, 3):
        B = composition_deformation(L, [L.alpha_sparse(0), bundle[k]],
                                    order=3)
        per = check_deformation(B.algebra, B)
        ok = ok and all(res.ok for res in per.values())
        ok = ok and first_order_class(B.algebra, B)["is_cocycle"]
    assert conclude("A9-deformations", ok)


# =====================================================================
# A10: byte-identical reports
# =====================================================================

def test_a10_determinism(capsys):
    commands = [
        ["validate", data_path("sl2c_z2z2.alg")],
        ["cohomology", "--algebra", data_path("sl2c_z2z2.alg"),
         "--module", "adjoint", "--n", "2", "--r", "0", "--restrict", "free"],
        ["twists", "--algebra", data_path("sl2c_z2z3.alg"),
         "--entries", "-1,0,1"],
        ["structure", "--algebra", data_path("sl2c_z2z2.alg"),
         "--kind", "qcentroid", "--k", "1"],
        ["jordan", "--algebra", data_path("sl2c_z2z2.alg")],
        ["derived", "--algebra", data_path("sl2c_z2z2.alg"), "--n", "1"],
    ]
    ok = True
    for argv in commands:
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and first
    with capsys.disabled():
        assert conclude("A10-determinism", ok)
