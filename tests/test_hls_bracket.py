"""Twisted derivations and the induced bracket on the annihilator quotient."""
import json
from fractions import Fraction

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import GradedBasis
from colorhomlie.cli import run_command
from colorhomlie.fileio import (parse_commutative_algebra_document,
                                parse_commutative_algebra_file)
from colorhomlie.hls_bracket import (CommutativeColorAlgebra, HLSError,
                                     QuotientSpace, SigmaDerivation, annihilator,
                                     check_ann_invariance, check_hls_jacobi,
                                     check_ijkl, check_mnop,
                                     check_sigma_derivation, hls_bracket,
                                     hls_bracket_element, induced_bracket_table)
from colorhomlie.scalars_grading import (BiCharacter, CycloScalar,
                                         FiniteAbelianGroup)

from conftest import data_path


def _sc(v, m=1):
    return CycloScalar.from_rational(Fraction(v), m)


def q_difference_instance(m=1, q=2):
    """Truncated polynomial line with sigma(x) = qx and the finite-difference
    quotient operator: Delta(1) = 0, Delta(x) = 1, Delta(x^2) = (1+q)x."""
    name = "qwitt_trunc_q2.alg" if m == 1 else "qwitt_trunc_zeta3.alg"
    A = parse_commutative_algebra_file(data_path(name))
    if m == 1:
        qs = _sc(q, 1)
    else:
        from colorhomlie.scalars_grading import CycloScalar as CS
        qs = CS.root_of_unity(3)
    one = CycloScalar.one(A.m)
    zero = CycloScalar.zero(A.m)
    sigma = [[one, zero, zero], [zero, qs, zero], [zero, zero, qs * qs]]
    delta = [[zero, one, zero], [zero, zero, one + qs], [zero, zero, zero]]
    D = SigmaDerivation(sigma, delta, A.basis.group.zero(), qs)
    return A, D, qs


def test_shipped_product_is_commutative_associative():
    A = parse_commutative_algebra_file(data_path("qwitt_trunc_q2.alg"))
    assert A.check_commutative_associative().ok


def test_zero_derivation_passes():
    A, D, q = q_difference_instance()
    zero_map = linalg.zeros(3, 3, A.m)
    Z = SigmaDerivation(D.sigma, zero_map, A.basis.group.zero(), q)
    rep = check_sigma_derivation(A, Z)
    assert rep["sigma_endomorphism"].ok and rep["cd1"].ok and rep["cd2"].ok
    assert len(annihilator(A, Z)) == 3  # everything annihilates the zero map


def test_q2_instance_identities():
    A, D, q = q_difference_instance()
    rep = check_sigma_derivation(A, D)
    assert rep["sigma_endomorphism"].ok
    assert rep["cd1"].ok
    # the Leibniz rule fails exactly on the truncation-boundary pairs: the
    # quotient kills x^3 while the rule produces (1+q+q^2) x^2 there
    assert not rep["cd2"].ok
    failing = {tuple(f["pair"]) for f in rep["cd2"].failures}
    assert failing == {("u1", "u2"), ("u2", "u1")}
    # annihilator is trivial: a * Delta(x) = a * 1 = a
    assert annihilator(A, D) == []
    assert check_ann_invariance(A, D)
    assert check_ijkl(A, D).ok
    assert not check_ijkl(A, D, delta_scalar=_sc(1)).ok
    quotient = QuotientSpace(A, [])
    assert check_mnop(A, D, quotient).ok
    assert not check_mnop(A, D, quotient, delta_scalar=_sc(1)).ok


def test_zeta3_instance_everything_passes():
    A, D, q = q_difference_instance(m=3)
    rep = check_hls_jacobi(A, D)
    for key in ("sigma_endomorphism", "cd1", "cd2", "abc", "ijkl", "fgh", "mnop"):
        assert rep[key].ok, key
    assert rep["annihilator_dim"] == 0
    # 1 + q + q^2 = 0 for the primitive cube root, so the boundary pairs close
    assert (CycloScalar.one(3) + q + q * q).is_zero()


def test_bracket_table_reproduces_the_weighted_shift_relations():
    # [u_i . D, u_j . D] = ([j]_q - [i]_q) u_{i+j-1} . D for the line operators
    A, D, q = q_difference_instance()
    one = CycloScalar.one(A.m)
    table = induced_bracket_table(A, D)
    def qint(k):
        acc = CycloScalar.zero(A.m)
        p = one
        for _ in range(k):
            acc = acc + p
            p = p * q
        return acc
    quotient = QuotientSpace(A, annihilator(A, D))
    for i in range(3):
        for j in range(3):
            got = hls_bracket_element(A, D, A.basis_vector(i), A.basis_vector(j),
                                      quotient)
            want = [CycloScalar.zero(A.m)] * 3
            if 0 <= i + j - 1 <= 2:
                want[i + j - 1] = qint(j) - qint(i)
            assert all((a - b).is_zero() for a, b in zip(got, want)), (i, j)


def test_bracket_skewness_fgh():
    A, D, q = q_difference_instance()
    for i in range(3):
        for j in range(3):
            lhs = hls_bracket(A, D, A.basis_vector(i), A.basis_vector(j))
            rhs = hls_bracket(A, D, A.basis_vector(j), A.basis_vector(i))
            e = A.eps(A.basis.degrees[i], A.basis.degrees[j])
            assert all((a + e * b).is_zero() for a, b in zip(lhs, rhs))


def test_self_bracket_vanishes_on_even_elements():
    A, D, q = q_difference_instance()
    v = [_sc(2), _sc(-1), _sc(3)]
    out = hls_bracket(A, D, v, v)
    assert all(c.is_zero() for c in out)


def _euler_instance():
    """Unit plus a square-zero line: sigma = Id, Delta = Euler operator.

    Delta(u0) = 0, Delta(u1) = u1 on Q[x]/(x^2); the annihilator is the x-line,
    so the quotient is one-dimensional and well-definedness is visible.
    """
    G = FiniteAbelianGroup(())
    eps = BiCharacter(G, [], 1)
    basis = GradedBasis(("u0", "u1"), (G.zero(), G.zero()), G)
    one, zero = _sc(1), _sc(0)
    mu = [[[one, zero], [zero, one]], [[zero, one], [zero, zero]]]
    A = CommutativeColorAlgebra(basis, eps, mu, 1)
    sigma = [[one, zero], [zero, one]]
    delta = [[zero, zero], [zero, one]]
    D = SigmaDerivation(sigma, delta, G.zero(), one)
    return A, D


def test_nontrivial_annihilator_and_well_definedness():
    A, D = _euler_instance()
    rep = check_sigma_derivation(A, D)
    assert rep["cd2"].ok
    ann = annihilator(A, D)
    assert len(ann) == 1 and not ann[0][1].is_zero()
    assert check_ann_invariance(A, D)
    quotient = QuotientSpace(A, ann)
    x = [_sc(1), _sc(5)]
    x_shifted = [a + b for a, b in zip(x, ann[0])]  # same class
    y = [_sc(0), _sc(1)]
    b1 = hls_bracket_element(A, D, x, y, quotient)
    b2 = hls_bracket_element(A, D, x_shifted, y, quotient)
    assert all((a - b).is_zero() for a, b in zip(b1, b2))
    b3 = hls_bracket_element(A, D, y, x, quotient)
    b4 = hls_bracket_element(A, D, y, x_shifted, quotient)
    assert all((a - b).is_zero() for a, b in zip(b3, b4))


def test_bracket_refused_without_invariance():
    # sigma sending the annihilator line u1 to u0 breaks well-definedness
    A, D = _euler_instance()
    one, zero = _sc(1), _sc(0)
    bad_sigma = [[one, one], [zero, zero]]
    bad = SigmaDerivation(bad_sigma, D.delta_map, A.basis.group.zero(), one)
    assert not check_ann_invariance(A, bad)
    with pytest.raises(HLSError):
        hls_bracket(A, bad, A.basis_vector(0), A.basis_vector(1))


def test_classical_derivation_specialization():
    # sigma = Id, delta scalar 1, Delta an honest derivation: the deformed
    # Jacobi reduces to the ordinary one and must pass
    G = FiniteAbelianGroup(())
    eps = BiCharacter(G, [], 1)
    basis = GradedBasis(("u0", "u1", "u2"), (G.zero(),) * 3, G)
    one, zero = _sc(1), _sc(0)
    mu = [[[one, zero, zero], [zero, one, zero], [zero, zero, one]],
          [[zero, one, zero], [zero, zero, one], [zero, zero, zero]],
          [[zero, zero, one], [zero, zero, zero], [zero, zero, zero]]]
    A = CommutativeColorAlgebra(basis, eps, mu, 1)
    sigma = linalg.identity(3, 1)
    # d/dx on Q[x]/(x^3): x -> 1, x^2 -> 2x
    delta = [[zero, one, zero], [zero, zero, _sc(2)], [zero, zero, zero]]
    D = SigmaDerivation(sigma, delta, G.zero(), one)
    rep = check_hls_jacobi(A, D)
    assert not rep["cd2"].ok  # same truncation boundary effect at (x, x^2)
    assert rep["ijkl"].ok and rep["fgh"].ok and rep["mnop"].ok


def test_operator_form_equals_element_form():
    # [x.D, y.D] as a composition of operators agrees with the element form
    # (sigma(x)Delta(y) - eps sigma(y)Delta(x)).D applied to every basis
    # vector.  The proof of this identity consumes the twisted Leibniz rule,
    # so it is checked on the cube-root instance where that rule holds.
    A, D, q = q_difference_instance(m=3)
    def op_apply(a, w):
        # (a.D)(w) = a * Delta(w)
        return A.mu.bilinear(a, linalg.mat_vec(D.delta_map, w))
    for i in range(3):
        for j in range(3):
            x, y = A.basis_vector(i), A.basis_vector(j)
            sx = linalg.mat_vec(D.sigma, x)
            sy = linalg.mat_vec(D.sigma, y)
            elem = hls_bracket_element(A, D, x, y)
            for w in range(3):
                ew = A.basis_vector(w)
                composed = [a - b for a, b in
                            zip(op_apply(sx, op_apply(y, ew)),
                                op_apply(sy, op_apply(x, ew)))]
                via_element = op_apply(elem, ew)
                assert all((a - b).is_zero()
                           for a, b in zip(composed, via_element)), (i, j, w)


def test_invertible_delta_trivial_annihilator():
    A, D = _euler_instance()
    one, zero = _sc(1), _sc(0)
    delta = [[one, zero], [zero, one]]  # identity operator: a . Id = 0 iff a = 0
    full = SigmaDerivation(D.sigma, delta, A.basis.group.zero(), one)
    assert annihilator(A, full) == []
    assert check_ann_invariance(A, full)


# -- completion of the product table by eps-commutativity ---------------------

def _z3z3_product_doc(product):
    """A unit u and x, y, z of degrees (1,0), (0,1), (1,1) under the Z3xZ3
    bi-character with eps(x,y) = zeta, eps(y,x) = zeta^2."""
    return {"schema": 1, "name": "z3z3_units", "group": {"orders": [3, 3]},
            "root_order": 3, "epsilon": {"exponents": [[0, 1], [2, 0]]},
            "basis": [{"name": n, "degree": d} for n, d in
                      (("u", [0, 0]), ("x", [1, 0]), ("y", [0, 1]), ("z", [1, 1]))],
            "product": dict({"u,u": {"u": "1"}, "u,x": {"x": "1"}, "u,y": {"y": "1"},
                             "u,z": {"z": "1"}}, **product)}


def test_completed_product_is_eps_commutative_under_asymmetric_eps():
    A = parse_commutative_algebra_document(json.dumps(_z3z3_product_doc(
        {"x,y": {"z": "1"}})))
    assert A.check_commutative_associative().ok
    # y.x = eps(y,x) x.y = zeta^2 z = (-1 - zeta) z
    assert A.mu.of_basis(2, 1) == [CycloScalar.zero(3)] * 3 + [
        CycloScalar([-1, -1], 3)]


def test_product_either_order_gives_the_same_table():
    A = parse_commutative_algebra_document(json.dumps(_z3z3_product_doc(
        {"x,y": {"z": "1"}})))
    B = parse_commutative_algebra_document(json.dumps(_z3z3_product_doc(
        {"y,x": {"z": "[-1;-1]"}})))
    assert A.mu.equals(B.mu)


def test_redundant_product_input_is_validated(tmp_path, capsys):
    consistent = _z3z3_product_doc({"x,y": {"z": "1"}, "y,x": {"z": "[-1;-1]"}})
    parse_commutative_algebra_document(json.dumps(consistent))
    inconsistent = _z3z3_product_doc({"x,y": {"z": "1"}, "y,x": {"z": "[0;1]"}})
    with pytest.raises(ValueError):
        parse_commutative_algebra_document(json.dumps(inconsistent))
    # the shipped q = 2 line with a conflicting u1.u0 is refused through the CLI
    with open(data_path("qwitt_trunc_q2.alg"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["product"]["u1,u0"] = {"u1": "5"}
    path = tmp_path / "conflict.alg"
    path.write_text(json.dumps(doc))
    code = run_command(["hls", "--algebra", str(path),
                        "--sigma", '[["1","0","0"],["0","2","0"],["0","0","4"]]',
                        "--delta-map", '[["0","1","0"],["0","0","3"],["0","0","0"]]',
                        "--delta-scalar", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "eps-commutativity" in err
