"""Twisted derivations and the induced bracket on the annihilator quotient."""
import importlib
import json
import random
from fractions import Fraction

import pytest

from colorhomlie import linalg
from colorhomlie.algebra_core import CheckResult, GradedBasis, StructureConstants
from colorhomlie.cli import run_command
from colorhomlie.fileio import (parse_commutative_algebra_document,
                                parse_commutative_algebra_file)
from colorhomlie.hls_bracket import (CommutativeColorAlgebra, HLSError,
                                     QuotientSpace, SigmaDerivation, annihilator,
                                     check_ann_invariance, check_hls_jacobi,
                                     check_fgh, check_ijkl, check_mnop,
                                     check_sigma_derivation, hls_bracket,
                                     hls_bracket_element)
from colorhomlie.scalars_grading import (BiCharacter, CycloScalar,
                                         FiniteAbelianGroup, euler_phi)

from conftest import (annihilator_direct, assert_rotations_share_residuals, assert_rref,
                      basis_vector, check_fgh_direct, check_ijkl_direct, check_mnop_direct,
                      check_sigma_derivation_direct, data_path, hls_bracket_element_direct,
                      mat_vec_direct, quantum_plane_z3z3, zeros)


def _sc(v, m=1):
    return CycloScalar.from_rational(Fraction(v), m)


def _with_delta(D, d):
    """D with the scalar delta replaced by d."""
    return SigmaDerivation(*D.maps, D.grade_d, d, D.size, D.m)


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
    D = SigmaDerivation(sigma, delta, A.basis.group.zero(), qs, A.dim, A.m)
    return A, D, qs


def test_shipped_product_is_commutative_associative():
    A = parse_commutative_algebra_file(data_path("qwitt_trunc_q2.alg"))
    assert A.check_commutative_associative().ok


def test_zero_derivation_passes():
    A, D, q = q_difference_instance()
    zero_map = zeros(3, 3, A.m)
    Z = SigmaDerivation(D.sigma, zero_map, A.basis.group.zero(), q, A.dim, A.m)
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
    assert not check_ijkl(A, _with_delta(D, _sc(1))).ok
    quotient = QuotientSpace(A, D)
    assert check_mnop(A, D, quotient).ok
    assert not check_mnop(A, _with_delta(D, _sc(1)), quotient).ok


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
    table = check_hls_jacobi(A, D)["induced_bracket"]
    def qint(k):
        acc = CycloScalar.zero(A.m)
        p = one
        for _ in range(k):
            acc = acc + p
            p = p * q
        return acc
    quotient = QuotientSpace(A, D)
    for i in range(3):
        for j in range(3):
            got = hls_bracket_element(A, D, basis_vector(A, i), basis_vector(A, j),
                                      quotient)
            want = [CycloScalar.zero(A.m)] * 3
            if 0 <= i + j - 1 <= 2:
                want[i + j - 1] = qint(j) - qint(i)
            assert all((a - b).is_zero() for a, b in zip(got, want)), (i, j)


def test_bracket_skewness_fgh():
    A, D, q = q_difference_instance()
    for i in range(3):
        for j in range(3):
            lhs = hls_bracket(A, D, basis_vector(A, i), basis_vector(A, j))
            rhs = hls_bracket(A, D, basis_vector(A, j), basis_vector(A, i))
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
    D = SigmaDerivation(sigma, delta, G.zero(), one, A.dim, A.m)
    return A, D


def test_nontrivial_annihilator_and_well_definedness():
    A, D = _euler_instance()
    rep = check_sigma_derivation(A, D)
    assert rep["cd2"].ok
    ann = annihilator(A, D)
    assert len(ann) == 1 and 1 in ann[0]
    assert check_ann_invariance(A, D)
    quotient = QuotientSpace(A, D)
    x = [_sc(1), _sc(5)]
    x_shifted = [a + b for a, b in zip(x, linalg.dense(ann, A.dim, A.m)[0])]  # same class
    y = [_sc(0), _sc(1)]
    b1 = hls_bracket_element(A, D, x, y, quotient)
    b2 = hls_bracket_element(A, D, x_shifted, y, quotient)
    assert all((a - b).is_zero() for a, b in zip(b1, b2))
    b3 = hls_bracket_element(A, D, y, x, quotient)
    b4 = hls_bracket_element(A, D, y, x_shifted, quotient)
    assert all((a - b).is_zero() for a, b in zip(b3, b4))


def test_one_quotient_serves_every_pair_as_hls_bracket_does():
    # hls_bracket's docstring: for many pairs, build one quotient and hand it
    # to hls_bracket_element
    A, D = _euler_instance()
    assert check_ann_invariance(A, D)
    quotient = QuotientSpace(A, D)
    for i in range(A.dim):
        for j in range(A.dim):
            x, y = basis_vector(A, i), basis_vector(A, j)
            assert hls_bracket_element(A, D, x, y, quotient) == hls_bracket(A, D, x, y)


def test_bracket_refused_without_invariance():
    # sigma sending the annihilator line u1 to u0 breaks well-definedness
    A, D = _euler_instance()
    one, zero = _sc(1), _sc(0)
    bad_sigma = [[one, one], [zero, zero]]
    bad = SigmaDerivation(bad_sigma, D.delta_map, A.basis.group.zero(), one, A.dim, A.m)
    assert not check_ann_invariance(A, bad)
    with pytest.raises(HLSError):
        hls_bracket(A, bad, basis_vector(A, 0), basis_vector(A, 1))


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
    sigma = {i: {i: one} for i in range(3)}
    # d/dx on Q[x]/(x^3): x -> 1, x^2 -> 2x
    delta = [[zero, one, zero], [zero, zero, _sc(2)], [zero, zero, zero]]
    D = SigmaDerivation(sigma, delta, G.zero(), one, A.dim, A.m)
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
        return A.mu.bilinear(a, mat_vec_direct(D.delta_map, w))
    for i in range(3):
        for j in range(3):
            x, y = basis_vector(A, i), basis_vector(A, j)
            sx = mat_vec_direct(D.sigma, x)
            sy = mat_vec_direct(D.sigma, y)
            elem = hls_bracket_element(A, D, x, y)
            for w in range(3):
                ew = basis_vector(A, w)
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
    full = SigmaDerivation(D.sigma, delta, A.basis.group.zero(), one, A.dim, A.m)
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


def test_a_product_that_is_not_eps_commutative_is_reported_first():
    A = parse_commutative_algebra_document(json.dumps(_z3z3_product_doc(
        {"x,y": {"z": "1"}})))
    cells = [[A.mu.of_basis(i, j) for j in range(A.dim)] for i in range(A.dim)]
    cells[2][1] = cells[1][2]  # y.x = x.y, where eps(y,x) = zeta^2 asks zeta^2 z
    B = CommutativeColorAlgebra(A.basis, A.eps, cells, A.m)
    report = B.check_commutative_associative()
    assert not report.ok and report.failures[0] == {"kind": "commutativity"}
    assert report.failures[1:] == B.check_hom_associative().failures


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


# -- the induced table against the pointwise oracles ---------------------------

def _z3z3_instance(rng):
    """The Z3xZ3 algebra u, x, y, z (x.y = z) with a random sigma and a random
    Delta with values in span(x, y): the annihilator is span(z), so the
    quotient reduction shows, and eps is not symmetric."""
    A = parse_commutative_algebra_document(json.dumps(_z3z3_product_doc(
        {"x,y": {"z": "1"}})))
    def rand():
        return CycloScalar([rng.choice([0, 1, -1, 2]), rng.choice([0, 1])], 3)
    zero = CycloScalar.zero(3)
    sigma = [[rand() for _ in range(4)] for _ in range(4)]
    delta = [[rand() if r in (1, 2) else zero for _ in range(4)] for r in range(4)]
    return A, SigmaDerivation(sigma, delta, A.basis.group.zero(), rand(), A.dim, A.m)


def _instances():
    rng = random.Random(20261023)
    A, D, _ = q_difference_instance()
    yield A, D
    A, D, _ = q_difference_instance(m=3)
    yield A, D
    A, D = _euler_instance()
    yield A, SigmaDerivation([[_sc(2), _sc(1)], [_sc(0), _sc(3)]], D.delta_map,
                             D.grade_d, _sc(1), A.dim, A.m)
    for _ in range(3):
        yield _z3z3_instance(rng)


def test_hls_identities_match_the_pointwise_oracles():
    rng = random.Random(20261024)
    failing = reduced = rotated = 0
    for A, D in _instances():
        ann = annihilator(A, D)
        quotient = QuotientSpace(A, D)
        one = CycloScalar.one(A.m)
        for d in (D.delta_scalar, one, D.delta_scalar + D.delta_scalar):
            got = check_mnop(A, _with_delta(D, d), quotient)
            assert json.dumps(got.to_dict()) == json.dumps(
                check_mnop_direct(A, D, quotient, delta_scalar=d).to_dict())
            # the full report's deformed Jacobi check is the same list
            assert check_hls_jacobi(A, _with_delta(D, d))["mnop"].to_dict() == got.to_dict()
            failing += not got.ok
            rotated += assert_rotations_share_residuals(got.failures)
        assert check_fgh(A, quotient).to_dict() == \
            check_fgh_direct(A, D, quotient).to_dict()
        # basis vectors and inhomogeneous ones
        vectors = [basis_vector(A, i) for i in range(A.dim)] + [
            [CycloScalar([rng.randint(-2, 2) for _ in range(euler_phi(A.m))], A.m)
             for _ in range(A.dim)] for _ in range(3)]
        for x in vectors:
            for y in vectors:
                for q in (quotient, None):
                    assert hls_bracket_element(A, D, x, y, q) == \
                        hls_bracket_element_direct(A, D, x, y, q)
        want = StructureConstants(A.dim, A.m, {
            (i, j): hls_bracket_element_direct(A, D, basis_vector(A, i),
                                               basis_vector(A, j), quotient)
            for i in range(A.dim) for j in range(A.dim)}).report(A.basis.names)
        assert check_hls_jacobi(A, D)["induced_bracket"] == want
        reduced += bool(ann) and not got.ok
    # the q = 2 line at delta = 1 fails, and so does a quotient with ann != 0
    assert failing >= 4 and reduced >= 1 and rotated


def test_derivation_laws_and_annihilator_match_the_dense_oracles():
    # cd1, cd2, the intertwining law and Ann(Delta) on sparse operators give
    # the reports and the basis of the former dense evaluations
    failing = 0
    for A, D in _instances():
        rep = check_sigma_derivation(A, D)
        cd1, cd2 = check_sigma_derivation_direct(A, D)
        assert (rep["cd1"].failures, rep["cd2"].failures) == (cd1, cd2)
        for d in (D.delta_scalar, CycloScalar.one(A.m), CycloScalar.zero(A.m)):
            got = check_ijkl(A, _with_delta(D, d))
            assert got.to_dict() == check_ijkl_direct(A, D, d).to_dict()
            failing += len(got.failures)
        assert linalg.dense(annihilator(A, D), A.dim, A.m) == annihilator_direct(A, D)
        assert_rref(annihilator(A, D))
        failing += len(cd1) + len(cd2)
    assert failing >= 20


def test_a_rational_delta_scalar_reads_as_the_scalar_it_names():
    # an int or Fraction delta_scalar is coerced as scalar arithmetic coerces it
    for A, D in _instances():
        quotient = QuotientSpace(A, D)
        for d in (1, 0, Fraction(1, 2), -3):
            rational = _with_delta(D, d)
            scalar = _with_delta(D, CycloScalar.from_rational(d, A.m))
            assert check_ijkl(A, rational).to_dict() == check_ijkl(A, scalar).to_dict()
            assert check_mnop(A, rational, quotient).to_dict() == \
                check_mnop(A, scalar, quotient).to_dict()


def test_an_hls_run_solves_the_annihilator_and_builds_the_induced_table_once(
        monkeypatch, capsys):
    # the module: the package's hls_bracket is the function of that name
    module = importlib.import_module("colorhomlie.hls_bracket")
    solves, builds = [], []
    solve, commutator = module.annihilator, StructureConstants.commutator
    def counting_solve(A, D):
        solves.append(D)
        return solve(A, D)
    def counting_commutator(table, degrees, eps):
        builds.append(table)
        return commutator(table, degrees, eps)
    monkeypatch.setattr(module, "annihilator", counting_solve)
    monkeypatch.setattr(StructureConstants, "commutator", counting_commutator)
    code = run_command(["hls", "--algebra", data_path("qwitt_trunc_q2.alg"),
                        "--sigma", '[["1","0","0"],["0","2","0"],["0","0","4"]]',
                        "--delta-map", '[["0","1","0"],["0","0","3"],["0","0","0"]]',
                        "--delta-scalar", "2"])
    assert code == 1 and json.loads(capsys.readouterr().out)["induced_bracket"]
    assert (len(solves), len(builds)) == (1, 1)


def test_the_graded_quantum_plane_pins_the_whole_hls_report():
    # eps is not symmetric on Z_3 x Z_3 and Delta has degree (1, 0), so CD2
    # reads eps(d, x) where eps(x, d) differs; Ann(Delta) = span(a1b2, a2b0,
    # a2b1, a2b2) is nonzero, so the quotient reduces table values carrying zeta
    A, D = quantum_plane_z3z3()
    assert A.check_commutative_associative().ok
    report = {key: value.to_dict() if isinstance(value, CheckResult) else value
              for key, value in check_hls_jacobi(A, D).items()}
    def ijkl(name, k, lhs):  # Delta sigma = sigma Delta / 2, not delta sigma Delta
        entries = lambda c: ["0"] * k + [str(c)] + ["0"] * (A.dim - 1 - k)
        return {"basis": name, "lhs": entries(lhs), "rhs": entries(2 * lhs)}
    passing = {"ok": True, "failures": []}
    assert report == {
        "sigma_endomorphism": passing, "cd1": passing, "cd2": passing, "abc": passing,
        "ijkl": {"ok": False, "failures": [
            ijkl("a0b1", 4, -6), ijkl("a0b2", 5, -72), ijkl("a1b0", 6, -2),
            ijkl("a1b1", 7, -30), ijkl("a1b2", 8, -306)]},
        "fgh": passing, "mnop": passing, "annihilator_dim": 4,
        "induced_bracket": {"a0b0,a0b1": {"a1b1": "-2"}, "a0b1,a0b0": {"a1b1": "2"}}}
    # the quotient's table and its unreduced form against the pointwise oracles
    quotient = QuotientSpace(A, D)
    assert check_fgh(A, quotient).to_dict() == check_fgh_direct(A, D, quotient).to_dict()
    unreduced = 0
    vectors = [basis_vector(A, i) for i in range(A.dim)]
    for x in vectors:
        for y in vectors:
            for q in (quotient, None):
                assert hls_bracket_element(A, D, x, y, q) == \
                    hls_bracket_element_direct(A, D, x, y, q)
            unreduced += any(not c.is_zero() for c in hls_bracket_element(A, D, x, y))
    assert unreduced == 16
