"""File round-trips, CLI subcommands, exit codes, determinism."""
import io
import json
import sys

import pytest

from colorhomlie.cli import run_command
from colorhomlie.fileio import (ParseError, parse_algebra_document,
                                parse_algebra_file, serialize_algebra)

from conftest import data_path, sl2c_z2z2


def run_cli(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_round_trip_bit_exact():
    A = parse_algebra_file(data_path("sl2c_z2z2.alg"))
    text = serialize_algebra(A)
    B = parse_algebra_document(text)
    assert serialize_algebra(B) == text
    assert B.bracket.equals(A.bracket)
    assert B.basis.names == A.basis.names
    from colorhomlie import linalg
    assert linalg.mat_eq(B.alpha, A.alpha)


def test_round_trip_preserves_fraction_literals():
    doc = {
        "schema": 1, "name": "frac", "group": {"orders": [2]},
        "root_order": 2, "epsilon": {"exponents": [[1]]},
        "basis": [{"name": "a", "degree": [1]}, {"name": "b", "degree": [0]}],
        "bracket": {"a,a": {"b": "22/7"}},
        "alpha": [["1", "0"], ["0", "-5/3"]],
    }
    A = parse_algebra_document(json.dumps(doc))
    text = serialize_algebra(A)
    assert "22/7" in text and "-5/3" in text
    B = parse_algebra_document(text)
    assert serialize_algebra(B) == text


def test_malformed_scalar_reports_location():
    doc = """{
  "schema": 1, "name": "bad", "group": {"orders": [2]},
  "root_order": 2, "epsilon": {"exponents": [[1]]},
  "basis": [{"name": "a", "degree": [1]}],
  "bracket": {"a,a": {"a": "1//2"}},
  "alpha": [["1"]]
}"""
    with pytest.raises(ParseError) as err:
        parse_algebra_document(doc)
    assert err.value.line == 5
    assert err.value.column == 29
    assert "1//2" in str(err.value)


def test_zero_bracket_section_parses_to_zero_algebra():
    doc = {
        "schema": 1, "name": "abelian", "group": {"orders": [2, 2]},
        "root_order": 2, "epsilon": {"exponents": [[0, 1], [1, 0]]},
        "basis": [{"name": "x", "degree": [1, 0]}],
        "alpha": [["1"]],
    }
    A = parse_algebra_document(json.dumps(doc))
    assert A.bracket.is_zero()


def test_validate_exit_codes(capsys):
    code, out, err = run_cli(["validate", data_path("sl2c_z2z2.alg")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["report"]["is_color_hom_lie"] is True
    assert "all checks pass" in err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run_cli(["validate", "--no-such-flag", "x"], capsys)
    assert code == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(["validate", "/nonexistent/file.alg"], capsys)
    assert code == 2
    assert "error" in err


def test_cohomology_cli_reports_dims(capsys):
    code, out, _ = run_cli([
        "cohomology", "--algebra", data_path("sl2c_z2z2.alg"),
        "--module", "adjoint", "--n", "2", "--r", "0", "--degree", "1,0",
        "--restrict", "free"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["dim_Z"] == 6
    assert doc["results"][0]["dim_H"] == 2


def test_twists_cli_counts(capsys):
    code, out, _ = run_cli([
        "twists", "--algebra", data_path("sl2c_z2z3.alg"),
        "--entries", "-1,0,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 25
    inv = [m for m in doc["morphisms"] if m["invertible"]]
    assert len(inv) == 24


def test_structure_cli(capsys):
    code, out, _ = run_cli([
        "structure", "--algebra", data_path("sl2c_z2z2.alg"),
        "--kind", "centroid", "--k", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    dims = [s["dim"] for s in doc["spaces"]]
    assert sorted(dims) == [0, 0, 0, 1]
    assert all(s["reverified"] for s in doc["spaces"])


def test_jordan_cli(capsys):
    code, out, _ = run_cli([
        "jordan", "--algebra", data_path("sl2c_z2z2.alg"), "--k", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["span_dim"] == 2
    assert doc["hcj1"]["ok"] and doc["hcj2"]["ok"]


def test_derived_cli(capsys):
    code, out, _ = run_cli([
        "derived", "--algebra", data_path("sl2c_z2z2.alg"), "--n", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["is_color_hom_lie"] is True


def test_hls_cli(capsys):
    sigma = json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]])
    delta = json.dumps([["0", "1", "0"], ["0", "0", "3"], ["0", "0", "0"]])
    code, out, _ = run_cli([
        "hls", "--algebra", data_path("qwitt_trunc_q2.alg"),
        "--sigma", sigma, "--delta-map", delta, "--delta-scalar", "2"], capsys)
    doc = json.loads(out)
    assert doc["checks"]["ijkl"]["ok"] is True
    assert doc["checks"]["mnop"]["ok"] is True
    assert doc["checks"]["cd2"]["ok"] is False  # truncation boundary
    assert code == 1  # a reported mathematical failure exits 1


def test_hls_cli_zeta3_all_green(capsys):
    # q = zeta_3 in the cyclotomic field: every identity closes
    sigma = json.dumps([["1", "0", "0"], ["0", "[0;1]", "0"], ["0", "0", "[-1;-1]"]])
    delta = json.dumps([["0", "1", "0"], ["0", "0", "[1;1]"], ["0", "0", "0"]])
    code, out, _ = run_cli([
        "hls", "--algebra", data_path("qwitt_trunc_zeta3.alg"),
        "--sigma", sigma, "--delta-map", delta, "--delta-scalar", "[0;1]"], capsys)
    assert code == 0
    doc = json.loads(out)
    for name, rep in doc["checks"].items():
        assert rep["ok"], name


def test_deform_compose_cli(tmp_path, capsys):
    terms = {"schema": 1, "terms": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
    ]}
    f = tmp_path / "alpha_terms.json"
    f.write_text(json.dumps(terms))
    code, out, _ = run_cli([
        "deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
        "--alpha-terms", str(f), "--order", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(v["ok"] for v in doc["orders"].values())
    assert doc["endomorphism_failing_orders"] == [1, 2]


def test_deform_check_cli(tmp_path, capsys):
    terms = {"schema": 1, "terms": [
        {"e1,e2": {"e3": "1"}, "e1,e3": {"e2": "-1"}, "e2,e3": {"e1": "-1"}},
        {"e1,e2": {"e2": "1"}, "e1,e3": {"e3": "1"}},
    ]}
    f = tmp_path / "terms.json"
    f.write_text(json.dumps(terms))
    code, out, _ = run_cli([
        "deform", "check", "--algebra", data_path("sl2c_z2z2.alg"),
        "--bracket-terms", str(f)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["first_order"]["is_cocycle"] is True


def test_reports_are_byte_identical_across_runs(capsys):
    commands = [
        ["validate", data_path("sl2c_z2z2.alg")],
        ["cohomology", "--algebra", data_path("sl2c_z2z2.alg"),
         "--module", "adjoint", "--n", "2", "--r", "0"],
        ["structure", "--algebra", data_path("sl2c_z2z2.alg"),
         "--kind", "gder", "--k", "1"],
        ["twists", "--algebra", data_path("motion_z2z3.alg"),
         "--entries", "0,1"],
        ["jordan", "--algebra", data_path("sl2c_z2z2.alg")],
        ["derived", "--algebra", data_path("sl2c_z2z2.alg"), "--n", "2"],
    ]
    for argv in commands:
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2, argv


def test_text_format(capsys):
    code, out, _ = run_cli(["--format", "text", "validate",
                            data_path("sl2c_z2z2.alg")], capsys)
    assert code == 0
    assert "is_color_hom_lie: True" in out


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COLORHOM_BUDGET", "10")
    code, _, err = run_cli([
        "twists", "--algebra", data_path("sl2c_z2z3.alg"),
        "--entries", "-1,0,1"], capsys)
    assert code == 2
    assert "exceed budget 10" in err


def test_cohomology_with_shifted_adjoint(capsys):
    code, out, _ = run_cli([
        "cohomology", "--algebra", data_path("sl2c_z2z2.alg"),
        "--module", "ad_s:1", "--n", "1", "--r", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 4  # one block per group element


def test_cohomology_with_representation_file(tmp_path, capsys):
    # external representation file: the adjoint written out explicitly
    A = parse_algebra_file(data_path("sl2c_z2z2.alg"))
    from colorhomlie.representations import adjoint
    from colorhomlie.fileio import serialize_matrix
    R = adjoint(A)
    doc = {
        "schema": 1,
        "carrier": [{"name": n, "degree": list(d.components)}
                    for n, d in zip(A.basis.names, A.basis.degrees)],
        "rho": {name: serialize_matrix(R.rho[i])
                for i, name in enumerate(A.basis.names)},
        "beta": serialize_matrix(R.beta),
    }
    f = tmp_path / "adjoint_rep.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run_cli([
        "cohomology", "--algebra", data_path("sl2c_z2z2.alg"),
        "--module", str(f), "--n", "2", "--r", "0", "--degree", "1,0",
        "--restrict", "free"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["results"][0]["dim_Z"] == 6


def test_validate_strict_flag(capsys):
    # non-multiplicative twist: default validate passes, strict does not
    doc = {
        "schema": 1, "name": "nonmult", "group": {"orders": [2, 2]},
        "root_order": 2, "epsilon": {"exponents": [[0, 1], [1, 0]]},
        "basis": [{"name": "e1", "degree": [1, 0]},
                  {"name": "e2", "degree": [0, 1]},
                  {"name": "e3", "degree": [1, 1]}],
        "bracket": {"e1,e2": {"e3": "1"}, "e1,e3": {"e2": "-1"},
                    "e2,e3": {"e1": "-1"}},
        "alpha": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "2"]],
    }
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".alg", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        code, out, _ = run_cli(["validate", path], capsys)
        parsed = json.loads(out)
        assert parsed["report"]["is_color_hom_lie"] is True
        assert parsed["report"]["multiplicative"]["ok"] is False
        assert code == 0
        code_strict, _, _ = run_cli(["validate", "--strict", path], capsys)
        assert code_strict == 1
    finally:
        os.unlink(path)


# -- malformed input exits 2 with the offending key named ---------------------

_HLS_ARGS = ["--sigma", '[["1","0","0"],["0","2","0"],["0","0","4"]]',
             "--delta-map", '[["0","1","0"],["0","0","3"],["0","0","0"]]',
             "--delta-scalar", "2"]


def _data_doc(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _adjoint_doc():
    from colorhomlie.fileio import serialize_matrix
    from colorhomlie.representations import adjoint
    A = parse_algebra_file(data_path("sl2c_z2z2.alg"))
    R = adjoint(A)
    return {"schema": 1,
            "carrier": [{"name": n, "degree": list(d.components)}
                        for n, d in zip(A.basis.names, A.basis.degrees)],
            "rho": {name: serialize_matrix(R.rho[i])
                    for i, name in enumerate(A.basis.names)},
            "beta": serialize_matrix(R.beta)}


def _without(doc, *path):
    *outer, key = path
    target = doc
    for step in outer:
        target = target[step]
    del target[key]
    return doc


def _with(doc, value, *path):
    *outer, key = path
    target = doc
    for step in outer:
        target = target[step]
    target[key] = value
    return doc


def _validate(doc):
    return ("algebra.alg", doc, lambda f: ["validate", f])


def _hls(doc, sigma=None):
    args = list(_HLS_ARGS)
    if sigma is not None:
        args[1] = sigma
    return ("product.alg", doc, lambda f: ["hls", "--algebra", f] + args)


def _module(doc):
    return ("rep.json", doc, lambda f: [
        "cohomology", "--algebra", data_path("sl2c_z2z2.alg"), "--module", f,
        "--n", "1", "--degree", "1,0"])


MALFORMED = {
    "basis-without-degree": (lambda: _validate(_without(
        _data_doc("sl2c_z2z2.alg"), "basis", 0, "degree")), "'degree'"),
    "group-without-orders": (lambda: _validate(_without(
        _data_doc("sl2c_z2z2.alg"), "group", "orders")), "'orders'"),
    "product-file-without-group": (lambda: _hls(_without(
        _data_doc("qwitt_trunc_q2.alg"), "group")), "'group'"),
    "sigma-wrong-shape": (lambda: _hls(_data_doc("qwitt_trunc_q2.alg"),
                                       sigma='[["1"]]'), "--sigma"),
    "module-without-rho": (lambda: _module(_without(_adjoint_doc(), "rho")), "'rho'"),
    "rho-wrong-shape": (lambda: _module(_with(_adjoint_doc(), [["1"]], "rho", "e1")),
                        "rho['e1']"),
    "product-key-unknown-name": (lambda: _hls(_with(
        _data_doc("qwitt_trunc_q2.alg"), {"u1": "1"}, "product", "u0,b")),
        "unknown basis name 'b'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_and_names_the_key(case, tmp_path, capsys):
    build, key = MALFORMED[case]
    filename, doc, argv = build()
    path = tmp_path / filename
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(argv(str(path)), capsys)
    assert code == 2, err
    assert key in err and "Traceback" not in err


def test_inconsistent_redundant_bracket_exits_two(tmp_path, capsys):
    # [e1,e2] = e3 forces [e2,e1] = -eps(e2,e1) e3 = e3 in sl2c_z2z2
    doc = _data_doc("sl2c_z2z2.alg")
    path = tmp_path / "consistent.alg"
    path.write_text(json.dumps(_with(doc, {"e3": "1"}, "bracket", "e2,e1")))
    assert run_cli(["validate", str(path)], capsys)[0] == 0
    path.write_text(json.dumps(_with(doc, {"e3": "-1"}, "bracket", "e2,e1")))
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2 and "skew-symmetry" in err
