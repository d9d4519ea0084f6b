"""File round-trips, CLI subcommands, exit codes, determinism."""
import io
import json
import os
import sys
import time

import pytest

from colorhomlie import cli
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
    assert B.alpha == A.alpha and B.alpha_sparse(1) == A.alpha_sparse(1)


def test_editing_a_dense_copy_changes_neither_the_checks_nor_the_file():
    # alpha and rho(e_i) are stored once, sparse; A.alpha and R.rho hand out
    # fresh dense copies, so an edited copy reaches no check and no file, also
    # once the twist powers are formed
    from colorhomlie.algebra_core import check_color_hom_lie
    from colorhomlie.representations import adjoint, check_representation
    from colorhomlie.scalars_grading import CycloScalar
    A = parse_algebra_file(data_path("sl2c_z2z2.alg"))
    R = adjoint(A)
    A.alpha_sparse(2)
    report, text = check_color_hom_lie(A).to_dict(), serialize_algebra(A)
    module = check_representation(A, R).to_dict()
    seven = CycloScalar.from_rational(7, A.m)
    alpha, rho = A.alpha, R.rho
    alpha[0][0] = rho[0][0][0] = seven
    assert A.alpha != alpha and R.rho != rho
    assert check_color_hom_lie(A).to_dict() == report and serialize_algebra(A) == text
    assert check_representation(A, R).to_dict() == module
    assert check_color_hom_lie(parse_algebra_document(text)).to_dict() == report


def test_a_literal_not_found_in_the_text_is_reported_without_a_location():
    # JSON reads 1e0 as the float 1.0, whose text "1.0" occurs nowhere in the
    # document, so the error carries no line and column
    from colorhomlie.fileio import _locate
    with open(data_path("sl2c_z2z2.alg"), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    doc["alpha"][0][0] = "@"
    bad = json.dumps(doc).replace('"@"', "1e0")
    assert _locate(bad, "1.0") == (None, None) and _locate(bad, "1e0")[0] == 1
    with pytest.raises(ParseError, match=r"^bad scalar literal '1\.0'$") as caught:
        parse_algebra_document(bad)
    assert (caught.value.line, caught.value.column) == (None, None)


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


def test_invalid_json_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_algebra_document('{\n  "schema": 1,\n  "name": }')
    assert (err.value.line, err.value.column) == (3, 11)
    assert "(line 3, column 11)" in str(err.value)


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


def test_a_stdout_that_cannot_be_written_exits_two(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = run_command(["derived", "--algebra", data_path("sl2c_z2z2.alg"), "--n", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_cohomology_cli_reports_dims(capsys):
    code, out, _ = run_cli([
        "cohomology", "--algebra", data_path("sl2c_z2z2.alg"),
        "--module", "adjoint", "--n", "2", "--r", "0", "--degree", "1,0",
        "--restrict", "free"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["dim_Z"] == 6
    assert doc["results"][0]["dim_H"] == 2


@pytest.mark.parametrize("command", [["cohomology", "--n", "1"], ["structure", "--kind", "der"]])
def test_a_degree_of_the_wrong_length_exits_2(command, capsys):
    code, out, err = run_cli(command + ["--algebra", data_path("sl2c_z2z2.alg"),
                                        "--degree", "1,0,7"], capsys)
    assert (code, out) == (2, "")
    assert "element (1, 0, 7) has 3 components, group rank is 2" in err


def test_a_negative_degree_may_follow_its_option_after_a_space(capsys):
    # -1 = 1 in Z/2: the spaced form is the degree, not an unknown flag
    argv = ["structure", "--algebra", data_path("sl2c_z2z2.alg"), "--kind", "der"]
    plain = run_cli(argv + ["--degree", "1,0"], capsys)
    assert plain[0] == 0
    assert run_cli(argv + ["--degree", "-1,0"], capsys)[:2] == plain[:2]
    assert run_cli(argv + ["--degree=-1,0"], capsys)[:2] == plain[:2]


def test_a_negative_grade_may_follow_its_option_after_a_space(tmp_path, capsys):
    # the shipped product line graded by Z/2 x Z/2, every basis vector of
    # degree 0: a Delta of degree (1,0) breaks the degree pattern cd1
    doc = _data_doc("qwitt_trunc_q2.alg")
    doc.update(group={"orders": [2, 2]}, root_order=2,
               epsilon={"exponents": [[0, 0], [0, 0]]})
    for vector in doc["basis"]:
        vector["degree"] = [0, 0]
    path = tmp_path / "z2z2_line.alg"
    path.write_text(json.dumps(doc))
    argv = ["hls", "--algebra", str(path)] + _HLS_ARGS
    odd = run_cli(argv + ["--grade", "1,0"], capsys)
    assert json.loads(odd[1])["checks"]["cd1"]["ok"] is False
    assert run_cli(argv + ["--grade", "-1,0"], capsys)[:2] == odd[:2]
    assert json.loads(run_cli(argv + ["--grade", "0,0"], capsys)[1])["checks"]["cd1"]["ok"]


def test_twists_cli_counts(capsys):
    code, out, _ = run_cli([
        "twists", "--algebra", data_path("sl2c_z2z3.alg"),
        "--entries", "-1,0,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 25
    inv = [m for m in doc["morphisms"] if m["invertible"]]
    assert len(inv) == 24


def test_twists_cli_makes_no_verify_morphism_call(capsys, monkeypatch):
    # the search checks every pair once, so neither enumerate_morphisms nor
    # the report's twists check a result again
    from colorhomlie import morphisms_twists
    calls = []
    verify = morphisms_twists.verify_morphism
    def counting_verify(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)
    monkeypatch.setattr(morphisms_twists, "verify_morphism", counting_verify)
    code, out, _ = run_cli([
        "twists", "--algebra", data_path("sl2c_z2z3.alg"),
        "--entries", "-1,0,1"], capsys)
    assert code == 0
    assert calls == [] and json.loads(out)["count"] == 25


@pytest.mark.parametrize("entries", ["0,1,1", "1,2/2,0"])
def test_twists_cli_counts_each_entry_value_once(capsys, entries):
    argv = ["twists", "--algebra", data_path("sl2c_z2z2.alg")]
    _, distinct, _ = run_cli(argv + ["--entries", "0,1"], capsys)
    code, out, _ = run_cli(argv + ["--entries", entries, "--budget", str(2 ** 9)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3 and doc["morphisms"] == json.loads(distinct)["morphisms"]
    assert sorted(doc["entry_set"]) == ["0", "1"]


def test_one_parser_serves_every_command(capsys):
    cli.build_parser.cache_clear()
    assert run_cli(["validate", "--no-such-flag", "x"], capsys)[0] == 2
    code, out, _ = run_cli(["validate", data_path("sl2c_z2z2.alg")], capsys)
    assert code == 0 and json.loads(out)["command"] == "validate"
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and "colorhom" in out
    assert run_cli(["derived", "--algebra", data_path("sl2c_z2z2.alg"),
                    "--n", "1"], capsys)[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_structure_cli(capsys):
    code, out, _ = run_cli([
        "structure", "--algebra", data_path("sl2c_z2z2.alg"),
        "--kind", "centroid", "--k", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    dims = [s["dim"] for s in doc["spaces"]]
    assert sorted(dims) == [0, 0, 0, 1]
    assert all(s["reverified"] for s in doc["spaces"])


def test_structure_kinds_match_the_solver_and_unknown_kinds_are_usage_errors(capsys):
    from colorhomlie import cli, structure_theory
    assert cli.STRUCTURE_KINDS == structure_theory.KINDS
    code, out, _ = run_cli([
        "structure", "--algebra", data_path("sl2c_z2z2.alg"), "--kind", "nope"], capsys)
    assert code == 2 and out == ""


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


@pytest.mark.parametrize("argv", [
    ["derived", "--n", "40"], ["derived", "--n", "10"],
    ["structure", "--kind", "der", "--k", "1200"],
    ["cohomology", "--module", "adjoint", "--n", "1", "--r", "1500"]],
    ids=["derived-n40", "derived-n10", "structure-k1200", "cohomology-r1500"])
def test_deep_twist_powers_exit_zero_at_once(capsys, argv):
    # alpha^(2^40 - 1), alpha^1200 and alpha^1500 by repeated squaring, with no
    # recursion per power; sl2c_z2z2's alpha is an involution
    start = time.perf_counter()
    code, out, err = run_cli(argv + ["--algebra", data_path("sl2c_z2z2.alg")], capsys)
    assert (code, "Traceback" in err) == (0, False)
    assert time.perf_counter() - start < 1.0
    if argv[0] == "derived":
        doc = json.loads(out)
        assert doc["report"]["is_color_hom_lie"] is True
        assert doc["alpha"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


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


def test_hls_cli_reads_sigma_from_a_file(tmp_path, capsys):
    args = ["hls", "--algebra", data_path("qwitt_trunc_q2.alg")] + _HLS_ARGS
    inline = run_cli(args, capsys)
    path = tmp_path / "sigma.json"
    path.write_text(args[4])
    args[4] = str(path)
    assert run_cli(args, capsys) == inline


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


ALPHA_TERMS = {"schema": 1, "terms": [
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
]}
BRACKET_TERMS = {"schema": 1, "terms": [
    {"e1,e2": {"e3": "1"}, "e1,e3": {"e2": "-1"}, "e2,e3": {"e1": "-1"}},
    {"e1,e2": {"e2": "1"}, "e1,e3": {"e3": "1"}},
]}


def test_deform_compose_cli(tmp_path, capsys):
    f = tmp_path / "alpha_terms.json"
    f.write_text(json.dumps(ALPHA_TERMS))
    code, out, _ = run_cli([
        "deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
        "--alpha-terms", str(f), "--order", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(v["ok"] for v in doc["orders"].values())
    assert doc["endomorphism_failing_orders"] == [1, 2]


def test_deep_composition_levels_exit_zero_at_once(tmp_path, capsys):
    # alpha_t^(2^40) by 40 squarings of the series, not 2^40 - 1 products
    f = tmp_path / "alpha_terms.json"
    f.write_text(json.dumps(ALPHA_TERMS))
    start = time.perf_counter()
    code, out, err = run_cli([
        "deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
        "--alpha-terms", str(f), "--order", "3", "--derived", "40"], capsys)
    assert (code, "Traceback" in err) == (0, False)
    assert time.perf_counter() - start < 1.0
    assert all(v["ok"] for v in json.loads(out)["orders"].values())


def test_a_derived_composition_by_an_automorphism_exits_zero(tmp_path, capsys):
    # alpha_t = diag(-1, -1, 1), constant: the family starts at (L, [.,.], Id)
    f = tmp_path / "alpha_terms.json"
    f.write_text(json.dumps({"schema": 1, "terms": ALPHA_TERMS["terms"][1:]}))
    for derived in ("1", "2"):
        code, out, _ = run_cli([
            "deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
            "--alpha-terms", str(f), "--order", "2", "--derived", derived,
            "--require-endomorphism"], capsys)
        assert code == 0
        orders = json.loads(out)["orders"]
        assert set(orders) == {"0", "1", "2"} and all(v["ok"] for v in orders.values())


def test_a_runaway_composition_level_is_refused_within_the_budget(tmp_path, capsys,
                                                                  monkeypatch):
    # alpha_0 = 2 Id: after n squarings the entries hold about 2^n bits, and term 0,
    # 2^(2^n) [.,.], is the base bracket of level n; the series is refused as soon
    # as one product of two of its entries, b^2 steps for b bits, outgrows
    # COLORHOM_BUDGET: under the default budget at squaring 14, whatever the level
    doubled = {"schema": 1, "terms": [[["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
                                      ALPHA_TERMS["terms"][1]]}
    f = tmp_path / "alpha_terms.json"
    f.write_text(json.dumps(doubled))
    for budget, derived, refusal in (
            ("64", "33", "after 3 squarings a twist series entry needs 11 bits, about "
                         "121 steps per product, over budget 64"),
            (None, "24", "after 14 squarings a twist series entry needs 16421 bits, about "
                         "269649241 steps per product, over budget 100000000")):
        if budget is None:
            monkeypatch.delenv("COLORHOM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("COLORHOM_BUDGET", budget)
        start = time.perf_counter()
        code, out, err = run_cli([
            "deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
            "--alpha-terms", str(f), "--order", "3", "--derived", derived], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: derived level {derived}: {refusal} (set COLORHOM_BUDGET)\n"


def test_deform_check_cli(tmp_path, capsys):
    f = tmp_path / "terms.json"
    f.write_text(json.dumps(BRACKET_TERMS))
    code, out, _ = run_cli([
        "deform", "check", "--algebra", data_path("sl2c_z2z2.alg"),
        "--bracket-terms", str(f)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["first_order"]["is_cocycle"] is True


NEGATIVE_ARGUMENTS = {
    "deform-check-order": (["deform", "check", "--algebra", data_path("sl2c_z2z2.alg"),
                            "--bracket-terms", "{terms}", "--order", "-1"],
                           "order must be non-negative"),
    "deform-compose-order": (["deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
                              "--alpha-terms", "{alphas}", "--order", "-1"],
                             "order must be non-negative"),
    "deform-compose-derived": (["deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"),
                                "--alpha-terms", "{alphas}", "--derived", "-1"],
                               "derived level must be non-negative"),
    "jordan-k": (["jordan", "--algebra", data_path("sl2c_z2z2.alg"), "--k", "-1"],
                 "twist power must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_ARGUMENTS))
def test_a_negative_order_level_or_power_exits_two_with_one_error_line(case, tmp_path,
                                                                       capsys):
    argv, message = NEGATIVE_ARGUMENTS[case]
    files = {"terms": tmp_path / "terms.json", "alphas": tmp_path / "alpha_terms.json"}
    files["terms"].write_text(json.dumps(BRACKET_TERMS))
    files["alphas"].write_text(json.dumps(ALPHA_TERMS))
    code, out, err = run_cli([arg.format(**files) for arg in argv], capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


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


@pytest.mark.parametrize("argv", [
    ["cohomology", "--algebra", data_path("sl2c_z2z2.alg"), "--n", "1", "--r", "1"],
    ["derived", "--algebra", data_path("sl2c_z2z2.alg"), "--n", "1"],
], ids=["cohomology", "derived"])
def test_text_format_renders_the_json_report_with_its_header(argv, capsys):
    # a list of result dicts (cohomology) and nested bracket dicts (derived)
    code_json, out_json, _ = run_cli(argv, capsys)
    code, out, _ = run_cli(["--format", "text"] + argv, capsys)
    assert code == code_json
    lines = out.splitlines()
    assert lines[:2] == ["schema: 1", f"command: {argv[0]}"]
    doc = json.loads(out_json)
    if argv[0] == "cohomology":
        assert [line for line in lines if "dim_H" in line] == \
            [f"    dim_H: {r['dim_H']}" for r in doc["results"]]
        # each result opens with its own marker line, followed by its fields
        start = lines.index("results:") + 1
        markers = [i for i, line in enumerate(lines) if line == "  -"]
        assert len(markers) == len(doc["results"]) == 4 and markers[0] == start
        for i in markers:
            assert lines[i + 1] == f"    n: {argv[argv.index('--n') + 1]}"
    else:
        bracket = [line for pair, images in doc["bracket"].items()
                   for line in [f"  {pair}:"] + [f"    {k}: {c}" for k, c in images.items()]]
        start = lines.index("bracket:") + 1
        assert lines[start:start + len(bracket)] == bracket
        # the twist matrix prints one line per row
        start = lines.index("alpha:") + 1
        assert lines[start:start + len(doc["alpha"]) + 1] == \
            [f"  - [{', '.join(row)}]" for row in doc["alpha"]] + ["report:"]


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COLORHOM_BUDGET", "10")
    code, _, err = run_cli([
        "twists", "--algebra", data_path("sl2c_z2z3.alg"),
        "--entries", "-1,0,1"], capsys)
    assert code == 2
    assert "exceed budget 10" in err


def test_a_huge_root_order_is_refused_at_parse_time(tmp_path, capsys, monkeypatch):
    # the default root order is the group's exponent: building Phi_720720 and
    # its 720720-row zeta^k table would take hours, so the parser refuses it
    monkeypatch.delenv("COLORHOM_BUDGET", raising=False)
    path = tmp_path / "huge_order.alg"
    path.write_text(json.dumps({"schema": 1, "group": {"orders": [720720]},
                                "basis": [{"name": "e1", "degree": [1]}]}))
    start = time.perf_counter()
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "root order 720720 needs about 519437318400 steps" in err
    assert "over budget 100000000" in err
    # the estimate is m^2 against the same budget as twist enumeration
    monkeypatch.setenv("COLORHOM_BUDGET", "35")
    doc = {"schema": 1, "group": {"orders": [6]}, "basis": [{"name": "e1", "degree": [1]}]}
    with pytest.raises(ParseError, match="root order 6 needs about 36 steps"):
        parse_algebra_document(json.dumps(doc))
    monkeypatch.setenv("COLORHOM_BUDGET", "36")
    assert parse_algebra_document(json.dumps(doc)).m == 6
    # every command parses an algebra file, so a malformed budget is named
    monkeypatch.setenv("COLORHOM_BUDGET", "1e8")
    code, out, err = run_cli(["validate", data_path("sl2c_z2z2.alg")], capsys)
    assert (code, out) == (2, "")
    assert "COLORHOM_BUDGET must be an integer, got '1e8'" in err


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


def _directory(case):
    """The case run on the directory that holds its file."""
    filename, doc, argv = case
    return filename, doc, lambda f: argv(os.path.dirname(f))


def _alpha_terms(doc):
    return ("alpha_terms.json", doc, lambda f: [
        "deform", "compose", "--algebra", data_path("sl2c_z2z3.alg"), "--alpha-terms", f])


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
    "bracket-key-not-a-pair": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), {"e3": "1"}, "bracket", "e1,e2,e3")),
        "bad bracket entry 'e1,e2,e3'"),
    "product-key-unknown-name": (lambda: _hls(_with(
        _data_doc("qwitt_trunc_q2.alg"), {"u1": "1"}, "product", "u0,b")),
        "unknown basis name 'b'"),
    "alpha-term-wrong-shape": (lambda: _alpha_terms({"schema": 1, "terms": [[["1"]]]}),
                               "terms[0]"),
    "validate-a-directory": (lambda: _directory(_validate({})), "Is a directory"),
    "module-a-directory": (lambda: _directory(_module({})), "Is a directory"),
    "epsilon-not-an-object": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), [], "epsilon")), "'epsilon'"),
    "bracket-not-an-object": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), [], "bracket")), "bracket"),
    "degree-an-integer": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), 1, "basis", 0, "degree")), "'degree'"),
    "orders-an-integer": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), 2, "group", "orders")), "'orders'"),
    "basis-an-integer": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), 5, "basis")), "'basis'"),
    "alpha-an-integer": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), 5, "alpha")), "alpha"),
    "alpha-row-an-integer": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), [5], "alpha")), "alpha"),
    "exponents-an-integer": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), 5, "epsilon", "exponents")), "'exponents'"),
    "root-order-a-list": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), [], "root_order")), "'root_order'"),
    "root-order-zero": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), 0, "root_order")), "'root_order'"),
    "degree-component-a-list": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), [[1], 0], "basis", 0, "degree")), "'degree'"),
    "orders-entry-a-string": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), ["2", 2], "group", "orders")), "'orders'"),
    "exponent-a-list": (lambda: _validate(_with(
        _data_doc("sl2c_z2z2.alg"), [[[0], 1], [1, 0]], "epsilon", "exponents")),
        "'exponents'"),
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


def test_a_non_skew_epsilon_on_a_large_group_exits_two_at_once(tmp_path, capsys):
    doc = {"schema": 1, "group": {"orders": [200, 200]}, "root_order": 200,
           "epsilon": {"exponents": [[1, 0], [0, 0]]},
           "basis": [{"name": "e1", "degree": [0, 0]}], "bracket": {}, "alpha": [["1"]]}
    path = tmp_path / "nonskew.alg"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2 and "not skew at ((1,0), (1,0))" in err, err
    assert time.perf_counter() - start < 0.5
