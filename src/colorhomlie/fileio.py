"""Algebra description files and related bundles.

An algebra file is a JSON document::

    {
      "schema": 1,
      "name": "sl2c_z2z2",
      "group": {"orders": [2, 2]},
      "root_order": 2,
      "epsilon": {"exponents": [[0, 1], [1, 0]]},
      "basis": [{"name": "e1", "degree": [1, 0]}, ...],
      "bracket": {"e1,e2": {"e3": "1"}, ...},
      "alpha": [["-1", "0", "0"], ...]
    }

Scalars use the literal grammar `p`, `p/q`, or `[c0;c1;...]` and round-trip
bit-exactly.  Matrices are row-major and act in the column convention.
root_order defaults to the exponent of the grading group.
"""
from __future__ import annotations

import json

from . import linalg
from .algebra_core import (BracketTable, ColorHomAlgebra, GradedBasis,
                           StructureConstants, _complete)
from .representations import Representation
from .scalars_grading import (BiCharacter, CycloScalar, FiniteAbelianGroup,
                              ScalarError, format_scalar, parse_scalar)


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


def _locate(text: str, needle: str):
    pos = text.find(needle)
    if pos < 0:
        return None, None
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, column


def _parse_scalar_located(text_value: str, m: int, source: str) -> CycloScalar:
    try:
        return parse_scalar(text_value, m)
    except ScalarError as exc:
        line, column = _locate(source, text_value)
        raise ParseError(str(exc), line, column) from exc


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc


def parse_matrix(rows, m: int, source: str = ""):
    return [[_parse_scalar_located(str(v), m, source) for v in row] for row in rows]


def serialize_matrix(matrix):
    return [[format_scalar(c) for c in row] for row in matrix]


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where} misses required key {key!r}")
    return obj[key]


def _parse_square(rows, n: int, m: int, source: str, what: str):
    matrix = parse_matrix(rows, m, source)
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ParseError(f"{what} must be a {n}x{n} matrix")
    return matrix


def _parse_basis(entries, group: FiniteAbelianGroup, what: str) -> GradedBasis:
    names, degrees = [], []
    for n, entry in enumerate(entries):
        names.append(str(_require(entry, "name", f"{what} entry {n}")))
        degree = _require(entry, "degree", f"{what} entry {n}")
        degrees.append(group.element(tuple(int(c) for c in degree)))
    return GradedBasis(tuple(names), tuple(degrees), group)


def _parse_header(doc):
    """Basis, bi-character and root order of an algebra document."""
    group_doc = _require(doc, "group", "algebra document")
    group = FiniteAbelianGroup(tuple(int(n) for n in _require(group_doc, "orders", "group")))
    m = int(doc.get("root_order", max(group.exponent, 1)))
    exponents = doc.get("epsilon", {}).get("exponents")
    if exponents is None:
        exponents = [[0] * group.rank for _ in range(group.rank)]
    eps = BiCharacter(group, exponents, m)
    return _parse_basis(_require(doc, "basis", "algebra document"), group, "basis"), eps, m


def _parse_table(section, basis: GradedBasis, m: int, source: str, what: str):
    """A {"x,y": {"z": "c"}} section as {(i, j): {k: c}}."""
    names = basis.names

    def index(name):
        if name not in names:
            raise ParseError(f"unknown basis name {name!r} in {what} section")
        return names.index(name)

    entries = {}
    for pair_key, value in section.items():
        parts = [p.strip() for p in pair_key.split(",")]
        if len(parts) != 2 or not isinstance(value, dict):
            raise ParseError(f"bad {what} entry {pair_key!r}")
        entries[(index(parts[0]), index(parts[1]))] = {
            index(out): _parse_scalar_located(str(literal), m, source)
            for out, literal in value.items()}
    return entries


def parse_algebra_document(text: str) -> ColorHomAlgebra:
    doc = _load_json(text)
    basis, eps, m = _parse_header(doc)
    entries = _parse_table(doc.get("bracket", {}), basis, m, text, "bracket")
    bracket = BracketTable(basis, eps, entries, m)
    if "alpha" in doc:
        alpha = _parse_square(doc["alpha"], basis.dim, m, text, "alpha")
    else:
        alpha = linalg.identity(basis.dim, m)
    return ColorHomAlgebra(basis, eps, bracket, alpha, m,
                           name=str(doc.get("name", "")))


def parse_algebra_file(path: str) -> ColorHomAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_document(fh.read())


def serialize_algebra(A: ColorHomAlgebra) -> str:
    doc = {
        "schema": 1,
        "name": A.name,
        "group": {"orders": list(A.basis.group.orders)},
        "root_order": A.m,
        "epsilon": {"exponents": [list(row) for row in A.eps.exponent_matrix]},
        "basis": [{"name": n, "degree": list(d.components)}
                  for n, d in zip(A.basis.names, A.basis.degrees)],
        "bracket": A.bracket.report(A.basis.names),
        "alpha": serialize_matrix(A.alpha),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_commutative_algebra_document(text: str):
    """Commutative associative algebra: same layout, with a "product" section
    of ordered-pair entries completed by the eps-commutativity rule."""
    from .hls_bracket import CommutativeColorAlgebra
    doc = _load_json(text)
    basis, eps, m = _parse_header(doc)
    entries = _parse_table(_require(doc, "product", "commutative algebra document"),
                           basis, m, text, "product")
    rows = _complete(basis.dim, m, entries, basis.degrees, eps, 1, "eps-commutativity")
    return CommutativeColorAlgebra(basis, eps, StructureConstants(basis.dim, m, rows), m)


def parse_commutative_algebra_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_commutative_algebra_document(fh.read())


def parse_matrix_bundle(text: str, m: int) -> dict:
    """Named matrices: {"matrices": {"alpha_1": [[...], ...], ...}}."""
    doc = _load_json(text)
    matrices = doc.get("matrices", doc if isinstance(doc, dict) else None)
    if not isinstance(matrices, dict):
        raise ParseError("matrix bundle must map names to matrices")
    out = {}
    for name, rows in matrices.items():
        if name == "schema":
            continue
        out[str(name)] = parse_matrix(rows, m, text)
    return out


def parse_representation_document(text: str, A: ColorHomAlgebra) -> Representation:
    doc = _load_json(text)
    carrier = _parse_basis(_require(doc, "carrier", "representation"), A.basis.group,
                           "carrier")
    rho_doc = _require(doc, "rho", "representation")
    rho = [_parse_square(_require(rho_doc, an, "rho"), carrier.dim, A.m, text, f"rho[{an!r}]")
           for an in A.basis.names]
    beta = _parse_square(_require(doc, "beta", "representation"), carrier.dim, A.m, text,
                         "beta")
    return Representation(carrier, rho, beta, A.m)


def parse_bracket_terms(text: str, A: ColorHomAlgebra):
    """Deformation term file: {"terms": [{<bracket dict>}, ...]}."""
    doc = _load_json(text)
    return [BracketTable(A.basis, A.eps, _parse_table(term, A.basis, A.m, text, "bracket"),
                         A.m)
            for term in _require(doc, "terms", "term file")]


def parse_alpha_terms(text: str, A: ColorHomAlgebra):
    doc = _load_json(text)
    return [parse_matrix(rows, A.m, text) for rows in _require(doc, "terms", "term file")]
