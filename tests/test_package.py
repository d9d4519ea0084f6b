"""The package surface: public names, lazy loading, no dataclasses.

The import checks run in fresh interpreters, since the test process has
long since imported every module.
"""
import ast
import json
import os
import subprocess
import sys

import pytest

import colorhomlie

SRC = os.path.dirname(os.path.dirname(os.path.abspath(colorhomlie.__file__)))
PACKAGE_DIR = os.path.join(SRC, "colorhomlie")
ALG = os.path.join(PACKAGE_DIR, "data", "sl2c_z2z2.alg")
QWITT = os.path.join(PACKAGE_DIR, "data", "qwitt_trunc_q2.alg")

# every name the package exported when it imported each module eagerly,
# less the removed LinearMap, with solve_space and reverify_space for the
# five per-kind space builders
PUBLIC_NAMES = """
AxiomReport BiCharacter BracketTable BudgetExceededError CheckResult Cochain
CochainSpace ColorHomAlgebra CommutativeColorAlgebra CycloScalar
FiniteAbelianGroup FormalAutomorphism GradedBasis GroupElement
HomAssociativeColorAlgebra HomogeneousMapSpace Representation SigmaDerivation
StructureConstants TruncatedBracket adjoint alpha_s_adjoint annihilator
check_ann_invariance check_coadjoint_condition
check_color_hom_lie check_deformation check_equivalence check_hls_jacobi
check_hom_jordan check_inclusion_lattice check_module check_representation
check_sigma_derivation cochain_basis cohomology_group
commutator_algebra composition_deformation cyclo_reduce delta_matrix
derived_algebra dual_representation enumerate_morphisms
first_order_class format_scalar hls_bracket
jordan_product parse_algebra_document parse_algebra_file parse_scalar
quasi_centroid_jordan reorder_sign reverify_space
serialize_algebra solve_space transport_bracket twist verify_morphism
""".split()


def package_trees():
    """(file name, parsed module) for every module of the package."""
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


HLS_RUN = f"""
import contextlib, io
import colorhomlie.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert colorhomlie.cli.run_command([
        "hls", "--algebra", {QWITT!r},
        "--sigma", '[["1","0","0"],["0","2","0"],["0","0","4"]]',
        "--delta-map", '[["0","1","0"],["0","0","3"],["0","0","0"]]',
        "--delta-scalar", "2"]) == 1
"""


@pytest.mark.parametrize("before", ["", "import colorhomlie.cli", HLS_RUN],
                         ids=["fresh", "after-cli-import", "after-hls-run"])
def test_public_names_resolve_to_their_defining_objects(before):
    """``from colorhomlie import X`` gives the object its module defines,
    also once the CLI has imported ``colorhomlie.hls_bracket``, which must
    not rebind the package's ``hls_bracket`` from the function to the module."""
    script = before + f"""
import json, sys, types
import colorhomlie
wrong = []
for name in {PUBLIC_NAMES!r}:
    namespace = {{}}
    exec(f"from colorhomlie import {{name}} as obj", namespace)
    obj = namespace["obj"]
    home = sys.modules.get(getattr(obj, "__module__", None) or "")
    if home is None or home is colorhomlie or getattr(home, name, None) is not obj:
        wrong.append(name)
if not isinstance(colorhomlie.hls_bracket, types.FunctionType):
    wrong.append("colorhomlie.hls_bracket")
print(json.dumps(wrong))
"""
    assert run_fresh(script) == []
    assert sorted(colorhomlie.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(colorhomlie))


def test_import_loads_no_submodule_and_validate_loads_no_hls_or_deformations():
    script = f"""
import contextlib, io, json, sys
import colorhomlie
bare = sorted(n for n in sys.modules if n.startswith("colorhomlie."))
import colorhomlie.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = colorhomlie.cli.run_command(["validate", {ALG!r}])
print(json.dumps({{"bare": bare, "code": code,
                  "loaded": sorted(n for n in sys.modules if n.startswith("colorhomlie."))}}))
"""
    out = run_fresh(script)
    assert out["bare"] == [] and out["code"] == 0
    assert "colorhomlie.algebra_core" in out["loaded"]
    for lazy in ("deformations", "hls_bracket", "cohomology", "structure_theory"):
        assert f"colorhomlie.{lazy}" not in out["loaded"], lazy


def test_submodules_stay_reachable_as_package_attributes():
    out = run_fresh("""
import json, colorhomlie
print(json.dumps([colorhomlie.cohomology.__name__, colorhomlie.linalg.__name__,
                  callable(colorhomlie.hls_bracket)]))
""")
    assert out == ["colorhomlie.cohomology", "colorhomlie.linalg", True]


def test_no_module_imports_dataclasses():
    """Decorating a class costs more than compiling it; the package writes
    plain slotted classes."""
    offenders = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name an import binds is read somewhere in its module, so a
    change that removes the last use of a name also removes its import."""
    unused = []
    for name, tree in package_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}:{node.lineno}:{bound}" for alias in node.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_every_mutant_of_the_table_changes_one_text_and_names_its_test():
    """Each entry of tests/mutants.py changes a text that occurs exactly once
    in its module, and names a test function its test file defines, or is
    marked equivalent (no test) with a reason."""
    from mutants import MUTANTS, ROOT
    for mutant in MUTANTS:
        with open(os.path.join(PACKAGE_DIR, mutant.module), encoding="utf-8") as fh:
            assert fh.read().count(mutant.old) == 1, mutant.reason
        assert mutant.new != mutant.old and mutant.reason
        if mutant.test is not None:
            path, function = mutant.test.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert f"\ndef {function}(" in fh.read(), mutant.test


# Package functions that no package code calls, each kept for a reason.
UNCALLED_ALLOWED = {
    "check_commutative_associative": "the HLS hypothesis check that `colorhom hls` is "
                                     "to run (ROADMAP item 6); running it changes hls stdout",
    "reverify": "the documented opt-in re-check of a cohomology result (README)",
    "pairs": "the dense view of a bracket table that the tests and the benchmark's "
             "workloads (rescale, direct_sum) read",
    "mat_mul": "the dense product that the benchmark's workloads (rescale) and the tests call",
    "coboundary_of_coords": "the dense face of _coboundary that the benchmark's workloads "
                            "and the tests call",
    "inverse_series": "the dense face of a formal automorphism's inverse series; the "
                      "package reads the sparse series it is built from",
}


def test_every_package_function_is_called_by_the_package_or_exported():
    """Code that only the tests call belongs in tests/conftest.py: every
    non-dunder function and method is referenced by package code, is a name
    in ``_EXPORTS``, or is on the allowlist above.  A function defined in a
    class body is reached only as ``x.name``, so only an attribute access
    references it; a bare name (a local variable, ``functools.reduce``)
    references only functions outside classes."""
    exported = {name for names in colorhomlie._EXPORTS.values() for name in names.split()}
    defined, names, attributes = [], set(), set()
    for name, tree in package_trees():
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((name, node.lineno, node.name, id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    uncalled = {fn: f"{module}:{line}" for module, line, fn, method in defined
                if not (fn.startswith("__") and fn.endswith("__"))
                and fn not in attributes and (method or fn not in names)
                and fn not in exported}
    assert sorted(set(uncalled) - set(UNCALLED_ALLOWED)) == []
    assert sorted(UNCALLED_ALLOWED) == sorted(uncalled)  # no stale allowlist entry


# Every call of linalg.dense or linalg.sparse in the package, by module and
# function, with the edge it serves.  Each operator is stored once, sparse, by
# the object that owns it; a matrix changes form only where it enters (a
# constructor, or an entry point that takes a caller's matrix as a
# constructor does) or where a file, a report, a dense view or a frozen
# benchmark face reads it.
FORM_EDGES = {
    # constructors: either form in, one sparse store
    "algebra_core.ColorHomAlgebra.__init__": "constructor",
    "algebra_core.HomAssociativeColorAlgebra.__init__": "constructor",
    "representations.Representation.__init__": "constructor",
    "hls_bracket.SigmaDerivation.__init__": "constructor",
    "structure_theory.HomogeneousMapSpace.__init__": "constructor",
    "structure_theory.ProductAlgebraData.__init__": "constructor",
    "deformations.TruncatedBracket.__init__": "constructor",
    "deformations.FormalAutomorphism.__init__": "constructor",
    "morphisms_twists.twist": "entry point: beta dense or sparse (the benchmark passes it dense)",
    "deformations.composition_deformation": "entry point: the caller's twist series",
    # read-only dense views, each a fresh copy of the store
    "algebra_core.ColorHomAlgebra.alpha": "dense view",
    "algebra_core.HomAssociativeColorAlgebra.alpha": "dense view",
    "representations.Representation.rho": "dense view",
    "representations.Representation.beta": "dense view",
    "hls_bracket.SigmaDerivation.sigma": "dense view",
    "hls_bracket.SigmaDerivation.delta_map": "dense view",
    "structure_theory.HomogeneousMapSpace.basis": "dense view",
    "structure_theory.ProductAlgebraData.matrices": "dense view",
    "structure_theory.ProductAlgebraData.alpha_action": "dense view",
    "cohomology.CohomologyResult.representatives": "dense view; the benchmark's tests set it",
    # dense faces of sparse kernels, for callers that hold dense lists
    "algebra_core.StructureConstants.of_basis": "dense face",
    "algebra_core.StructureConstants.bilinear": "dense face",
    "structure_theory.jordan_product": "dense face",
    "deformations.FormalAutomorphism.inverse_series": "dense face",
    "cohomology.delta_matrix": "dense face",
    "linalg.mat_mul": "dense face the benchmark's workloads call",
    "cohomology.coboundary_of_coords": "dense face of _coboundary the benchmark's workloads call",
    # reports
    "algebra_core.cyclic_failures": "report: residual strings",
    "algebra_core.ColorHomAlgebra.check_multiplicative": "report: failure strings",
    "hls_bracket._strings": "report: failure strings",
    "cli.cmd_twists": "report: each enumerated matrix, twisted and tested for rank",
}


def form_conversions(name, tree):
    """module.function (a method as Class.name, a nested function as the
    function around it) of each linalg.dense/linalg.sparse call in a module."""
    module, found = name[:-3], set()

    def visit(node, path, in_function):
        if isinstance(node, ast.ClassDef):
            for item in node.body:  # a class-level property = ... names its attribute
                target = (item.targets[0].id if isinstance(item, ast.Assign)
                          and isinstance(item.targets[0], ast.Name) else None)
                visit(item.value if target else item,
                      path + [node.name] + ([target] if target else []), bool(target))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_function:
            path, in_function = path + [node.name], True
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "linalg" and f.attr in ("dense", "sparse")) or \
                    (module == "linalg" and isinstance(f, ast.Name)
                     and f.id in ("dense", "sparse")):
                found.add(".".join([module] + path))
        for child in ast.iter_child_nodes(node):
            visit(child, path, in_function)

    visit(tree, [], False)
    return found


def test_operators_change_form_only_at_the_allowed_edges():
    """A second, dense copy of an operator cannot creep back in: a new
    linalg.dense or linalg.sparse call outside FORM_EDGES fails here with
    its module and function, and an edge that lost its last call does too."""
    found = set().union(*(form_conversions(name, tree) for name, tree in package_trees()))
    assert sorted(found - set(FORM_EDGES)) == []
    assert sorted(set(FORM_EDGES) - found) == []
