"""The ε-convention mutant table: one-line changes to ``src/colorhomlie``
that swap the order of a bi-character's arguments (or of a twist product).
ε(b, a) = ε(a, b)^(-1), so the two orders differ only where ε(a, b) ≠ ±1,
which needs a root order m ≥ 3; each entry names the tier-1 test that tells
them apart, or says why no tier-1 input can.

Run from the repository root::

    python tests/mutants.py

Each entry with a test is applied to a temporary copy of ``src/`` and
``tests/``, and only its test runs there; the run exits 1 unless every such
test fails on its mutant.  Tier-1 does not collect this file (it is not a
``test_*.py`` file); ``tests/test_package.py`` checks that every old text
still occurs exactly once in its module, so the table cannot go stale.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

# module: a file of src/colorhomlie; old: its exact text, unique there; new:
# the mutant; test: the tier-1 node id that must fail, or None when the two
# texts agree on every tier-1 input, for the reason given
Mutant = namedtuple("Mutant", "module old new test reason")

# on clock3 and the twisted clock3 the spans' products D_j D_i vanish
# wherever eps(gamma_i, gamma_j) != eps(gamma_j, gamma_i): 48 such pairs in
# each span at commute_with_alpha=False, none in the twisted clock3's span at
# True (clock3's span is the same at both, of dimension 10); the other
# inputs with products have m <= 2 or a trivial grading
_ZERO_WHERE_EPS_DIFFERS = ("equivalent on every tier-1 input: where eps(gamma_i, gamma_j) "
                           "!= eps(gamma_j, gamma_i), the product D_j D_i of span "
                           "elements is zero")

MUTANTS = [
    Mutant("structure_theory.py",
           'e = -A.eps(gamma, A.degree(x)) if name == "-R" else None',
           'e = -A.eps(A.degree(x), gamma) if name == "-R" else None',
           "tests/test_structure_theory.py::"
           "test_every_kind_reverifies_on_the_clock_algebras_at_all_nine_degrees",
           "_term_rows' -eps(gamma, x)"),
    Mutant("structure_theory.py",
           "eps = [A.eps(space.gamma, A.degree(x)) for x in range(A.dim)]",
           "eps = [A.eps(A.degree(x), space.gamma) for x in range(A.dim)]",
           "tests/test_structure_theory.py::"
           "test_every_kind_reverifies_on_the_clock_algebras_at_all_nine_degrees",
           "reverify_space's eps(gamma, x)"),
    Mutant("representations.py",
           "e = A.eps(A.degree(i), A.degree(j))\n"
           "        lhs = _product(_rho_sum(rho,",
           "e = A.eps(A.degree(j), A.degree(i))\n"
           "        lhs = _product(_rho_sum(rho,",
           "tests/test_representations.py::test_the_clock_algebras_act_on_themselves",
           "_leibniz's eps(x, y)"),
    Mutant("hls_bracket.py",
           "e = A.eps(D.grade_d, degrees[i])",
           "e = A.eps(degrees[i], D.grade_d)",
           "tests/test_hls_bracket.py::"
           "test_the_graded_quantum_plane_pins_the_whole_hls_report",
           "check_sigma_derivation's eps(d, x) in CD2"),
    Mutant("representations.py",
           "e = A.eps(A.degree(i), A.degree(j))\n"
           "        lhs = _product(beta,",
           "e = A.eps(A.degree(j), A.degree(i))\n"
           "        lhs = _product(beta,",
           "tests/test_representations.py::"
           "test_the_coadjoint_condition_is_the_leibniz_rule_of_the_raw_dual",
           "check_coadjoint_condition's eps(x, y)"),
    Mutant("morphisms_twists.py",
           "_product(beta, A.alpha_sparse(1))",
           "_product(A.alpha_sparse(1), beta)",
           "tests/test_morphisms_twists.py::"
           "test_a_twist_by_a_beta_that_does_not_commute_with_alpha_keeps_beta_alpha",
           "twist's beta o alpha"),
    Mutant("structure_theory.py",
           "_anticommutator(linalg.sparse(D1), linalg.sparse(D2), eps(gamma1, gamma2))",
           "_anticommutator(linalg.sparse(D1), linalg.sparse(D2), eps(gamma2, gamma1))",
           None, "jordan_product's eps(gamma1, gamma2); " + _ZERO_WHERE_EPS_DIFFERS),
    Mutant("structure_theory.py",
           "_anticommutator(M, N, A.eps(degrees[i], degrees[j]))",
           "_anticommutator(M, N, A.eps(degrees[j], degrees[i]))",
           None, "quasi_centroid_jordan's eps(d_i, d_j); " + _ZERO_WHERE_EPS_DIFFERS),
    Mutant("structure_theory.py",
           "eps = cache(lambda r, p, z: J.eps(r, p + z))",
           "eps = cache(lambda r, p, z: J.eps(p + z, r))",
           None, "check_hom_jordan's eps(d_r, d_p + d_z); " + _ZERO_WHERE_EPS_DIFFERS),
    Mutant("structure_theory.py",
           "e = A.eps(gamma, gp)",
           "e = A.eps(gp, gamma)",
           None, "check_inclusion_lattice's eps(gamma, gamma'); " + _ZERO_WHERE_EPS_DIFFERS),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def module_path(root: str, module: str) -> str:
    return os.path.join(root, "src", "colorhomlie", module)


def killed(mutant: Mutant) -> bool:
    """Apply the mutant to a temporary copy of src/ and tests/ and run its
    test there: True when the test fails (pytest's exit status 1, not a
    collection or usage error)."""
    ignore = shutil.ignore_patterns("__pycache__")
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = module_path(tmp, mutant.module)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count(mutant.old) == 1, mutant.reason
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                               "-p", "no:cacheprovider", mutant.test],
                              cwd=tmp, env=env, capture_output=True, text=True)
        return done.returncode == 1


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        if mutant.test is None:
            print(f"equivalent  {mutant.module}: {mutant.reason}")
            continue
        ok = killed(mutant)
        survived += not ok
        print(f"{'killed' if ok else 'SURVIVED':10}  {mutant.module}: {mutant.reason}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
