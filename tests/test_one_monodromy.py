"""One monodromy helper: ``matrices.monodromy_matrix`` is the only place
the package calls a LAPACK ``linalg.solve``.

Every float monodromy S^{-1} S^t (and G^{-t} G of a Seifert pair) goes
through that helper, so the choice between the exact back substitution
and the float solve is made once.  An AST walk over the package finds
every reference to ``linalg.solve``, as an attribute or an import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectral_stokes"


def linalg_solves(tree: ast.AST) -> int:
    """Number of references to ``linalg.solve`` (``np.linalg.solve``,
    ``scipy.linalg.solve``, ``linalg.solve`` or ``from ...linalg import
    solve``)."""
    found = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "solve":
            v = node.value
            found += (isinstance(v, ast.Attribute) and v.attr == "linalg") or \
                (isinstance(v, ast.Name) and v.id == "linalg")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += sum(a.name == "solve" for a in node.names)
    return found


def test_only_the_monodromy_helper_solves():
    found = {m.stem: linalg_solves(ast.parse(m.read_text()))
             for m in sorted(PACKAGE.glob("*.py"))}
    assert {m: c for m, c in found.items() if c} == {"matrices": 1}


def test_the_walk_finds_every_spelling():
    src = ("import numpy as np\n"
           "import scipy.linalg\n"
           "from numpy import linalg\n"
           "from numpy.linalg import solve, det\n"
           "x = np.linalg.solve(a, b) + scipy.linalg.solve(a, b) + linalg.solve(a, b)\n"
           "y = np.linalg.det(a) + solve_unit_upper(a, b) + mx._solve_rows(a, b)\n")
    assert linalg_solves(ast.parse(src)) == 4
