"""The library runs on numpy alone: no path of it loads scipy.

The float tracker's assignment step (``polycore._min_cost_assignment``)
and the signature law's restricted form (``hor.restricted_form_eigenvalues``)
run on numpy, and the ``selftest`` report reads the scipy version from
the installed metadata.  scipy is a test dependency only: the tests
compare against it.  The first test runs exact work, the signature law
on an exact and a float member and the float tracker in a fresh
interpreter, and sees no scipy module loaded after any of them; an AST
walk keeps scipy imports out of the package, function bodies included.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_stokes"

SCRIPT = """
import contextlib, importlib.metadata, io, json, sys
from fractions import Fraction
import numpy as np
from spectral_stokes import chain, cli, hor, lowdim, matrices as mx, orbit, seifert
from spectral_stokes.polycore import RealPoly

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after = {"import": scipy_loaded()}
with open("tests/golden/m3.json") as fh:
    S = mx.to_matrix([[Fraction(x) for x in row] for row in json.load(fh)["entries"]])
types = seifert.classify(seifert.SeifertPair.from_triangular(S))
assert seifert.type_label_multiset(types)
assert lowdim.classify3((1, 1, 1)).stratum == lowdim.Stratum3.INTERIOR_POS
assert chain.verify_spectrum_shift((3, 2, 2))
assert hor.recipe_spectrum(hor.gamma_base(4, 1))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--mode", "exact", "seifert", "classify",
                     "--matrix", "tests/golden/m3.json"]) == 0
assert importlib.metadata.version("scipy")
after["exact"] = scipy_loaded()

hor.is_signature(hor.poly_to_matrix(RealPoly([1, 1, 1]), 1))
hor.is_signature(hor.scal_to_matrix(hor.scal_from_free(5, 1, [0.1, 0.3])))
after["signature"] = scipy_loaded()
orbit.generic_path_track([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])], steps=8)
after["track"] = scipy_loaded()
print(json.dumps(after))
"""


def test_exact_paths_run_without_scipy():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          cwd=str(ROOT), env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert after == {"import": [], "exact": [], "signature": [], "track": []}


def scipy_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports of scipy (or a scipy submodule),
    wherever they stand: at module level or in a function body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_scipy():
    found = {m.stem: scipy_imports(ast.parse(m.read_text()))
             for m in sorted(PACKAGE.glob("*.py"))}
    assert {m: lines for m, lines in found.items() if lines} == {}


def test_the_walk_finds_every_spelling():
    src = ("import numpy as np\n"
           "import scipy\n"
           "import scipy.linalg as sl\n"
           "from scipy import optimize\n"
           "from scipy.optimize import linear_sum_assignment\n"
           "import scipyx, numpy.linalg\n"
           "from .scipy_like import x\n"
           "if True:\n"
           "    import scipy.special\n"
           "class A:\n"
           "    import scipy.sparse\n"
           "    def f(self):\n"
           "        import scipy.linalg\n"
           "def g():\n"
           "    from scipy import optimize\n")
    assert scipy_imports(ast.parse(src)) == [2, 3, 4, 5, 9, 11, 13, 15]
