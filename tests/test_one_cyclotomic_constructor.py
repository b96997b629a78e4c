"""One constructor for exact family members: ``hor.cyclotomic_member``
builds a member from its cyclotomic multiplicities and keeps their
angles, so nothing factors the polynomial it has just expanded.

An AST walk over the package and the demos finds every call of
``poly_to_matrix`` on a ``poly_from_cyclotomic_mults(...)`` argument.
The constructor's own call, which skips the membership check
(``check=False``), is the only one allowed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = sorted((ROOT / "src" / "spectral_stokes").glob("*.py")) + \
    sorted((ROOT / "demos").glob("*.py"))


def _name(func: ast.expr) -> str:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def cyclotomic_rebuilds(tree: ast.AST) -> list:
    """(innermost enclosing function, whether ``check=False`` is passed) of
    every ``poly_to_matrix`` call whose polynomial argument is a
    ``poly_from_cyclotomic_mults`` call (``hor.poly_to_matrix(...)``,
    ``poly_to_matrix(...)``, the polynomial positional or ``p=``)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _name(child.func) == "poly_to_matrix":
                args = child.args[:1] + [kw.value for kw in child.keywords if kw.arg == "p"]
                if any(isinstance(a, ast.Call) and _name(a.func) == "poly_from_cyclotomic_mults"
                       for a in args):
                    found.append((where, any(
                        kw.arg == "check" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False for kw in child.keywords)))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(tree, "<module>")
    return found


def test_only_the_constructor_builds_from_multiplicities():
    found = {path.stem: cyclotomic_rebuilds(ast.parse(path.read_text()))
             for path in SEARCHED}
    assert {m: f for m, f in found.items() if f} == {"hor": [("cyclotomic_member", True)]}


def test_the_walk_finds_every_spelling():
    src = ("from spectral_stokes import hor, polycore as pc\n"
           "M = hor.poly_to_matrix(poly_from_cyclotomic_mults(m), k)\n"
           "def f(m, k):\n"
           "    return poly_to_matrix(pc.poly_from_cyclotomic_mults(m), k, check=False)\n"
           "def g(m, k):\n"
           "    return [hor.poly_to_matrix(p=pc.poly_from_cyclotomic_mults(m), k=k)]\n"
           "N = hor.poly_to_matrix(p, k) or hor.cyclotomic_member(m, k)\n")
    found = cyclotomic_rebuilds(ast.parse(src))
    assert sorted(found) == [("<module>", False), ("f", True), ("g", False)]
