"""No float decides an exact comparison.

Exact values (``int``/``Fraction``) compare exactly with each other and
with floats, so ``float(x)`` in a comparison or a sort key can only lose
exactness: two exact values that round to one float compare equal, and
an exact value just inside a bound rounds onto it.  An AST walk over the
package finds every comparison with an operand that names ``float`` and
every ``key=`` argument that names it; only the float-only sites below
may have them, each with the count it has.

No float decides a cyclotomic factor either: a second walk finds every
``float``, ``complex`` and ``cmath`` name, every float or complex
literal and every ``roots`` attribute (``np.roots``) in the exact
kernels of ``polycore``, and there must be none.

Exact or float is decided once per value object, and the code below it
compares in that mode directly.  ``num_eq`` and ``angle_eq`` decide per
value; a third walk finds every use of either name, and only the
mixed-mode sites below may have them, each with the count it has.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectral_stokes"

#: (module, function) -> number of float comparisons there; each site runs
#: on float values only
FLOAT_ONLY = {
    ("polycore", "num_eq"): 1,                   # the float branch of num_eq itself
    ("seifert", "SeifertPair.__post_init__"): 1, # the float determinant of a float Gram matrix
    ("acceptance", "_sample_resolvable"): 1,     # resampling by a float tolerance
}


def _names_float(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(node))


def float_comparisons(tree: ast.AST):
    """The enclosing function (``Class.method`` inside a class) of every
    comparison operand and every ``key=`` argument that names ``float``,
    once per comparison or argument."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare) and any(map(_names_float, [node.left, *node.comparators])):
            out.append(scope)
        if isinstance(node, ast.keyword) and node.arg == "key" and _names_float(node.value):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def package_float_comparisons() -> Counter:
    found = Counter()
    for module in sorted(PACKAGE.glob("*.py")):
        for scope in float_comparisons(ast.parse(module.read_text())):
            found[(module.stem, scope)] += 1
    return found


def test_only_float_only_sites_compare_floats():
    assert dict(package_float_comparisons()) == FLOAT_ONLY


def test_the_walk_finds_float_in_comparisons_and_sort_keys():
    src = ("def f(a, xs):\n"
           "    if float(a) <= 0.5:\n"
           "        return sorted(xs, key=lambda t: float(t[0]))\n"
           "    return a == 1 or sorted(xs, key=abs)\n"
           "class C:\n"
           "    def g(self, b):\n"
           "        return abs(float(b)) < 2 < 3\n")
    assert float_comparisons(ast.parse(src)) == ["f", "f", "C.g"]


#: polycore's exact cyclotomic kernels: integer division, the values at 2 of
#: the screen, the screen itself, and the split
EXACT_KERNELS = ("_divmod_monic", "cyclotomic_polynomial", "_cyclotomic_at_2",
                 "_cyclotomic_screen", "cyclotomic_power", "factor_cyclotomic")


def float_uses(tree: ast.AST):
    """The float names, literals and root finders in a tree, as text."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("float", "complex", "cmath"):
            out.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "roots":
            out.append("roots")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(repr(node.value))
    return out


def test_exact_kernels_use_no_float():
    tree = ast.parse((PACKAGE / "polycore.py").read_text())
    kernels = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in EXACT_KERNELS}
    assert sorted(kernels) == sorted(EXACT_KERNELS)
    assert {name: float_uses(fn) for name, fn in kernels.items()} == dict.fromkeys(kernels, [])


def test_the_walk_finds_floats_in_a_kernel():
    src = ("def screen(p, d):\n"
           "    z = cmath.exp(-2j * math.pi / d)\n"
           "    if abs(p(z)) <= 1e-6 * max(abs(float(c)) for c in p.coeffs):\n"
           "        return np.roots(p.coeffs), complex(z)\n"
           "    return 2 * d, 1 // d\n")
    assert sorted(float_uses(ast.parse(src))) == sorted(
        ["cmath", "2j", "1e-06", "float", "roots", "complex"])


#: (module, function) -> number of uses of num_eq and angle_eq there; each
#: site meets two answers whose modes it cannot know
MIXED_MODE = {
    ("seifert", "IrrType.matches"): 2,                # a type against one of any mode
    ("orbit", "conjecture16_check"): 1,               # tracked spectra against the recipe's
    ("spectra", "Spp.equals"): 1,                     # two spectra of any modes
    ("spectra", "spp_mod2_equal"): 1,
}


def mode_dispatches(tree: ast.AST):
    """The enclosing function (``Class.method`` inside a class, ``f.g``
    inside a function) of every name ``num_eq`` or ``angle_eq`` that is
    read: a call or a test passed on, not an import or a definition."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and node.id in ("num_eq", "angle_eq"):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def package_mode_dispatches() -> Counter:
    found = Counter()
    for module in sorted(PACKAGE.glob("*.py")):
        for scope in mode_dispatches(ast.parse(module.read_text())):
            found[(module.stem, scope)] += 1
    return found


def test_only_mixed_mode_sites_decide_the_mode_per_value():
    assert dict(package_mode_dispatches()) == MIXED_MODE


def test_the_walk_finds_per_value_mode_tests():
    src = ("from .polycore import angle_eq, num_eq\n"
           "def num_eq(a, b):\n"
           "    return a == b\n"
           "def f(xs, ys):\n"
           "    def g(a):\n"
           "        return angle_eq(a, 0)\n"
           "    return multiset_eq(xs, ys, num_eq) and num_eq(xs[0], 1) and g(ys[0])\n"
           "class C:\n"
           "    def h(self, b):\n"
           "        return angle_eq(b, self.lam, 1e-7)\n")
    assert mode_dispatches(ast.parse(src)) == ["f.g", "f", "f", "C.h"]
