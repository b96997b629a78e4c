"""Every top-level public function and class of the package is used:
called, imported or otherwise referenced by name in the package, the
tests, the demos or the benchmark, beyond its own definition, or named
as a console-script entry point."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_stokes"
SEARCHED = ("src", "tests", "demos", "perfbench")


def public_names(tree: ast.Module):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(tree: ast.AST):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def entry_point_names():
    """Functions named by ``"package.module:function"`` in pyproject.toml."""
    return set(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))


def test_every_public_name_is_referenced():
    used = entry_point_names()
    for d in SEARCHED:
        for path in (ROOT / d).rglob("*.py"):
            used |= referenced_names(ast.parse(path.read_text()))
    unused = [f"{module.stem}.{name}"
              for module in sorted(PACKAGE.glob("*.py"))
              for name in public_names(ast.parse(module.read_text()))
              if name not in used]
    assert unused == []
