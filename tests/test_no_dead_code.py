"""The package is what the system runs.  Every top-level definition of the
package, and every method and property of its classes, is reached by the
system: the console-script entry point, the demos or the benchmark,
directly or through other reached definitions; a name only the tests
reach is dead, unless it is declared below for the open item that will
use it.  The microbenchmarks (``benchmarks/``) do not count: they time
kernels the system runs, so a kernel that only a microbenchmark calls
is dead too.  Every defaulted parameter of the package is set
by some call in the package, the tests, the demos or the benchmark.
Every top-level private function and class of the package is referenced
in the package itself, beyond its own definition.  Every import of a
module is used by it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_stokes"
SEARCHED = ("src", "tests", "demos", "perfbench")


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


def searched_trees():
    for d in SEARCHED:
        for path in (ROOT / d).rglob("*.py"):
            yield ast.parse(path.read_text())


#: what runs the package besides the CLI, which the entry point reaches
SYSTEM = ("demos", "perfbench")

#: definitions the system does not reach yet, each kept for the ROADMAP item
#: that will use it; whatever only they reach is kept with them
NOT_YET_REACHED = {
    "chain.stokes_spectral_pairs": "item 2: exact pairs over the chain grid; the README times it",
    "chain.thom_sebastiani": "item 6: Thom-Sebastiani products",
    "chain.qh_ts_spectrum": "item 6: Thom-Sebastiani products",
    "spectra.spp_mod2_equal": "item 7: the size-3 pairs mod 2 against classify3",
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions():
    """(label, name, names it references) of every top-level definition of
    the package and of every method and property of its classes; dunder
    methods belong to their class, which reaches them by being used."""
    out = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text()).body:
            if not isinstance(node, _DEFINITION):
                continue
            label = f"{module.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, _DEFINITION) and not m.name.startswith("__")]
                out += [(f"{label}.{m.name}", m.name, referenced_names(m) - {m.name})
                        for m in methods]
                parts = node.bases + node.decorator_list + [x for x in node.body if x not in methods]
                refs = set().union(*map(referenced_names, parts))
            else:
                refs = referenced_names(node)
            out.append((label, node.name, refs - {node.name}))
    return out


def system_roots():
    """Names the system references outside the package's definitions: the
    entry point, the system's files, and the module-level statements of
    the package that run on import."""
    roots = entry_point_names()
    for d in SYSTEM:
        for path in (ROOT / d).rglob("*.py"):
            roots |= referenced_names(ast.parse(path.read_text()))
    for module in PACKAGE.glob("*.py"):
        for node in ast.parse(module.read_text()).body:
            if not isinstance(node, _DEFINITION + (ast.Import, ast.ImportFrom)):
                roots |= referenced_names(node)
    return roots


def reached(defs, names, labels=()):
    """Labels of the definitions reached from the given names and labels;
    a definition is reached when its name is, and then reaches its own
    references.  Names are matched without their module, so a collision
    can keep a dead definition but never flags a live one."""
    names, live = set(names), set(labels)
    for label, _, refs in defs:
        if label in live:
            names |= refs
    grew = True
    while grew:
        grew = False
        for label, name, refs in defs:
            if label not in live and name in names:
                live.add(label)
                names |= refs
                grew = True
    return live


def test_every_definition_is_reached_by_the_system():
    defs = definitions()
    live = reached(defs, system_roots(), NOT_YET_REACHED)
    assert [label for label, _, _ in defs if label not in live] == []


def test_declared_exceptions_exist_and_the_system_does_not_reach_them():
    defs = definitions()
    defined = {label for label, _, _ in defs}
    live = reached(defs, system_roots())
    assert [label for label in NOT_YET_REACHED if label not in defined or label in live] == []


def test_every_private_helper_is_referenced_in_the_package():
    # a private helper can only be reached from the package, and a
    # reference from inside its own definition (recursion) does not count
    refs = {node: referenced_names(node)
            for module in PACKAGE.glob("*.py") for node in ast.parse(module.read_text()).body}
    unused = [node.name for node in refs
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in names for other, names in refs.items() if other is not node)]
    assert unused == []


def functions(tree: ast.AST, owner=None):
    """(enclosing class name or None, def) for every def in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner, node
            yield from functions(node)
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, node.name)
        else:
            yield from functions(node, owner)


def defaulted_parameters(fn):
    """(position or None for keyword-only, name) of the defaulted parameters."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _callee(call: ast.Call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def _sets(call: ast.Call, position, name, method: bool) -> bool:
    """Whether a call may set the parameter.  Calls are matched by name
    only, so a collision can hide a dead parameter but never flag a live
    one; for methods a positional argument is counted both with and
    without the bound ``self``."""
    if any(isinstance(x, ast.Starred) for x in call.args) \
            or any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args) + method


def test_every_defaulted_parameter_is_set():
    calls: dict = {}
    for tree in searched_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    never_set = []
    for module in sorted(PACKAGE.glob("*.py")):
        for owner, fn in functions(ast.parse(module.read_text())):
            method = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            # ClassName(...) calls reach ClassName.__init__
            names = [fn.name] + ([owner] if fn.name == "__init__" else [])
            for position, name in defaulted_parameters(fn):
                if not any(_sets(c, position, name, method)
                           for callee in names for c in calls.get(callee, ())):
                    qual = f"{owner}.{fn.name}" if owner else fn.name
                    never_set.append(f"{module.stem}.{qual}({name})")
    assert never_set == []


#: imports kept although their module does not use them: another file of
#: the project reads them through the module, as "module.name"
READ_THROUGH_MODULE = {
    # the tracer test checks that tracing rebinds names a module imported
    ("hor", "unit_circle_angles"): ROOT / "perfbench" / "test_perfbench.py",
}


def imported_names(tree: ast.Module):
    """Names bound by the import statements of a module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [a.asname or a.name.split(".")[0] for a in node.names]
    return out


def loaded_names(tree: ast.AST):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used():
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text())
        unused += [f"{module.stem}.{name}" for name in imported_names(tree)
                   if name not in loaded_names(tree) and (module.stem, name) not in READ_THROUGH_MODULE]
    assert unused == []


def test_kept_imports_are_unused_and_read_through_their_module():
    for (stem, name), reader in READ_THROUGH_MODULE.items():
        assert name not in loaded_names(ast.parse((PACKAGE / f"{stem}.py").read_text()))
        assert f"{stem}.{name}" in reader.read_text()
