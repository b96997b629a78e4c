"""In-memory span tracer wrapped around the library's public functions.

The tracer wraps every public function (and every public method of a public
class) defined in the layer modules, and rebinds the wrapper in every
namespace of the package that holds the original under any name.  Modules
such as ``hor`` import polycore functions by name, so wrapping only the
defining module would miss those calls.

A wrapped call records a span (function, start, end, parent) in flat lists.
A few hot leaves, called up to 10^5 times in one pass, are only
counted; their time stays in the caller's self time.  Self time of a span
is its duration minus the durations of its direct children, which nest
because the benchmark is single-threaded.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

PACKAGE = "spectral_stokes"
LAYERS = ("polycore", "matrices", "seifert", "hor", "chain", "spectra", "orbit", "lowdim")

#: leaves counted, not spanned: each takes about a microsecond and is
#: called up to 10^5 times in one pass of some workload
HOT_LEAVES = frozenset({
    "polycore.is_exact", "polycore.mod1", "polycore.totient", "polycore.circle_dist",
    "polycore.point_to_angle", "polycore.angle_to_point", "matrices.is_exact_matrix",
    "polycore.RealPoly.degree", "polycore.RealPoly.is_exact", "polycore.RealPoly.is_integer",
    "polycore.RealPoly.is_monic",
})

NO_PARENT = -1


def _unit_circle_angles_tag(args, kwargs, result):
    """'exact_rational' or 'exact_numeric' for exact input, else None."""
    p = args[0] if args else kwargs["p"]
    # plain isinstance checks: the wrapped library predicates would count these calls
    if not all(isinstance(c, (int, Fraction)) for c in p.coeffs):
        return None
    rational = all(isinstance(b, (int, Fraction)) for b, _ in result)
    return "exact_rational" if rational else "exact_numeric"


#: functions whose results are sorted into outcome tags
OBSERVERS = {"polycore.unit_circle_angles": _unit_circle_angles_tag}


class Tracer:
    """Wraps the layer modules while installed; spans accumulate until
    :meth:`collect` folds them into per-function totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._wrappers: dict[int, tuple[object, object]] = {}   # id -> (original, wrapper)
        self._methods: list[tuple[type, str, object, object]] = []
        self._patched: list[tuple[dict, str, object]] = []
        self.span_fn: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [NO_PARENT]
        self.counts: list[int] = []
        self.errors: Counter = Counter()
        self.tags: Counter = Counter()
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            self._collect(layer, module)

    # -- wrapping ------------------------------------------------------------

    def _fid(self, name: str) -> int:
        fid = len(self.names)
        self.names.append(name)
        self._ids[name] = fid
        self.counts.append(0)
        return fid

    def _collect(self, layer, module):
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                self._collect_methods(layer, obj)
            elif callable(obj):
                name = f"{layer}.{attr}"
                self._wrappers[id(obj)] = (obj, self._wrap(self._fid(name), obj, name in HOT_LEAVES,
                                                           OBSERVERS.get(name)))

    def _collect_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, property):
                if raw.fget is None:
                    continue
                getter = self._wrap(self._fid(name), raw.fget, name in HOT_LEAVES, None)
                new = property(getter, raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(self._fid(name), raw.__func__, name in HOT_LEAVES, None))
            elif inspect.isfunction(raw):
                new = self._wrap(self._fid(name), raw, name in HOT_LEAVES, None)
            else:
                continue
            self._methods.append((cls, attr, raw, new))

    def _wrap(self, fid, fn, count_only, observe):
        counts = self.counts
        if count_only:
            def counted(*args, **kwargs):
                counts[fid] += 1
                return fn(*args, **kwargs)
            return counted

        fns, parents, starts, ends = self.span_fn, self.span_parent, self.span_start, self.span_end
        stack, errors, tags = self._stack, self.errors, self.tags

        def spanned(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[fid, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                tag = observe(args, kwargs, result)
                if tag is not None:
                    tags[fid, tag] += 1
            return result
        return spanned

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call, for the
        benchmark's own code (an item, a pass end)."""
        fid = self._ids.get(name)
        if fid is None:
            fid = self._fid(name)
        return self._wrap(fid, fn, False, None)

    def install(self):
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patched.append((ns, attr, obj))
                    ns[attr] = wrapper
        for cls, attr, _, new in self._methods:
            setattr(cls, attr, new)

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            ns[attr] = obj
        self._patched.clear()
        for cls, attr, raw, _ in self._methods:
            setattr(cls, attr, raw)

    # -- results ---------------------------------------------------------------

    def collect(self) -> dict:
        """Fold the recorded spans into {name: {calls, self_s, total_s}},
        add counted leaves, and clear the span buffers."""
        n = len(self.span_fn)
        child = [0.0] * n
        fns, parents, starts, ends = self.span_fn, self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p != NO_PARENT:
                child[p] += ends[i] - starts[i]
        out: dict = {}
        for i in range(n):
            row = out.setdefault(self.names[fns[i]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["total_s"] += dur
        for fid, c in enumerate(self.counts):
            if c:
                out.setdefault(self.names[fid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                out[self.names[fid]]["calls"] += c
                self.counts[fid] = 0
        for (fid, exc), c in self.errors.items():
            out[self.names[fid]].setdefault("raised", Counter())[exc] += c
        for (fid, tag), c in self.tags.items():
            out[self.names[fid]].setdefault("tags", Counter())[tag] += c
        for buf in (fns, parents, starts, ends):
            buf.clear()
        self.errors.clear()
        self.tags.clear()
        return out

