"""Spans and counters around the calls into each ``algch`` module.

Everything here wraps the program from outside: a wrapper replaces a
function in every ``algch`` module that holds it (``cli``, ``charclasses``
and ``pullback`` import ``cs_cochain``, ``h_dual`` and ``adjoint_setup``
by name), and a method on its class.  ``Patches.restore`` puts the
originals back.

Two instruments share the patching:

* ``SpanTracer`` records (name, start, end, parent, job) for each call.
  Spans stay in a list and are written once, at the end.
* ``Counters`` records counts only, no clock reads: Scalar arithmetic,
  wedge operand pairs, the simplex degree of fibre-integrated components
  and the cells of eliminated matrices.  Wrapping millions of Scalar
  calls would swamp the spans, so the two never run together.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "cli",
    "fileio",
    "algebroid",
    "linalg",
    "scalars",
    "connections",
    "charclasses",
    "transgression",
    "pullback",
)

# Called once per entry or index pair; their time stays in the caller's
# self time, which for all but merge_sign is in the same module.
UNTRACED = {"algebroid.merge_sign", "fileio.scalar_from_json", "fileio.scalar_to_json"}

# Private functions and methods traced in addition to the public
# functions: (module, owner class or None, attribute, span name).
EXTRA = (
    ("transgression", None, "_affine_curvature", "transgression.affine_curvature"),
    ("transgression", "AffineForm", "wedge", "transgression.wedge"),
    ("transgression", "AffineForm", "power", "transgression.power"),
    ("linalg", "Matrix", "__mul__", "linalg.Matrix.mul"),
    ("connections", "HermitianMetric", "__init__", "connections.HermitianMetric.init"),
)

# The public elimination routines, reported together as linalg.elim.
ELIM = ("rank", "solve", "nullspace", "inverse", "det")

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


def _module(name):
    return sys.modules[f"algch.{name}"]


def _loaded():
    return [m for n, m in sys.modules.items() if n == "algch" or n.startswith("algch.")]


class Patches:
    """Replaced attributes, so that every one can be put back."""

    def __init__(self):
        self._undo = []

    def function(self, module: str, attr: str, make):
        """Wrap module.attr and rebind it wherever an algch module or the
        cli command table holds the original."""
        original = getattr(_module(module), attr)
        wrapped = make(original)
        for mod in _loaded():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
        commands = _module("cli").COMMANDS
        for key, (fn, arity) in list(commands.items()):
            if fn is original:
                self._undo.append((commands, key, (fn, arity), True))
                commands[key] = (wrapped, arity)

    def method(self, module: str, cls: str, attr: str, make):
        owner = getattr(_module(module), cls)
        self._set(owner, attr, make(owner.__dict__[attr]))

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr), False))
        setattr(target, attr, value)

    def restore(self):
        for target, attr, value, is_item in reversed(self._undo):
            if is_item:
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._undo.clear()


def traced_functions():
    """(module, attr, span name) for every public function of MODULES."""
    out = []
    for name in MODULES:
        mod = _module(name)
        for attr, value in vars(mod).items():
            span = f"{name}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != mod.__name__
                or span in UNTRACED
            ):
                continue
            out.append((name, attr, span))
    return out


class SpanTracer:
    """Span per call of every traced function; install, run, restore."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job)
        self.job = None
        self._stack = []
        self._patches = Patches()

    def _make(self, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, self.job)

            return traced

        return make

    def install(self):
        for module, attr, span in traced_functions():
            self._patches.function(module, attr, self._make(span))
        for module, cls, attr, span in EXTRA:
            if cls is None:
                self._patches.function(module, attr, self._make(span))
            else:
                self._patches.method(module, cls, attr, self._make(span))

    def restore(self):
        self._patches.restore()


class Counters:
    """Exact counts from one pass; no clock is read."""

    def __init__(self):
        self.scalar_ops = 0
        self.scalar_real = 0
        self.wedge_pairs = 0
        self.wedge_kept = 0
        self.fibre_comps = 0
        self.fibre_top = 0
        self.elim_cells = 0
        self._patches = Patches()

    def _scalar(self, fn):
        counters = self

        def counted(x, other):
            counters.scalar_ops += 1
            if x.im == 0 and getattr(other, "im", 0) == 0:
                counters.scalar_real += 1
            return fn(x, other)

        return counted

    def _wedge(self, fn):
        counters = self

        def counted(x, other):
            counters.wedge_pairs += len(x.comps) * len(other.comps)
            for i1, j1 in x.comps:
                for i2, j2 in other.comps:
                    if set(i1).isdisjoint(i2) and set(j1).isdisjoint(j2):
                        counters.wedge_kept += 1
            return fn(x, other)

        return counted

    def _fibre(self, fn):
        counters = self

        def counted(omega, p):
            top = tuple(range(p))
            counters.fibre_comps += len(omega.comps)
            counters.fibre_top += sum(1 for _, j in omega.comps if j == top)
            return fn(omega, p)

        return counted

    def _elim(self, fn):
        counters = self

        def counted(m, *args):
            counters.elim_cells += m.nrows * m.ncols
            return fn(m, *args)

        return counted

    def install(self):
        for attr in SCALAR_OPS:
            self._patches.method("scalars", "Scalar", attr, self._scalar)
        self._patches.method("transgression", "AffineForm", "wedge", self._wedge)
        self._patches.function("transgression", "fibre_integrate", self._fibre)
        for attr in ELIM:
            self._patches.function("linalg", attr, self._elim)

    def restore(self):
        self._patches.restore()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts: dict, overhead_frac: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from the spans of one
    pass and the Counters fields (``counts``) of another pass over the
    same jobs."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = {}, {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[idx]

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    elim = [f"linalg.{n}" for n in ELIM]
    out = {}
    for name in (
        "transgression.wedge",
        "transgression.cs_cochain",
        "linalg.Matrix.mul",
        "algebroid.validate_algebroid",
        "algebroid.ce_differential",
        "algebroid.coboundary_witness",
        "charclasses.adjoint_setup",
        "connections.h_dual",
        "connections.HermitianMetric.init",
        "pullback.pullback_algebroid",
        "scalars.simplex_integrate",
    ):
        out[f"{name}.calls"] = (total(calls, name), "count")
        out[f"{name}.self_s"] = (total(self_s, name), "s")
    for name in (
        "transgression.affine_curvature",
        "transgression.fibre_integrate",
        "algebroid.betti_number",
        "pullback.submersion_recipe",
        "pullback.morita_check",
    ):
        out[f"{name}.self_s"] = (total(self_s, name), "s")
    out["transgression.wedge.pairs"] = (counts["wedge_pairs"], "count")
    out["transgression.wedge.kept_frac"] = (
        _ratio(counts["wedge_kept"], counts["wedge_pairs"]), "ratio")
    out["transgression.power.top_frac"] = (
        _ratio(counts["fibre_top"], counts["fibre_comps"]), "ratio")
    out["linalg.elim.calls"] = (total(calls, *elim), "count")
    out["linalg.elim.self_s"] = (total(self_s, *elim), "s")
    out["linalg.elim.cells"] = (counts["elim_cells"], "count")
    out["scalars.ops"] = (counts["scalar_ops"], "count")
    out["scalars.real_frac"] = (_ratio(counts["scalar_real"], counts["scalar_ops"]), "ratio")
    for module in MODULES:
        if module == "scalars":
            continue
        names = [n for n in self_s if n.split(".", 1)[0] == module]
        out[f"{module}.self_s"] = (total(self_s, *names), "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
