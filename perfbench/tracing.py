"""Per-layer tracing of superq from outside the package.

The layers are superq's modules.  install() replaces every public function
of a layer module, wherever a superq module holds a reference to it (so
re-imported names such as repn.little_jacobi, repn.coproduct, dual.antipode
and spheres.coproduct are timed too), and the public methods of the
classes defined in a layer module, on the class.  Each wrapper times one
span on the clock the untraced ops are timed with; a span's
self time is its duration minus the durations of the wrapped calls made
inside it.  Private helpers and private classes are
not wrapped, so their time counts for the public function or method that
called them.

Spans are folded into per-function totals as they end; the per-op spans
(start, end and each layer's self time inside the op) stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys

from speed import clock

LAYERS = ("scalars", "algebra", "tensor", "hopf", "qfun", "dual", "linalg",
          "repn", "spheres", "parser", "cli")

# Hot inner-loop helper classes, called per coefficient or per monomial
# pair from inside already-wrapped methods; wrapping them would multiply
# the tracing cost without moving time between layers.
SKIP_CLASSES = {"GaussRat", "AlgSlot", "PlaneSlot"}
SKIP_METHODS = {"__init__", "__new__", "__hash__", "__bool__", "__repr__",
                "__len__", "__iter__", "__contains__", "__post_init__",
                "__getattr__", "__setattr__", "is_zero"}

# Scalar methods that scalars.calls counts.
SCALAR_OPS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
              "__pow__", "inv", "__eq__"}
MUL_FUNCS = {"Element.__mul__", "multiply"}
LINALG = LAYERS.index("linalg")


class Tracer:
    """Installs the wrappers and keeps the totals of one traced run."""

    def __init__(self):
        # per wrapped function: [calls, self seconds, extra count, layer]
        self.stats = {}
        self.op_spans = []
        self._undo = []
        self._stack = [0.0]      # child time of each open span
        self._layers = [-1]      # layer of each open span
        self._op_start = 0.0
        self._op_base = None

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"superq.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SKIP_CLASSES
                        and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer)
        holders = [sys.modules["superq"]] + list(modules.values())
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                # a generator's work runs in its consumer, so it is not wrapped
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("superq.") or home not in LAYERS:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrapper(obj, home, obj.__name__)
                self._set(holder, name, wrapped[obj])

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name in SKIP_METHODS or (name.startswith("_") and not name.endswith("__")):
                continue
            key = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrapper(attr.__func__, layer, key)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrapper(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrapper(attr, layer, key))

    def _wrapper(self, fn, layer, key):
        lid = LAYERS.index(layer)
        rec = self.stats.setdefault(f"{layer}:{key}", [0, 0.0, 0, lid])
        stack, layers, perf = self._stack, self._layers, clock

        count_rows = lid == LINALG      # rows passed into linalg from outside
        count_terms = key in MUL_FUNCS  # terms in the product

        def wrapper(*args, **kwargs):
            if count_rows and layers[-1] != LINALG and args:
                rec[2] += len(args[0])
            stack.append(0.0)
            layers.append(lid)
            out = None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = perf() - t0
                layers.pop()
                rec[0] += 1
                rec[1] += dt - stack.pop()
                stack[-1] += dt
                if count_terms:
                    rec[2] += len(getattr(out, "terms", ()))
        return functools.wraps(fn)(wrapper)

    def exclude(self, seconds):
        """Keep seconds spent outside superq (a speed probe) out of the self
        time of the innermost open span."""
        self._stack[-1] += seconds

    # -- per-op spans -----------------------------------------------------

    def _layer_self(self):
        out = [0.0] * len(LAYERS)
        for _calls, self_s, _extra, lid in self.stats.values():
            out[lid] += self_s
        return out

    def begin_op(self):
        self._op_base = self._layer_self()
        self._op_start = clock()

    def end_op(self, index):
        end = clock()
        now = self._layer_self()
        self.op_spans.append({
            "op": index, "start": self._op_start, "end": end,
            "self_s": {layer: now[k] - self._op_base[k]
                       for k, layer in enumerate(LAYERS) if now[k] != self._op_base[k]},
        })

    # -- results ----------------------------------------------------------

    def _sum(self, layer, field, names=None):
        total = 0
        for key, rec in self.stats.items():
            home, _, name = key.partition(":")
            if home == layer and (names is None or name in names):
                total += rec[field]
        return total

    def layer_metrics(self):
        """The per-layer metrics of this run, by metric name."""
        scalar_ops = {f"Scalar.{m}" for m in SCALAR_OPS}
        scalar_calls = self._sum("scalars", 0, scalar_ops)
        return {
            "scalars.calls": scalar_calls,
            "scalars.self_s": self._sum("scalars", 1),
            "scalars.us_per_call": (1e6 * self._sum("scalars", 1, scalar_ops) / scalar_calls
                                    if scalar_calls else 0.0),
            "algebra.mul_calls": self._sum("algebra", 0, MUL_FUNCS),
            "algebra.terms_out": self._sum("algebra", 2, MUL_FUNCS),
            "algebra.self_s": self._sum("algebra", 1),
            "tensor.calls": self._sum("tensor", 0),
            "tensor.self_s": self._sum("tensor", 1),
            "hopf.coproduct_calls": self._sum("hopf", 0, {"coproduct"}),
            "hopf.self_s": self._sum("hopf", 1),
            "qfun.jacobi_calls": self._sum("qfun", 0, {"little_jacobi"}),
            "qfun.self_s": self._sum("qfun", 1),
            "dual.eval_calls": self._sum("dual", 0, {"eval_functional"}),
            "dual.self_s": self._sum("dual", 1),
            "linalg.calls": self._sum("linalg", 0),
            "linalg.rows_in": self._sum("linalg", 2),
            "linalg.self_s": self._sum("linalg", 1),
            "repn.closed_form_calls": self._sum("repn", 0, {"closed_form"}),
            "repn.haar_calls": self._sum("repn", 0, {"haar", "haar_via_corep_expansion"}),
            "repn.self_s": self._sum("repn", 1),
            "spheres.self_s": self._sum("spheres", 1),
            "parser.calls": self._sum("parser", 0),
            "parser.self_s": self._sum("parser", 1),
            "cli.calls": self._sum("cli", 0),
            "cli.self_s": self._sum("cli", 1),
        }

    def functions(self):
        """Per-function totals, busiest first."""
        rows = [{"function": key, "calls": rec[0], "self_s": rec[1]}
                for key, rec in self.stats.items() if rec[0]]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
