"""Outside-in span tracing of the nreflect layers.

``Tracer.install()`` replaces the public functions and methods of every
layer module with wrappers that record a span per call: name, start, end,
parent span and command id.  Each function is patched where it is looked
up, so a name that ``cli`` or ``gaudin`` imported with ``from ... import``
is rebound in those modules too, and methods (including the arithmetic
dunders, which the interpreter looks up on the type) are patched on their
class.  ``uninstall()`` puts every original object back.  Spans live in
flat in-memory arrays and are written out once, by ``dump()``.

What is not wrapped, and so lands in the self time of its caller:
``fractions.Fraction`` (a stdlib type), constructors, comparisons and
rendering dunders, properties, private helpers, and the hot one-line
helpers in ``SKIP``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("scalars", "linalg", "rmatrix", "reflection", "sampling",
          "ratfun", "spinalg", "gaudin", "dynamics", "reporting")
ARITHMETIC = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                        "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__call__"))
# Called per scalar operation or per random draw, and doing no work of
# their own worth a span.
SKIP = frozenset((
    "scalars.as_scalar", "scalars.to_complex", "scalars.scalar_sort_key",
    "scalars.scalar_to_str", "scalars.cyclotomic", "scalars.euler_phi",
    "spinalg.var_index", "spinalg.var_name",
    "sampling.sample_fraction", "sampling.SplitMix64.next_u64", "sampling.SplitMix64.randint",
))


def _entry_bits(value) -> int:
    """Largest numerator or denominator bit length in a Fraction or a
    Q(zeta_N) element."""
    coeffs = getattr(value, "coeffs", None)
    parts = coeffs if coeffs is not None else (value,)
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in parts),
               default=0)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.cmd = array("q")
        self.stack = [-1]
        self.command = -1
        self.counters = {"sampling.draws": 0, "sampling.rejects": 0, "linalg.max_bits": 0,
                         "spinalg.max_terms": 0, "dynamics.steps": 0, "dynamics.logged_rows": 0,
                         "reporting.bytes": 0}
        self._saved: list = []
        self._pending: list = []

    # -- span storage ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.cmd.append(self.command)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name: str):
        namer = _NAMERS.get(name)
        hook = _HOOKS.get(name)
        prepare = _PREPARE.get(name)
        fixed_id = self.name_id(name)
        start, end, stack = self.start, self.end, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(tracer, fn, args, kwargs)
            idx = tracer._open(fixed_id if namer is None else tracer.name_id(namer(name, args)))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; imports the package from ``sys.path``."""
        import importlib

        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nreflect.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    qual = f"{layer}.{attr}"
                    if not attr.startswith("_") and qual not in SKIP:
                        replaced[id(obj)] = (obj, self.wrap(obj, qual))
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "nreflect" and not modname.startswith("nreflect."):
                continue
            for attr, obj in list(vars(module).items()):
                pair = replaced.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._set(module, attr, pair[1])

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if qual in SKIP:
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(raw.__func__, qual)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(raw, qual))

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------------

    def record(self, name: str, start: float, end: float) -> None:
        """Note a finished span with no children.  Safe to call from a signal
        handler, which may run halfway through ``_open``: the span is only
        queued here and placed under its enclosing span by ``dump``."""
        self._pending.append((name, start, end, self.stack[-1], self.command))

    def _place_pending(self) -> None:
        for name, start, end, candidate, command in self._pending:
            parent = candidate
            while parent >= 0 and not (self.start[parent] <= start and end <= self.end[parent]):
                parent = self.parent[parent]
            self.parent.append(parent)
            self.name.append(self.name_id(name))
            self.cmd.append(command)
            self.start.append(start)
            self.end.append(end)
        self._pending.clear()

    def dump(self, path: str, outcomes: list) -> None:
        """Write the spans (``path``.npz) and names, counters and per
        command its own wall time and speed factor (``path``.json)."""
        import numpy as np

        self._place_pending()
        np.savez(path + ".npz",
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 cmd=np.frombuffer(self.cmd, dtype=np.int64))
        with open(path + ".json", "w") as handle:
            json.dump({"names": self.names, "counters": self.counters,
                       "command_walls": [o["seconds"] for o in outcomes],
                       "command_speeds": [o["speed"] for o in outcomes]}, handle)


# ---------------------------------------------------------------------------
# per-function extras: span names that carry a size, argument wrapping and
# counters read off results
# ---------------------------------------------------------------------------

def _matmul_name(name, args):
    left, right = args[0], args[1]
    if type(right) is type(left):
        return f"{name}[d{left.nrows}]"
    return f"{name}[scale]"


def _residue_name(name, args):
    return f"{name}[L{args[0].L}]"


def _bind(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs)


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _traced_reject(tracer, fn, args, kwargs):
    """sample_tuple(rng, arity, reject=None, ...): count draws and rejects,
    and time the rejection predicate as a span of its own."""
    bound = _bind(fn, args, kwargs)
    reject = bound.arguments.get("reject")
    reject_id = tracer.name_id("sampling.reject")
    counters = tracer.counters

    def counted(*point):
        counters["sampling.draws"] += 1
        if reject is None:
            return False
        idx = tracer._open(reject_id)
        t0 = perf_counter()
        try:
            verdict = reject(*point)
        finally:
            t1 = perf_counter()
            tracer.stack.pop()
            tracer.start[idx] = t0
            tracer.end[idx] = t1
        if verdict:
            counters["sampling.rejects"] += 1
        return verdict

    bound.arguments["reject"] = counted
    return bound.args, bound.kwargs


def _max_bits(tracer, fn, args, kwargs, result):
    bits = max((_entry_bits(a) for row in result.rows for a in row), default=0)
    if bits > tracer.counters["linalg.max_bits"]:
        tracer.counters["linalg.max_bits"] = bits


def _max_terms(tracer, fn, args, kwargs, result):
    terms = getattr(result, "terms", None)
    if terms is not None and len(terms) > tracer.counters["spinalg.max_terms"]:
        tracer.counters["spinalg.max_terms"] = len(terms)


def _rk4_counts(tracer, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    t_end, dt = bound.arguments["t_end"], bound.arguments["dt"]
    steps = round(t_end / dt) if result.ok else round((result.times[-1] - result.times[0]) / dt)
    tracer.counters["dynamics.steps"] += steps
    tracer.counters["dynamics.logged_rows"] += len(result.times)


def _dumps_bytes(tracer, fn, args, kwargs, result):
    tracer.counters["reporting.bytes"] += len(result.encode())


_NAMERS = {"linalg.Matrix.__mul__": _matmul_name,
           "gaudin.hamiltonian_residue": _residue_name}
_PREPARE = {"sampling.sample_tuple": _traced_reject}
_HOOKS = {"linalg.Matrix.inverse": _max_bits,
          "reflection.rbar_matrix": _max_bits,
          "spinalg.SpinPoly.__mul__": _max_terms,
          "spinalg.SpinPoly.__rmul__": _max_terms,
          "spinalg.SpinPoly.__add__": _max_terms,
          "spinalg.poisson_bracket": _max_terms,
          "dynamics.rk4_simulate": _rk4_counts,
          "reporting.dumps": _dumps_bytes}
