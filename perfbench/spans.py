"""Span tracer that measures excal layer by layer from outside the package.

`install` wraps every public function and public method of each excal
layer module and rebinds the wrapper wherever another excal module imported
the original by name, so calls between layers pass through it. Each wrapped
call records one span (name, start, end, parent) in flat in-memory arrays;
a function that re-enters itself directly is recorded once, at the
outermost entry. The jet-multiply kernel is called about 2 M times per
full suite, so it is measured by aggregate counters instead of spans.

The self time of a span is its duration minus the time covered by its
child spans, by kernel calls made directly inside it and by harness
probes (see `exclude`). A layer's self
time is the sum over its spans, and a layer's call count counts the spans
entered from outside the layer. Jet-object arithmetic (allocation, operand
coercion) is not a boundary here, so it lands in the self time of the
layer that performs it.
"""

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Layer modules of excal, in the order they are reported. `jets` is the
# kernel counter; `prng` and `errors` are too small to measure.
LAYERS = (
    "cli",
    "verifier",
    "catalog",
    "opexpr",
    "operators",
    "alt",
    "geometry",
    "sexpr",
    "compare",
)
ALL_LAYERS = LAYERS + ("jets",)

# Operator overloads that count as public methods of a layer's classes.
_DUNDERS = ("__add__", "__radd__", "__sub__", "__neg__", "__call__")

# Boundaries the per-layer metrics are read from. A missing one is an error
# that names it, rather than a metric that silently reads zero.
REQUIRED = (
    "cli.main",
    "verifier.run_check",
    "catalog.builtin",
    "opexpr.evaluate_str",
    "operators.codiff",
    "operators.ext_d",
    "operators.lie_vec",
    "operators.graded_comm",
    "operators.nabla_coord",
    "alt.wedge",
    "alt.interior",
    "geometry.Geometry.context",
    "geometry.ChartContext.g",
    "geometry.ChartContext.g_inv",
    "geometry.ChartContext.gamma",
    "geometry.ChartContext.frame",
    "geometry.ChartContext.curvature",
    "geometry.ChartContext.structure",
    "geometry.load_config",
    "sexpr.parse",
    "sexpr.eval_jet",
    "compare.alt_errors",
)

KERNEL = "jets.mul_coeffs"


class TraceBoundaryMissing(RuntimeError):
    """A boundary the traced run needs does not exist in this excal."""

    def __init__(self, name):
        super().__init__(f"traced boundary {name!r} not found in excal")
        self.name = name


class Tracer:
    """Spans kept in flat arrays, plus the kernel and context counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.stack = [-1]
        # jets.mul_coeffs: calls, seconds, terms, bytes computed from sizes
        self.mul = [0, 0.0, 0, 0]
        self.contexts_built = 0
        self.marks = {}

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        kern, stack, clock = self.excluded, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(top)
            kern.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count_kernel(self, fn):
        tally, kern, stack, clock = self.mul, self.excluded, self.stack, time.perf_counter

        def counted(a, b, idx_a, idx_b, idx_out, size):
            t0 = clock()
            out = fn(a, b, idx_a, idx_b, idx_out, size)
            dt = clock() - t0
            top = stack[-1]
            if top >= 0:
                kern[top] += dt
            terms = len(idx_a)
            tally[0] += 1
            tally[1] += dt
            tally[2] += terms
            # two operand gathers, three index reads, one output write
            tally[3] += terms * (2 * a.itemsize + 3 * idx_a.itemsize) + out.nbytes
            return out

        return counted

    def exclude(self, seconds):
        """Take harness work done inside the current span out of its self time."""
        top = self.stack[-1]
        if top >= 0:
            self.excluded[top] += seconds

    def count_contexts(self, init):
        def counted(ctx, *args, **kwargs):
            self.contexts_built += 1
            return init(ctx, *args, **kwargs)

        return counted

    def mark(self, phase):
        """Start a phase; phases split setup, input generation and workload."""
        self.marks[phase] = (len(self.name), list(self.mul), self.contexts_built)

    def phase_slice(self, phase, next_phase=None):
        lo = self.marks[phase][0]
        hi = self.marks[next_phase][0] if next_phase else len(self.name)
        return lo, hi

    def summarize(self, lo, hi):
        """Per span name: (calls, self seconds, inclusive seconds, entries)."""
        k = len(self.names)
        m = hi - lo
        name = _view(self.name, np.int32, lo, hi).astype(np.int64)
        parent = _view(self.parent, np.int32, lo, hi) - lo
        dur = _view(self.end, np.float64, lo, hi) - _view(self.start, np.float64, lo, hi)
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=m)
        self_t = dur - covered - _view(self.excluded, np.float64, lo, hi)
        layer_of = np.array([ALL_LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0])
        parent_layer = np.full(m, -1)
        parent_layer[inside] = layer_of[name[parent[inside]]]
        entry = (layer_of[name] != parent_layer).astype(float)
        return {
            self.names[i]: (int(c), float(s), float(t), int(e))
            for i, (c, s, t, e) in enumerate(
                zip(
                    np.bincount(name, minlength=k),
                    np.bincount(name, weights=self_t, minlength=k),
                    np.bincount(name, weights=dur, minlength=k),
                    np.bincount(name, weights=entry, minlength=k),
                )
            )
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            excluded=np.array(self.excluded),
            phases=np.array(list(self.marks)),
            phase_start=np.array([v[0] for v in self.marks.values()], dtype=np.int64),
        )


def _view(arr, dtype, lo, hi):
    return np.frombuffer(arr, dtype=dtype)[lo:hi]


def rebind(old, new):
    """Point every excal module attribute that holds `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "excal":
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def _boundaries(layer, mod):
    """(name, owner, attribute, callable) for each public function of a layer."""
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", None, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if meth.startswith("_") and meth not in _DUNDERS:
                    continue
                if inspect.isfunction(fn) or isinstance(fn, classmethod):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn


def install(tracer, required=REQUIRED):
    """Wrap excal's layer boundaries with `tracer`.

    Every required boundary is looked up before anything is wrapped, so a
    missing one raises TraceBoundaryMissing and leaves excal untouched.
    """
    layers = {name: importlib.import_module(f"excal.{name}") for name in LAYERS}
    found = {}
    for layer, mod in layers.items():
        for name, owner, attr, fn in _boundaries(layer, mod):
            found[name] = (owner, attr, fn)
    jets = importlib.import_module("excal.jets")
    geometry = layers["geometry"]
    for name in required:
        if name not in found:
            raise TraceBoundaryMissing(name)
    if not hasattr(jets, "mul_coeffs"):
        raise TraceBoundaryMissing(KERNEL)

    for name, (owner, attr, fn) in found.items():
        if owner is None:
            rebind(fn, tracer.wrap(name, fn))
        elif isinstance(fn, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, fn.__func__)))
        else:
            setattr(owner, attr, tracer.wrap(name, fn))
    rebind(jets.mul_coeffs, tracer.count_kernel(jets.mul_coeffs))
    ctx_cls = geometry.ChartContext
    ctx_cls.__init__ = tracer.count_contexts(ctx_cls.__init__)
