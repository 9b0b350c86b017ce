"""Spans and counters around emdenlab's public functions, from outside.

``Tracer.install`` wraps, in place, every public module-level function
of each ``emdenlab`` module, the public methods, properties and
arithmetic operators of the classes each module defines, and the two
library calls the per-layer counters need (``shooting.solve_ivp`` and
``estimates.quad``).  Bindings of a wrapped function in other emdenlab
modules (``from .x import f``) are replaced as well, so every call goes
through the wrapper.  No emdenlab source is changed.

While a traced pass is open each call records a span (key, start, end,
parent) in memory.  A layer is an emdenlab module; its self time is the
duration of its spans minus the time their child spans cover.  Spans are
reduced to the per-layer metrics when the pass closes.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "taylor", "fields", "jets", "divergence", "geometry", "exponents",
    "identities", "shooting", "estimates", "reports", "cli",
)
OPERATORS = frozenset({
    "__init__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__call__",
})
EXTERNAL = {"shooting": ("solve_ivp",), "estimates": ("quad",)}
ROOT = ("bench", "pass")


def _public(name: str) -> bool:
    return not name.startswith("_") or name in OPERATORS


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class Tracer:
    """Collects spans while a pass is open; idle (one flag test) otherwise."""

    def __init__(self):
        self.active = False
        self.keys = []          # key id -> (layer, qualified name)
        self._key_ids = {}
        self.spans = []         # [key id, start, end, parent span index]
        self._stack = []
        self.notes = defaultdict(list)  # key id -> [(span index, value)]

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _key(self, layer, name):
        key = (layer, name)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def wrap(self, fn, layer, name, note=None):
        """Return fn wrapped in a span; note(args, result) is recorded."""
        key = self._key(layer, name)
        spans, stack, notes = self.spans, self._stack, self.notes[key]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                notes.append((index, note(args, result)))
            return result

        return wrapper

    def install(self):
        """Wrap every emdenlab layer; call once, after the imports."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules.get(f"emdenlab.{layer}")
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if not _public(name):
                    continue
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
                elif name in EXTERNAL.get(layer, ()):
                    # only this module's binding: geometry's quad is not counted
                    setattr(module, name, self.wrap(obj, layer, name, _note(layer, name)))
                elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                    wrapped = self.wrap(obj, layer, name, _note(layer, name))
                    setattr(module, name, wrapped)
                    replaced[id(obj)] = (obj, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "emdenlab" or mod_name.startswith("emdenlab."):
                for name, obj in list(vars(module).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(module, name, hit[1])

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if not _public(name):
                continue
            qual = f"{cls.__name__}.{name}"
            note = _note(layer, qual)
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__, layer, qual, note)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__, layer, qual, note)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self.wrap(attr.fget, layer, qual, note),
                                            attr.fset, attr.fdel, attr.__doc__))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self.wrap(attr, layer, qual, note))

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------

    def begin(self):
        self.spans.clear()
        self._stack.clear()
        for values in self.notes.values():
            values.clear()
        root = self._key(*ROOT)
        self.spans.append([root, 0.0, 0.0, -1])
        self._stack.append(0)
        self.active = True
        self.spans[0][1] = time.perf_counter()

    def end(self):
        self.spans[0][2] = time.perf_counter()
        self.active = False
        self._stack.clear()
        return self.spans[0][2] - self.spans[0][1]

    def dump(self):
        """The spans of the last pass as plain lists, with their key table."""
        return {"keys": [list(k) for k in self.keys], "spans": self.spans}

    def metrics(self):
        """Per-layer metrics of the last pass."""
        spans, keys = self.spans, self.keys
        child = [0.0] * len(spans)
        for key, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = Counter()
        calls = Counter()
        duration = Counter()
        engine_self = Counter()
        engine_of = {}
        check_self = 0.0
        for i, (key, start, end, parent) in enumerate(spans):
            layer, name = keys[key]
            own = end - start - child[i]
            layer_self[layer] += own
            calls[(layer, name)] += 1
            duration[(layer, name)] += end - start
            if layer == "identities" and name.startswith("check_"):
                check_self += own
            elif layer == "divergence":
                if name.startswith(("EuclideanEngine.", "RadialEngine.")):
                    tag = name.split("Engine.")[0].lower()
                else:
                    tag = engine_of.get(parent, "other")
                engine_of[i] = tag
                engine_self[tag] += own

        def count(layer, *names):
            return sum(calls[(layer, n)] for n in names)

        def notes(layer, name):
            return self.notes[self._key(layer, name)]

        def ancestor(i, layer, name):
            """Index of the nearest enclosing span of (layer, name), or -1."""
            target = self._key(layer, name)
            i = spans[i][3]
            while i >= 0 and spans[i][0] != target:
                i = spans[i][3]
            return i

        solve_key = self._key("shooting", "solve_ivp")
        solve_spans = [i for i, s in enumerate(spans) if s[0] == solve_key]
        solve_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in solve_spans]

        bisection = -sum(cells for _, cells in notes("shooting", "bv_sphere_scan"))
        command_of_run = dict(notes("cli", "run"))
        scan_runs = {i for i, cmd in command_of_run.items() if cmd == "scan"}
        scan_solves = 0
        for i in solve_spans:
            if ancestor(i, "shooting", "bv_sphere_scan") >= 0:
                bisection += 1
            if ancestor(i, "cli", "run") in scan_runs:
                scan_solves += 1
        scan_cells = sum(
            cells for i, cells in notes("shooting", "liouville_scan")
            if ancestor(i, "cli", "run") in scan_runs
        )

        campaigns = {camp for _, camp in notes("identities", "campaign_batches")}
        batch_sizes = [
            n for (layer, _), key in self._key_ids.items() if layer == "jets"
            for _, n in self.notes[key] if n is not None
        ]
        serialize_s = sum(
            spans[i][2] - spans[i][1] for i, _ in notes("reports", "RunReport.to_json")
            if ancestor(i, "reports", "RunReport.to_json") < 0
        )

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "identities.batches_built":
                count("identities", "campaign_batches") / len(campaigns) if campaigns else 0.0,
            "identities.sampling_s": duration[("identities", "campaign_batches")],
            "identities.check_self_s": check_self,
            "fields.jet_calls": count("fields", "ScalarField.jet3", "RadialProfile.jet"),
            "taylor.grad_ops": sum(
                n for (layer, name), n in calls.items()
                if layer == "taylor" and name.startswith(("Grad.", "grad_"))),
            "divergence.calls": count(
                "divergence", "EuclideanEngine.divergence", "RadialEngine.divergence",
                "divergence_at", "radial_divergence_at"),
            "divergence.euclidean_s": engine_self["euclidean"],
            "divergence.radial_s": engine_self["radial"],
            "jets.calls": sum(n for (layer, _), n in calls.items() if layer == "jets"),
            "jets.mean_batch": sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0,
            "shooting.solves": len(solve_spans),
            "shooting.nfev": sum(n for _, n in notes("shooting", "solve_ivp")),
            "shooting.solve_s": duration[("shooting", "solve_ivp")],
            "shooting.solve_p50_ms": _percentile(solve_ms, 0.5),
            "shooting.solve_p90_ms": _percentile(solve_ms, 0.9),
            "shooting.bisection_solves": bisection,
            "shooting.solves_per_cell": scan_solves / scan_cells if scan_cells else 0.0,
            "estimates.quad_calls": count("estimates", "quad"),
            "estimates.quad_s": duration[("estimates", "quad")],
            "geometry.warping_calls": count(
                "geometry", "ManifoldModel.warping_jet", "ManifoldModel.warping_third"),
            "reports.serialize_s": serialize_s,
            "reports.bytes": sum(n for _, n in notes("reports", "RunReport.to_json")),
            "trace.spans": len(spans),
            "trace.self_sum_s": sum(layer_self[layer] for layer in LAYERS),
        })
        return out


def _leading_dim(args, result):
    """Batch size of a jets call: the leading dimension of its first array."""
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape:
            return int(shape[0])
    return None


def _note(layer, name):
    return _NOTES.get((layer, name), _leading_dim if layer == "jets" else None)


_NOTES = {
    ("identities", "campaign_batches"): lambda args, result: args[0],
    ("shooting", "solve_ivp"): lambda args, result: int(result.nfev),
    ("shooting", "bv_sphere_scan"): lambda args, result: len(args[3]),
    ("shooting", "liouville_scan"): lambda args, result: len(result["cells"]),
    ("cli", "run"): lambda args, result: args[0][0],
    ("reports", "RunReport.to_json"): lambda args, result: len(result.encode()),
}
