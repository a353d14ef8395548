"""Layer tracing of the leonard package from outside it.

Tracer.install() rebinds each public function named in LAYERS, in every
leonard module namespace that holds it by name, to a wrapper that records a
span (name, start, end, parent, item id).  Calls resolved at run time from a
module's globals, such as ortho's function-local import of
corresponding_polys, see the wrapper too.  enumerate_arrays is wrapped so
that each next() on its generator is one span.  The operator methods of
FieldElement and two SquareMatrix methods are wrapped on their classes and
only counted.  uninstall() restores every original.

Spans stay in memory; write() puts them in a tab-separated file at the end,
and summary() turns them into per-layer counts and self times (a span's
duration minus the part covered by its direct children).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

from workloads import Watch

# module -> public functions wrapped in spans
LAYERS = {
    "fields": ("rational_field", "prime_field", "extension_field", "make_field",
               "quadratic_roots", "splitting_field", "embed_map"),
    "parray": ("make_array", "array_from_json", "validate", "d4_apply",
               "beta_plus_one", "base_candidates", "complete_from_theta",
               "enumerate_arrays"),
    "splitmat": ("build", "primitive_idempotents", "verify_conjugation",
                 "verify_leonard_conditions", "s_matrix"),
    "polys": ("corresponding_polys", "verify_proportionality",
              "endpoint_values", "duality_check"),
    "ortho": ("ortho_data", "verify_orthogonality", "verify_nu_sums"),
    "recur": ("recurrence_coeffs", "verify_three_term", "verify_difference",
              "verify_alt_formulas"),
    "families": ("generate", "sample_params", "closed_form_spec",
                 "hypergeom_sum", "verify_closed_form"),
    "classify": ("classify", "embed_array", "fit_closed_form_theta"),
    "cli": ("main", "load_array"),
}

# FieldElement operator methods, by the counter they feed.
FIELD_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "inv": ("inverse", "__truediv__", "__rtruediv__"),
    "eq": ("__eq__", "__bool__"),
}

# SquareMatrix methods counted per call.
MATRIX_OPS = {"matmul": "__mul__", "inverse": "inverse"}

ENUMERATE = "parray.enumerate"


class Tracer(Watch):
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.items: list[str] = []
        self.stack: list[int] = [-1]
        self.item = ""
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.items.append(self.item)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(ENUMERATE)
                try:
                    arr = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts["parray.enumerate.emitted"] += 1
                yield arr

        wrapper.__wrapped__ = fn
        return wrapper

    def _classify(self, fn):
        def wrapper(p):
            w = fn(p)
            self.counts[f"classify.case.{w.case}"] += 1
            return w

        return wrapper

    def _counted(self, key: str, fn, binary: bool):
        counts = self.counts
        if binary:
            def wrapper(a, b):
                counts[key] += 1
                return fn(a, b)
        else:
            def wrapper(a):
                counts[key] += 1
                return fn(a)
        return wrapper

    # -- installation -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"leonard.{layer}")
                 for layer in LAYERS}
        FieldElement = homes["fields"].FieldElement
        SquareMatrix = homes["splitmat"].SquareMatrix
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "leonard" or n.startswith("leonard.")]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                orig = getattr(home, name)
                if name == "enumerate_arrays":
                    wrapped = self._enumerate(orig)
                else:
                    wrapped = self._span(f"{layer}.{name}", orig)
                    if (layer, name) == ("classify", "classify"):
                        wrapped = self._classify(wrapped)
                for mod in modules:
                    if mod.__dict__.get(name) is orig:
                        self._set(mod, name, wrapped)
        for key, attrs in FIELD_OPS.items():
            for attr in attrs:
                fn = FieldElement.__dict__[attr]
                binary = attr not in ("__neg__", "inverse", "__bool__")
                self._set(FieldElement, attr,
                          self._counted(f"fields.ops.{key}", fn, binary))
        for key, attr in MATRIX_OPS.items():
            fn = SquareMatrix.__dict__[attr]
            self._set(SquareMatrix, attr,
                      self._counted(f"splitmat.{key}.calls", fn,
                                    attr == "__mul__"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------
    def self_ns(self) -> list[int]:
        child = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def summary(self, item_part: str = "") -> dict[str, dict]:
        """Per span name: calls, self seconds and total seconds, over the
        spans whose item id contains item_part."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i, own in enumerate(self.self_ns()):
            if item_part in self.items[i]:
                row = out[self.names[i]]
                row["calls"] += 1
                row["self_s"] += own / 1e9
                row["total_s"] += (self.ends[i] - self.starts[i]) / 1e9
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.items):
                f.write("\t".join(map(str, row)) + "\n")
