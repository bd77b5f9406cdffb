"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public module-level functions of each layer at run
time.  Package modules import each other with ``from .x import f``, so every
module attribute that is the original function object is rebound to the
wrapper; nothing under ``src/`` changes.  Methods (``TruncatedPoly``,
``SymbolJet``, ``GaussianRational`` arithmetic, ...) are not wrapped: their
time counts as self time of the nearest wrapped caller.

Spans are kept in flat arrays (name id, parent index, start, end) until the
run ends; the metrics are derived from the span tree afterwards.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array
from fractions import Fraction

import numpy as np

#: The package's modules that count as layers, in stack order.  ``configs``
#: only generates inputs and is not a layer.
LAYERS = (
    "exactpoly",
    "polymat",
    "geometry",
    "calculus",
    "projections",
    "altderiv",
    "berger",
    "kernel",
    "cli",
)

#: Public functions left unwrapped.  ``rat`` and ``epsilon`` are scalar
#: helpers called per coefficient, where a wrapper would cost more than the
#: call; the rest render or parse text, which counts as the caller's output
#: work (``cli.self_s``).  Generator functions are not wrapped either: their
#: work runs in the consumer, after the call has returned.
UNWRAPPED = frozenset(
    {
        "rat",
        "rat_str",
        "epsilon",
        "gr_str",
        "poly_to_dict",
        "poly_from_dict",
        "poly_dumps",
        "poly_loads",
        "main",
    }
)

#: Functions whose result size is recorded, and how to measure it.
SIZES = {
    "exactpoly.poly_mul": ("terms_out", lambda r: len(r.terms)),
    "berger.curl_spectrum": ("entries", lambda r: len(r.entries)),
    "berger.laplacian_spectrum": ("entries", lambda r: len(r.entries)),
}

#: Functions whose results are kept until the run ends.
KEPT = frozenset({"projections.run_algorithm"})

#: (metric, unit) for every per-layer metric, in report order.
LAYER_METRICS = (
    ("exactpoly.self_s", "s"),
    ("exactpoly.poly_mul.calls", "count"),
    ("exactpoly.poly_mul.self_s", "s"),
    ("exactpoly.poly_add.calls", "count"),
    ("exactpoly.poly_add.self_s", "s"),
    ("exactpoly.poly_diff.calls", "count"),
    ("exactpoly.poly_diff.self_s", "s"),
    ("exactpoly.poly_mul.terms_out", "count"),
    ("exactpoly.max_coeff_bits", "bits"),
    ("polymat.self_s", "s"),
    ("polymat.mat_mul.calls", "count"),
    ("geometry.self_s", "s"),
    ("geometry.build_metric_jet.calls", "count"),
    ("geometry.build_metric_jet.total_s", "s"),
    ("calculus.self_s", "s"),
    ("calculus.compose.calls", "count"),
    ("calculus.compose.total_s", "s"),
    ("projections.self_s", "s"),
    ("projections.run_algorithm.calls", "count"),
    ("projections.run_algorithm.total_s", "s"),
    ("projections.verify_projection.total_s", "s"),
    ("projections.asymmetry_report.total_s", "s"),
    ("altderiv.self_s", "s"),
    ("altderiv.build_hierarchy.total_s", "s"),
    ("berger.self_s", "s"),
    ("berger.curl_spectrum.total_s", "s"),
    ("berger.curl_spectrum.entries", "count"),
    ("berger.laplacian_spectrum.total_s", "s"),
    ("berger.laplacian_spectrum.entries", "count"),
    ("berger.eta_partial.total_s", "s"),
    ("berger.theta_partial.total_s", "s"),
    ("berger.counting_function.total_s", "s"),
    ("kernel.self_s", "s"),
    ("kernel.basset_check.calls", "count"),
    ("kernel.basset_check.total_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

#: Span names whose inclusive time is reported.
TOTAL_NAMES = frozenset(
    metric.rsplit(".", 1)[0]
    for metric, _ in LAYER_METRICS
    if metric.endswith(".total_s")
)


def layer_functions(package: str = "curlasym") -> dict:
    """Span name -> original function, for every wrapped function."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not inspect.isgeneratorfunction(value)
                and not attr.startswith("_")
                and attr not in UNWRAPPED
            ):
                found[f"{layer}.{attr}"] = value
    return found


class SpanRecorder:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict = {}
        self.kept: list = []
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_append = self.name_id.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        size_key, size_of = SIZES.get(name, (None, None))
        if size_key is not None:
            size_key = f"{name}.{size_key}"
        keep = self.kept.append if name in KEPT else None
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            i = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            push(i)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()
            if size_of is not None:
                sizes[size_key] = sizes.get(size_key, 0) + size_of(result)
            if keep is not None:
                keep(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package: str = "curlasym") -> None:
        """Rebind every module attribute that is a wrapped function."""
        originals = layer_functions(package)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or modname.partition(".")[0] != package:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- derived metrics -------------------------------------------------

    def per_name(self) -> dict:
        """Span name -> {"calls", "self_s", "total_s"}.

        ``self_s`` is the spans' duration minus their child spans.
        ``total_s`` is inclusive time, counting only the outermost span of
        a name so that recursion is not counted twice; it is computed for
        the names a ``.total_s`` metric asks for.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        calls = np.bincount(name_id, minlength=n_names)
        self_s = np.bincount(name_id, weights=dur - child, minlength=n_names)
        stats = {
            name: {"calls": int(calls[k]), "self_s": float(self_s[k])}
            for k, name in enumerate(self.names)
        }
        for k, name in enumerate(self.names):
            if name not in TOTAL_NAMES:
                continue
            total = 0.0
            for i in np.flatnonzero(name_id == k):
                p = parent[i]
                while p >= 0 and name_id[p] != k:
                    p = parent[p]
                if p < 0:
                    total += float(dur[i])
            stats[name]["total_s"] = total
        return stats

    def layer_metrics(self, output_bytes: int, overhead_frac: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        stats = self.per_name()
        empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                s["self_s"]
                for name, s in stats.items()
                if name.split(".", 1)[0] == layer
            )
        for metric, _ in LAYER_METRICS:
            if metric in values:
                continue
            span, _, field = metric.rpartition(".")
            if field in ("calls", "self_s", "total_s"):
                values[metric] = stats.get(span, empty)[field]
            elif field in ("terms_out", "entries"):
                values[metric] = self.sizes.get(metric, 0)
        values["exactpoly.max_coeff_bits"] = max_coeff_bits(self.kept)
        values["cli.output_bytes"] = output_bytes
        values["trace.overhead_frac"] = overhead_frac
        return {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in LAYER_METRICS
        }


def max_coeff_bits(families) -> int:
    """Largest numerator or denominator bit length in the families' jets.

    Read from the serialised jets, which every later representation of the
    exact numbers must keep byte-identical.
    """
    best = 0
    for fam in families:
        for matrix in fam.jet.to_dict()["components"]:
            for row in matrix:
                for poly in row:
                    for term in poly["terms"]:
                        for part in (term["re"], term["im"]):
                            q = Fraction(part)
                            best = max(
                                best,
                                abs(q.numerator).bit_length(),
                                q.denominator.bit_length(),
                            )
    return best
