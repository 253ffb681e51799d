"""Span tracer for the spinpoint layers, installed from outside the package.

``Tracer.install`` wraps every public function defined in the layer
modules below and rebinds each reference to it in every loaded
``spinpoint.*`` namespace, including the package re-exports and the
module that defines it. Calls that resolve through module globals, such
as ``schur_decompose -> hessenberg`` inside ``_schur``, therefore pass
through the wrapper too. Private helpers stay unwrapped, so their time
is charged to the public function that called them.

A span is ``[name, start, end, parent, item, attrs]``: times from
``time.perf_counter`` in seconds, ``parent`` the index of the enclosing
span (-1 at top level), ``item`` the benchmark item being run and
``attrs`` a small dict or None. Spans stay in memory; ``totals`` folds
them into additive sums that can be merged across processes, and
``layer_metrics`` turns those sums into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("_schur", "cmatrix", "spins", "analysis", "kernel", "exceptional",
          "matio", "fermi", "cli")


def _schur_attrs(args, kwargs, result):
    return {"n": int(args[0].shape[0])}


def _find_ep_attrs(args, kwargs, result):
    return {"returned": len(result),
            "accepted": sum(1 for c in result if c.accepted),
            "unconverged": sum(1 for c in result if not c.newton_converged)}


def _trace_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"steps": int(path.steps)}


_ATTRS = {
    "_schur.schur_decompose": _schur_attrs,
    "exceptional.find_exceptional_points": _find_ep_attrs,
    "exceptional.trace_sheets": _trace_attrs,
}


class Tracer:
    """Records spans for the wrapped spinpoint functions of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spinpoint.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinpoint" and not mod_name.startswith("spinpoint."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def totals(spans: list[list]) -> dict:
    """Additive sums over ``spans``: per function calls, inclusive and self
    seconds, plus the counters the per-layer metrics need."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    eigen_under_trace = defaultdict(int)
    out = {"calls": defaultdict(int), "incl_s": defaultdict(float),
           "self_s": defaultdict(float), "schur_n": 0, "schur_n3": 0,
           "ep_returned": 0, "ep_accepted": 0, "ep_unconverged": 0,
           "trace_eigen_solves": 0, "trace_bisections": 0,
           "trace_guard_s": 0.0, "trace_guard_skipped": 0}
    for idx, (name, start, end, parent, _item, attrs) in enumerate(spans):
        out["calls"][name] += 1
        out["incl_s"][name] += end - start
        out["self_s"][name] += end - start - child_time[idx]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "_schur.schur_decompose":
            out["schur_n"] += attrs["n"]
            out["schur_n3"] += attrs["n"] ** 3
        elif name == "exceptional.find_exceptional_points":
            if attrs is not None and "returned" in attrs:
                out["ep_returned"] += attrs["returned"]
                out["ep_accepted"] += attrs["accepted"]
                out["ep_unconverged"] += attrs["unconverged"]
            if parent_name == "exceptional.trace_sheets":
                out["trace_guard_s"] += end - start
                if attrs is not None and "error" in attrs:
                    out["trace_guard_skipped"] += 1
        elif (name == "cmatrix.eigenvalues"
              and parent_name == "exceptional.trace_sheets"):
            out["trace_eigen_solves"] += 1
            eigen_under_trace[parent] += 1
    for idx, solves in eigen_under_trace.items():
        attrs = spans[idx][5]
        if attrs is not None and "steps" in attrs:
            out["trace_bisections"] += solves - (attrs["steps"] + 1)
    return {k: dict(v) if isinstance(v, defaultdict) else v
            for k, v in out.items()}


def merge(into: dict, other: dict) -> dict:
    """Add the sums of ``other`` into ``into`` and return it."""
    for key, value in other.items():
        if isinstance(value, dict):
            bucket = into.setdefault(key, {})
            for name, v in value.items():
                bucket[name] = bucket.get(name, 0) + v
        else:
            into[key] = into.get(key, 0) + value
    return into


def layer_metrics(t: dict, items: int) -> dict[str, float]:
    """Per-layer metrics from merged ``totals``, normalised per item."""
    calls, self_s, incl_s = t["calls"], t["self_s"], t["incl_s"]

    def per_item(count):
        return count / items

    def self_ms(name):
        return per_item(1e3 * self_s.get(name, 0.0))

    def module_self_ms(layer):
        return per_item(1e3 * sum(v for k, v in self_s.items()
                                  if k.startswith(layer + ".")))

    schur_calls = calls.get("_schur.schur_decompose", 0)
    return {
        "schur.qr.self_ms": self_ms("_schur.schur_decompose"),
        "schur.hessenberg.self_ms": self_ms("_schur.hessenberg"),
        "schur.calls": per_item(schur_calls),
        "schur.mean_n": t["schur_n"] / schur_calls if schur_calls else 0.0,
        "schur.sum_n3_computed": per_item(t["schur_n3"]),
        "cmatrix.eigenvalues.calls": per_item(calls.get("cmatrix.eigenvalues", 0)),
        "cmatrix.eigenvalues.self_ms": self_ms("cmatrix.eigenvalues"),
        "cmatrix.rank.calls": per_item(calls.get("cmatrix.rank", 0)),
        "cmatrix.rank.self_ms": self_ms("cmatrix.rank"),
        "cmatrix.nullspace.self_ms": self_ms("cmatrix.nullspace"),
        "cmatrix.char_poly.calls": per_item(calls.get("cmatrix.char_poly", 0)),
        "cmatrix.char_poly.self_ms": self_ms("cmatrix.char_poly"),
        "spins.nonnormal_hamiltonian.self_ms": self_ms("spins.nonnormal_hamiltonian"),
        "analysis.nilpotency_report.self_ms": self_ms("analysis.nilpotency_report"),
        "kernel.kernel_vector.self_ms": self_ms("kernel.kernel_vector"),
        "exceptional.find_ep.self_ms": self_ms("exceptional.find_exceptional_points"),
        "exceptional.find_ep.incl_ms": per_item(
            1e3 * incl_s.get("exceptional.find_exceptional_points", 0.0)),
        "exceptional.ep.accepted_frac": (t["ep_accepted"] / t["ep_returned"]
                                         if t["ep_returned"] else 0.0),
        "exceptional.ep.newton_unconverged": per_item(t["ep_unconverged"]),
        "exceptional.trace.self_ms": self_ms("exceptional.trace_sheets"),
        "exceptional.trace.eigen_solves": per_item(t["trace_eigen_solves"]),
        "exceptional.trace.bisections": per_item(t["trace_bisections"]),
        "exceptional.trace.guard_ms": per_item(1e3 * t["trace_guard_s"]),
        "exceptional.trace.guard_skipped": per_item(t["trace_guard_skipped"]),
        "matio.self_ms": module_self_ms("matio"),
        "fermi.self_ms": module_self_ms("fermi"),
    }
