"""Per-layer spans around the public functions of every framekit module.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
rebinds each public function at every place the package looks it up
(its own module, every module that imported it by name, and module-level
tuples and dicts that captured it, such as the CLI's file sniffing table),
and ``uninstall`` puts the originals back.  Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, op]`` and written out at the end.

A layer's self time is its span's duration minus the durations of its
direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import time

import numpy as np

import framekit
from framekit import cli, correspondence, frames, linalg, povm, reconstruction

MODULES = (linalg, frames, povm, correspondence, reconstruction, cli)

# O(n^2) helpers called once per matrix entry pass; wrapping them would cost
# more than they do, so their time stays in the caller's self time.
HELPERS = frozenset(
    {"as_matrix", "as_vector", "adjoint", "inner", "frobenius", "hermitian_residual",
     "is_hermitian", "hermitize"}
)

# Constructors whose work (frame operator and bounds, per-density PSD checks)
# is a layer of its own.
CLASSES = ((frames, "OperatorValuedFrame"), (correspondence, "Decomposition"))

_GROUPS = {"verify_uniqueness": "verify", "verify_ovf_equivalence": "verify"}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def span_name(module, attr: str) -> str:
    """Layer name of a public function: codecs and verifiers are grouped."""
    if attr.endswith("_to_json") or attr.endswith("_from_json"):
        return f"{_short(module)}.codec"
    return f"{_short(module)}.{_GROUPS.get(attr, attr)}"


class Tracer:
    """Spans and counters for one traced run; install, run ops, uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # index of the op being run; spans of one op share it
        self.n3_computed = 0
        self.events_computed = 0
        self.iterations = 0
        self._eigen_inputs: set[bytes] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- hooks -------------------------------------------------------------

    def _on_eigen(self, args, kwargs):
        a = np.ascontiguousarray(args[0] if args else kwargs["a"], dtype=np.complex128)
        self.n3_computed += a.shape[0] ** 3
        self._eigen_inputs.add(hashlib.blake2b(a.tobytes(), digest_size=16).digest())

    def _on_events(self, result):
        self.events_computed += len(result)

    def _on_trace(self, result):
        self.iterations += int(getattr(result, "iterations", 0))

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "linalg.hermitian_eigen": (self._on_eigen, None),
            "correspondence.all_events": (None, self._on_events),
            "correspondence.sample_events": (None, self._on_events),
            "reconstruction.frame_algorithm": (None, self._on_trace),
        }
        wrapped = {}  # id(original) -> wrapper
        for module in MODULES:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or attr in HELPERS or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                on_call, on_result = hooks.get(f"{_short(module)}.{attr}", (None, None))
                wrapped[id(fn)] = self._wrap(span_name(module, attr), fn, on_call, on_result)

        for module in (framekit,) + MODULES:
            for attr, value in list(vars(module).items()):
                new = _rebind(value, wrapped)
                if new is not value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, new)

        for module, cls_name in CLASSES:
            cls = getattr(module, cls_name)
            init = cls.__dict__["__init__"]
            self._undo.append((cls, "__init__", init))
            cls.__init__ = self._wrap(span_name(module, cls_name), init)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # --- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: (calls, self_s)} over every recorded span."""
        self_ns = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        totals = {}
        for span, own in zip(self.spans, self_ns):
            calls, total = totals.get(span[0], (0, 0))
            totals[span[0]] = (calls + 1, total + own)
        return {name: (calls, ns / 1e9) for name, (calls, ns) in totals.items()}

    def unique_eigen_inputs(self) -> int:
        return len(self._eigen_inputs)

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_ns", "end_ns", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, name, start, end, parent, op])


def _rebind(value, wrapped: dict, depth: int = 0):
    """value with every wrapped function swapped in, or value itself if none."""
    if id(value) in wrapped and inspect.isfunction(value):
        return wrapped[id(value)]
    if depth < 2 and isinstance(value, (tuple, list)):
        items = [_rebind(v, wrapped, depth + 1) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    if depth < 2 and isinstance(value, dict):
        items = {k: _rebind(v, wrapped, depth + 1) for k, v in value.items()}
        if any(items[k] is not value[k] for k in value):
            return items
    return value
