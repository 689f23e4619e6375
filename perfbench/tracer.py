"""Span tracer that wraps the program's public functions from outside.

`Tracer.install()` replaces every public function defined in a `g2inv`
submodule, in every `g2inv` namespace that holds it (modules that bind
names with `from .x import y` hold their own reference), by one wrapper
that records a span: name, start, end, parent span and operation id.
`sympy.cancel` is wrapped too, as `exact.sympy_cancel`; only top-level
calls get a span, so its count is the number of times the program asked
for a canonical form.  `uninstall()` puts the original objects back.

A handful of one-argument exact-field helpers run hundreds of thousands
of times per operation; a span there would cost more than the work it
times, so they get a wrapper that only counts calls, and their time stays
in the caller's self time.

Spans stay in memory; `summarize()` turns them into per-function call
counts and self times (duration minus the time covered by child spans).
The program runs single-threaded here (`--workers 1`), so spans nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import sympy

SUBMODULES = (
    "errors",
    "exact",
    "metric_graph",
    "pm_invariants",
    "fiber_catalog",
    "theta_surface",
    "formats",
    "cli",
)
COUNT_ONLY = {
    "exact.is_symbolic",
    "exact.as_rational",
    "exact.simplify_exact",
    "exact.is_exact_zero",
    "exact.sign_known_nonnegative",
}
CANCEL = "exact.sympy_cancel"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()  # (op id, name) -> calls, count-only helpers
        self.quadrature: list = []  # (op id, samples, rejected, stderr / target, seconds)
        self.op = None
        self._cells: dict[str, list] = {}  # running call counts of count-only helpers
        self._stack: list[int] = []
        self._patched: list = []  # (namespace, attribute, original)

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(x):
            cell[0] += 1
            return fn(x)

        return wrapper

    def begin(self, op) -> None:
        """Attribute the spans and counts that follow to operation `op`."""
        self.end()
        self.op = op

    def end(self) -> None:
        """Book the count-only calls made since begin() to the current op."""
        for name, cell in self._cells.items():
            if cell[0]:
                self.counts[self.op, name] += cell[0]
                cell[0] = 0
        self.op = None

    def _log_h_wrapper(self, fn):
        """Span wrapper that also records the quadrature's own figures."""
        traced = self._span_wrapper("theta_surface.log_h", fn)
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = traced(*args, **kwargs)
            seconds = time.perf_counter() - start
            bound = dict(zip(params, args), **kwargs)
            config = bound.get("config")
            if config is not None:
                self.quadrature.append(
                    (
                        self.op,
                        config.n_samples,
                        result.rejected,
                        result.stderr / config.target_stderr,
                        seconds,
                    )
                )
            return result

        return wrapper

    def _cancel_wrapper(self, fn):
        traced = self._span_wrapper(CANCEL, fn)
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        modules = [importlib.import_module("g2inv")]
        modules += [importlib.import_module(f"g2inv.{m}") for m in SUBMODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("g2inv."):
                    continue
                key = id(obj)
                if key not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    if name in COUNT_ONLY:
                        wrappers[key] = self._count_wrapper(name, obj)
                    elif name == "theta_surface.log_h":
                        wrappers[key] = self._log_h_wrapper(obj)
                    else:
                        wrappers[key] = self._span_wrapper(name, obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[key])
        self._patched.append((sympy, "cancel", sympy.cancel))
        sympy.cancel = self._cancel_wrapper(sympy.cancel)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- results

    def summarize(self, ops) -> dict:
        """Per-function {"calls", "self_s"} over the spans of the given op
        ids; count-only helpers appear with their calls and no self time."""
        ops = set(ops)
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0 and span[4] in ops:
                child_time[span[3]] += span[2] - span[1]
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for index, span in enumerate(self.spans):
            if span is None or span[4] not in ops:
                continue
            row = table[span[0]]
            row["calls"] += 1
            row["self_s"] += (span[2] - span[1]) - child_time[index]
        for (op, name), calls in self.counts.items():
            if op in ops:
                table[name]["calls"] += calls
        return table
