"""Per-layer tracing from outside the package.

Each traced public function is replaced by a timing wrapper in every
``qpac`` module that binds it: the modules import with ``from .x import
y``, so patching only the defining module would miss most calls. Methods
are patched once on their class. Spans nest on a per-thread stack, so
the worker pool's threads never mix spans. Each function reports its
calls, its total (inclusive) time and its self time: the span's duration
minus the durations of its child spans.

Counts that need work of their own (the bottom-eigenvalue multiplicity,
bytes written) are taken after the span's clock has stopped; that time
is charged to no layer, and shows only in ``trace.overhead_s``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, public function) pairs, wrapped wherever qpac binds them
FUNCTIONS = (
    ("pauli", "group_closure"),
    ("states", "fidelity"),
    ("linalg", "eigendecompose"),
    ("linalg", "smallest_eigenvector"),
    ("sampling", "build_distribution"),
    ("sampling", "sample_training_set"),
    ("learner", "hazan_optimize"),
    ("learner", "support_residuals"),
    ("complexity", "estimate_min_m"),
    ("experiments", "run_command"),
)

# (module, class, method); a constructor or validation hook is reported
# under the class name
METHODS = (
    ("states", "DensityMatrix", "__post_init__"),
    ("learner", "EffectBatch", "__init__"),
    ("learner", "Objective", "gradient"),
    ("complexity", "TrialCache", "epsilon_estimate"),
    ("table", "ResultTable", "write"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(
    f"{m}.{c}" if meth.startswith("__") else f"{m}.{c}.{meth}" for m, c, meth in METHODS
)

# bottom eigenvalue counted as repeated when the next one lies within
# this share of the spectral radius (at least 1)
DEGENERATE_RTOL = 1e-9


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _rebind(original, replacement) -> list:
    """Point every qpac module name bound to ``original`` at
    ``replacement``; returns what :func:`_restore` needs to undo it."""
    patched = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "qpac" or key.startswith("qpac.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                patched.append((mod, attr, original))
                setattr(mod, attr, replacement)
    return patched


def _restore(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    patched.clear()


class StepCounter:
    """Frank-Wolfe steps taken, from ``Hypothesis.iterations_used``.

    The only instrumentation of an untraced run: one counter update per
    optimization, each of which takes milliseconds.
    """

    def __init__(self):
        self.fw_steps = 0
        self._lock = threading.Lock()
        self._patched: list = []

    def install(self) -> None:
        original = sys.modules["qpac.learner"].hazan_optimize

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            with self._lock:
                self.fw_steps += result.iterations_used
            return result

        self._patched = _rebind(original, counted)

    def remove(self) -> None:
        _restore(self._patched)


class Tracer:
    """Holds every span in memory until :meth:`write` at the end of a run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        signature = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, next(tracer._ids), parent and parent.span_id,
                        threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, bound.arguments, result)
                if parent is not None:
                    # keep the counting work out of the parent's self time
                    parent.child_s += time.perf_counter() - span.end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Patch every traced function and method; undone by :meth:`remove`."""
        for (module, func), name in zip(FUNCTIONS, SPAN_NAMES):
            original = getattr(sys.modules[f"qpac.{module}"], func)
            self._patched += _rebind(original, self._wrap(name, original, _AFTER.get(name)))
        for (module, cls_name, meth), name in zip(METHODS, SPAN_NAMES[len(FUNCTIONS):]):
            cls = getattr(sys.modules[f"qpac.{module}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, _AFTER.get(name)))

    def remove(self) -> None:
        _restore(self._patched)

    @property
    def fw_steps(self) -> int:
        return self.counts["fw_steps"]

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.span_id, s.parent_id, s.thread,
                                     s.start, s.end, s.self_s]) + "\n")

    def layer_metrics(self, pool_threads: int) -> dict:
        """Per-layer values as {name: (value, unit)}."""
        calls = Counter(s.name for s in self.spans)
        self_s = Counter()
        total_s = Counter()
        for s in self.spans:
            self_s[s.name] += s.self_s
            total_s[s.name] += s.end - s.start
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (float(self_s[name]), "s")
            metrics[f"{name}.total_s"] = (float(total_s[name]), "s")

        def share(numerator: int, base: int) -> float:
            return numerator / base if base else 0.0

        eig_calls = calls["linalg.smallest_eigenvector"]
        metrics["linalg.degenerate_share"] = (share(self.counts["degenerate"], eig_calls), "ratio")
        metrics["learner.fw_steps"] = (self.counts["fw_steps"], "count")
        metrics["learner.zero_gradient_stop_share"] = (
            share(self.counts["zero_gradient_stops"], calls["learner.hazan_optimize"]), "ratio"
        )
        # a TrialCache lookup hits when it ran no optimization of its own
        lookups = [s for s in self.spans if s.name == "complexity.TrialCache.epsilon_estimate"]
        optimizing = {s.parent_id for s in self.spans if s.name == "learner.hazan_optimize"}
        hits = sum(1 for s in lookups if s.span_id not in optimizing)
        metrics["complexity.cache_hits"] = (hits, "count")
        metrics["complexity.cache_hit_ratio"] = (share(hits, len(lookups)), "ratio")
        searches = sum(s.end - s.start for s in self.spans if s.name == "complexity.estimate_min_m")
        runs = sum(s.end - s.start for s in self.spans if s.name == "experiments.run_command")
        metrics["experiments.pool_utilization"] = (
            searches / (runs * pool_threads) if runs else 0.0, "ratio"
        )
        metrics["table.ResultTable.write.bytes"] = (self.counts["bytes_written"], "bytes")
        return metrics


def _after_eigenvector(tracer: Tracer, args: dict, result) -> None:
    vals = np.linalg.eigvalsh(np.asarray(args["h"]))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if len(vals) > 1 and vals[1] - vals[0] <= DEGENERATE_RTOL * scale:
        tracer.count("degenerate")


def _after_optimize(tracer: Tracer, args: dict, result) -> None:
    tracer.count("fw_steps", result.iterations_used)
    # without an objective threshold, fewer steps than k_max means the
    # zero-gradient check stopped the loop
    if args["stop_objective"] is None and result.iterations_used < args["k_max"]:
        tracer.count("zero_gradient_stops")


def _after_write(tracer: Tracer, args: dict, result) -> None:
    tracer.count("bytes_written", os.path.getsize(args["path"]))


_AFTER = {
    "linalg.smallest_eigenvector": _after_eigenvector,
    "learner.hazan_optimize": _after_optimize,
    "table.ResultTable.write": _after_write,
}
