"""Spans around the calls into each cubelab module, recorded from outside.

The package under test is not edited.  Instead every public function of a
cubelab module, and every name one cubelab module imports from another
(for example the ``weyl_sum``, ``_batch_rule`` and ``_smooth_count``
bindings held by ``arcs``), is replaced in each module namespace that
holds it by a wrapper that records a span.  ``Instrumentation.restore``
puts the original objects back.

A span is (name, start, end, parent index, error class or None).  Spans
stay in memory until the run ends; self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from types import ModuleType

#: The cubelab modules, each one layer.  ``cli`` runs in a subprocess and is
#: measured from its manifest, so it is not wrapped in-process.
MODULES = ("params", "smooth", "expsums", "genfun", "arcs", "repcount", "experiments")

_ROOT = "op"  # the benchmark's own span around one workload op


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def span(self, name: str, fn, hook=None):
        """Wrap fn so that each call records a span called name.

        hook(tracer, args, kwargs, result), when given, adds counters after
        a call that returned.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, error)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def run_op(self, fn, *args):
        """Run one workload op under a root span."""
        return self.span(_ROOT, fn)(*args)


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach, start), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def self_by_root(spans: list[tuple]) -> dict[int, Counter]:
    """Self time by span name under each root span (one root per workload op)."""
    selfs = self_times(spans)
    root: list[int] = []
    out: dict[int, Counter] = defaultdict(Counter)
    for idx, (name, _, _, parent, _) in enumerate(spans):
        root.append(idx if parent < 0 else root[parent])  # parents precede children
        out[root[idx]][name] += selfs[idx]
    return dict(out)


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _owner_name(obj) -> str | None:
    """'module.function' for a cubelab function or cached function, else None."""
    owner = getattr(obj, "__module__", None) or ""
    if not owner.startswith("cubelab.") or inspect.isclass(obj):
        return None
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    return f"{owner.split('.', 1)[1]}.{obj.__name__}"


def wrap_targets(modules: dict[str, ModuleType]) -> dict[int, tuple[str, object]]:
    """id(original) -> (span name, original) for every object to wrap.

    Wrapped: plain functions a module exports in ``__all__`` (cached table
    accessors are read through their cache statistics instead, since they
    are hit thousands of times per op), and every function or cached
    function that a module imports from another cubelab module.
    """
    targets: dict[int, tuple[str, object]] = {}
    for short, mod in modules.items():
        exported = set(getattr(mod, "__all__", ()))
        for attr, obj in vars(mod).items():
            name = _owner_name(obj)
            if name is None:
                continue
            own = obj.__module__ == mod.__name__
            if (own and attr in exported and inspect.isfunction(obj)) or not own:
                targets[id(obj)] = (name, obj)
    return targets


class Instrumentation:
    """Installs tracer wrappers into the cubelab namespaces and undoes it."""

    def __init__(self, tracer: Tracer, hooks: dict | None = None) -> None:
        self.tracer = tracer
        self.hooks = hooks or {}
        self.modules = {m: importlib.import_module(f"cubelab.{m}") for m in MODULES}
        self._saved: list[tuple[ModuleType, str, object]] = []

    def install(self) -> "Instrumentation":
        targets = wrap_targets(self.modules)
        wrappers = {key: self.tracer.span(name, obj, self.hooks.get(name))
                    for key, (name, obj) in targets.items()}
        namespaces = list(self.modules.values()) + [importlib.import_module("cubelab")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        return self

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans: list[tuple]) -> dict:
    """Aggregate spans into per-module and per-function calls and self time.

    Returns {"modules": {m: {"calls", "self_s", "errors": {class: n}}},
    "functions": {name: {"calls", "self_s", "total_s"}}, "ops": [(op seconds,
    seconds covered by module spans)]}.  An error counts for a module when
    the exception leaves it: the failing span's parent is not in the same
    module.
    """
    selfs = self_times(spans)
    modules: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                     "errors": Counter()})
    functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                       "total_s": 0.0})
    ops = []
    for idx, (name, start, end, parent, error) in enumerate(spans):
        if name == _ROOT:
            ops.append([end - start, (end - start) - selfs[idx]])
            continue
        mod = module_of(name)
        modules[mod]["calls"] += 1
        modules[mod]["self_s"] += selfs[idx]
        fn = functions[name]
        fn["calls"] += 1
        fn["self_s"] += selfs[idx]
        fn["total_s"] += end - start
        if error is not None:
            parent_mod = module_of(spans[parent][0]) if parent >= 0 else None
            if parent_mod != mod:
                modules[mod]["errors"][error] += 1
    return {"modules": dict(modules), "functions": dict(functions), "ops": ops}
