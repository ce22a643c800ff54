"""Counting and tracing wrappers, installed on frachh from outside.

Each wrapped name is replaced at every binding of the original object
in the loaded ``frachh.*`` modules, so a call is seen whichever module
it goes through.  A name that no longer exists is recorded as missing.
``Patches.restore`` puts every original back.

Counting wraps the ``fn`` and ``deriv`` callables of every corpus entry
the corpus builders return; a point of the product f*g is two calls.
Tracing records one span (name, start, end, parent) per call of the
public names below and accumulates per-layer counters next to them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MISSING = object()
RETRY_NOTE = "retried at tol/100"


def _bindings(obj):
    for name, module in list(sys.modules.items()):
        if name == "frachh" or name.startswith("frachh."):
            for attr, value in list(vars(module).items()):
                if value is obj:
                    yield module, attr


class Patches:
    """Replaces objects at every binding in frachh.* and restores them."""

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _lookup(self, path: str):
        module_name, _, attr = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module_name), attr, MISSING)
        except ImportError:
            return MISSING

    def function(self, path: str, make) -> None:
        original = self._lookup(path)
        if original is MISSING:
            self.missing.append(path)
            return
        new = make(original)
        for module, attr in _bindings(original):
            self._undo.append((module, attr, original))
            setattr(module, attr, new)

    def method(self, path: str, make) -> None:
        cls_path, _, attr = path.rpartition(".")
        cls = self._lookup(cls_path)
        original = vars(cls).get(attr, MISSING) if cls is not MISSING else MISSING
        if original is MISSING:
            self.missing.append(path)
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def count_integrands(patches: Patches, counts: Counter) -> None:
    """Count calls of corpus f ("f"), f' ("deriv") and g ("g")."""

    def counter(fn, key):
        def counted(x):
            counts[key] += 1
            return fn(x)
        return counted

    def corpus(fields):
        def make(build):
            @functools.wraps(build)
            def counted_build(*args, **kwargs):
                return [dataclasses.replace(spec, **{
                            field: counter(getattr(spec, field), key)
                            for field, key in fields
                            if getattr(spec, field) is not None})
                        for spec in build(*args, **kwargs)]
            return counted_build
        return make

    patches.function("frachh.functions.builtin_function_corpus",
                     corpus((("fn", "f"), ("deriv", "deriv"))))
    patches.function("frachh.functions.builtin_weight_corpus",
                     corpus((("fn", "g"),)))


class Tracer:
    """Spans kept in memory, with per-name call, total and self times.

    A span's self time is its duration minus the time its child spans
    cover; calls are sequential, so children never overlap.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self._stack: list[list] = []  # [span index, child seconds]

    def wrap(self, fn, name, after=None, args=False):
        """Trace fn as `name`, or as name(arguments) when name is callable.

        after(arguments, result) runs once fn returns; arguments are
        bound, with defaults applied, only when `args` is true.
        """
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*a, **kw):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*a, **kw)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                bound = None
                if args:
                    bound = signature.bind(*a, **kw)
                    bound.apply_defaults()
                    bound = bound.arguments
                label = name(bound) if callable(name) else name
                spans[index] = (label, start, end, parent)
                calls[label] += 1
                total[label] += elapsed
                self_time[label] += elapsed - frame[1]
            if after is not None:
                after(bound, result)
            return result

        return traced

    def seen(self, kind: str, key) -> None:
        """Count `kind.calls`, and `kind.repeats` when key was seen before."""
        keys = self.keys.setdefault(kind, set())
        self.counts[kind + ".calls"] += 1
        if key in keys:
            self.counts[kind + ".repeats"] += 1
        else:
            keys.add(key)

    def install(self, patches: Patches) -> None:
        counts = self.counts

        def quad(prefix):
            def after(args, result):
                counts[prefix + ".evals"] += result.evaluations
                counts[prefix + ".tol_unmet"] += not result.tolerance_met
            return after

        singular_quad = quad("numerics.integrate_singular")

        def singular(args, result):
            singular_quad(args, result)
            alpha = args["alpha"]
            band = ("alpha_lt1" if alpha < 1.0 else
                    "alpha_eq1" if alpha == 1.0 else "alpha_gt1")
            counts["singular." + band + ".calls"] += 1
            counts["singular." + band + ".evals"] += result.evaluations

        def j(side):
            def after(args, result):
                s = args["s"]
                self.seen("fracops.j", (side, args["h"], s.a, s.b, s.alpha,
                                        args["tol"]))
            return after

        def sup_norm(args, result):
            self.seen("functions.sup_norm",
                      (args["g"], args["a"], args["b"], args["grid"],
                       args["refine_rounds"]))

        def run_rows(args, rows):
            counts["inequalities." + args["ident"] + ".retries"] += sum(
                RETRY_NOTE in row.get("notes", ()) for row in rows)

        def kernel_build(args, result):
            counts["numerics.CumulativeKernel.build.evals"] += (
                args["self"].evaluations)

        wrap = self.wrap
        patches.function("frachh.cli.main",
                         lambda fn: wrap(fn, "cli.main"))
        patches.function("frachh.cli.run_rows", lambda fn: wrap(
            fn, lambda args: "inequalities." + args["ident"], run_rows, True))
        for builder in ("builtin_function_corpus", "builtin_weight_corpus"):
            patches.function("frachh.functions." + builder,
                             lambda fn: wrap(fn, "functions.corpus_build"))
        patches.function("frachh.functions.sup_norm", lambda fn: wrap(
            fn, "functions.sup_norm", sup_norm, True))
        for side in ("j_left", "j_right"):
            patches.function("frachh.fracops." + side,
                             lambda fn, side=side: wrap(fn, "fracops.j",
                                                        j(side), True))
        patches.function("frachh.numerics.integrate_smooth", lambda fn: wrap(
            fn, "numerics.integrate_smooth", quad("numerics.integrate_smooth")))
        patches.function("frachh.numerics.integrate_singular", lambda fn: wrap(
            fn, "numerics.integrate_singular", singular, True))
        patches.method("frachh.numerics.CumulativeKernel.__init__",
                       lambda fn: wrap(fn, "numerics.CumulativeKernel.build",
                                       kernel_build, True))
        patches.method("frachh.numerics.CumulativeKernel.__call__",
                       lambda fn: wrap(fn, "numerics.CumulativeKernel.call"))
