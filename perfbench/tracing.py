"""In-memory span tracing of circleqm's public functions.

`Tracer.install()` replaces every module attribute of the circleqm package
that binds a public circleqm function -- including `from`-import copies such
as `circleqm.evolve.theta` or `circleqm.mincs.bessel_j` -- with one shared
wrapper per function, and `Tracer.restore()` puts the originals back.  The
library files are never edited.  While `enabled` is false a wrapper only
forwards the call, so a benchmark check that calls the library is not
recorded.

Each recorded call is a span (name, start, end, parent id).  A span's self
time is its duration minus the durations of its direct children; the
library is single-threaded, so the children of a span never overlap.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
import types

import numpy as np

MODULES = ("specfun", "circlespace", "e2action", "mincs", "zakcs", "ladder",
           "evolve", "cli")


def _size_of_result(args, kwargs, out):
    return int(out.coeffs.size)


def _kernel_points(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["dphi"]))


# Work counted at a layer boundary: (function, counter suffix, count(args,
# kwargs, result)).
WORK_COUNTS = {
    "evolve.kernel": ("points", _kernel_points),
    "mincs.min_state": ("coeffs", _size_of_result),
    "zakcs.w_state": ("coeffs", _size_of_result),
    "circlespace.rep_apply": ("coeffs_out", _size_of_result),
}


def _cli_label(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if argv[:1] == ["verify"] and len(argv) > 1:
        return f"verify.{argv[1]}"
    return argv[0] if argv else "none"


# Spans of these functions carry a label taken from their arguments.
LABELS = {"cli.main": _cli_label}


def traced_modules():
    """The package and its modules, in the order they are patched."""
    pkg = importlib.import_module("circleqm")
    return [pkg] + [importlib.import_module(f"circleqm.{m}") for m in MODULES]


def public_bindings():
    """(module, attribute, function) for every module attribute that binds
    a public circleqm function."""
    out = []
    for mod in traced_modules():
        for attr, val in sorted(vars(mod).items()):
            if (not attr.startswith("_") and isinstance(val, types.FunctionType)
                    and val.__module__.startswith("circleqm.")):
                out.append((mod, attr, val))
    return out


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span recorder plus the patching of circleqm's public functions."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.labels: list = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work = collections.Counter()
        self._stack = [-1]
        self._saved: list = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str, label=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.labels.append(label)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn):
        tracer = self
        name = span_name(fn)
        work = WORK_COUNTS.get(name)
        label_of = LABELS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name, label_of(args, kwargs) if label_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if work is not None:
                tracer.work[f"{name}.{work[0]}"] += work[1](args, kwargs, out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, attr, fn in public_bindings():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[id(fn)])

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    # -- summaries -------------------------------------------------------
    def summary(self):
        """Per span name: calls, total and self seconds; per (name, label):
        total seconds."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        per_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
        per_label = collections.defaultdict(float)
        for i in range(n):
            row = per_name[self.names[i]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            if self.labels[i] is not None:
                per_label[(self.names[i], self.labels[i])] += dur[i]
        return dict(per_name), dict(per_label)
