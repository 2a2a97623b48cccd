"""Timing wrappers around the calls into each mrenew module.

The package imports functions by name, so a wrapper is installed at every
name a caller looks up, not only where the function is defined.  Calls at a
layer boundary become spans (name, start, end, parent span, request id) kept
in memory.  The hottest leaf calls (kernel transforms, Kummer evaluations,
series terms, simulation steps) are counted, and where timed, their time is
charged to the enclosing span as child time, so that memory stays small.
A span's self time is its duration minus the time of its child spans and
timed leaf calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, request id, child seconds]
        self._open = []
        self.request = None
        self.counts = Counter()
        self.busy = Counter()    # seconds spent in timed leaf calls, per layer
        self.max_n = 0

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.request, 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._open.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def leaf(self, layer: str, seconds: float) -> None:
        self.busy[layer] += seconds
        if self._open:
            self.spans[self._open[-1]][5] += seconds

    def self_seconds(self) -> Counter:
        out = Counter()
        for name, start, end, _, _, child in self.spans:
            out[name.split(".")[0]] += end - start - child
        return out

    def span_seconds(self, layer: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0].split(".")[0] == layer)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _is_finite(x) -> bool:
    try:
        return math.isfinite(x)
    except TypeError:
        return True


def _spanned(tracer, name, after=None):
    layer = name.split(".")[0]

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[layer + ".errors"] += 1
                raise
            finally:
                tracer.close(index)
            if after is not None:
                after(result)
            return result
        return wrapper
    return wrap


def _inversion(tracer, name):
    """Span for one inversion call; counts the abscissas it evaluates."""
    def count_abscissas(transform):
        def counted(s):
            tracer.counts["invert.abscissas"] += 1
            return transform(s)
        return counted

    def wrap(fn):
        spanned = _spanned(tracer, name)(fn)

        @functools.wraps(fn)
        def wrapper(transform, *args, **kwargs):
            return spanned(count_abscissas(transform), *args, **kwargs)
        return wrapper
    return wrap


def _timed_leaf(tracer, layer, errors_if_nonfinite=False):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[layer + ".calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[layer + ".errors"] += 1
                raise
            finally:
                tracer.leaf(layer, perf_counter() - start)
            if errors_if_nonfinite and not _is_finite(result):
                tracer.counts[layer + ".errors"] += 1
            return result
        return wrapper
    return wrap


def _counted(tracer, key, after=None):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper
    return wrap


def _entry_points(tracer):
    """(module, attribute, layer, wrapper factory) for every traced name."""
    counts = tracer.counts

    def row_done(row):
        counts["oracle.rows"] += 1
        counts["oracle.accepted_states"] += getattr(row, "truncation_n", -1) + 1

    def truncated_done(row):
        n = getattr(row, "truncation_n", -1)
        counts["oracle.states_swept"] += n + 1
        tracer.max_n = max(tracer.max_n, n)

    def entry_done(value):
        counts["closedform.entries"] += 1
        if not _is_finite(value):
            counts["closedform.nonfinite"] += 1

    def simulated(estimates):
        counts["mcsim.paths"] += getattr(estimates[0], "n_paths", 0) if estimates else 0

    row = _spanned(tracer, "oracle.solve_row_adaptive", row_done)
    entry = _spanned(tracer, "closedform.rbar_closed_form", entry_done)
    return [
        ("cli", "renewal_function", "invert", _spanned(tracer, "invert.renewal_function")),
        ("cli", "solve_row_adaptive", "oracle", row),
        ("cli", "rbar_closed_form", "closedform", entry),
        ("cli", "simulate_renewal_counts", "mcsim",
         _spanned(tracer, "mcsim.simulate_renewal_counts", simulated)),
        ("invert", "solve_row_adaptive", "oracle", row),
        ("invert", "rbar_closed_form", "closedform", entry),
        ("invert", "gaver_stehfest", "invert", _inversion(tracer, "invert.gaver_stehfest")),
        ("invert", "euler_inversion", "invert", _inversion(tracer, "invert.euler_inversion")),
        ("oracle", "solve_row_truncated", "oracle",
         _counted(tracer, "oracle.truncated_solves", truncated_done)),
        ("closedform", "kummer_m", "hyperg", _timed_leaf(tracer, "hyperg", True)),
        ("hyperg", "pochhammer_ratio_step", "hyperg", _counted(tracer, "hyperg.terms")),
        ("mcsim", "step_embedded", "mcsim", _counted(tracer, "mcsim.events")),
        ("model", "MMInfinityKernel.transforms", "model", _timed_leaf(tracer, "model")),
    ]


@contextmanager
def installed(tracer, package):
    """Install the wrappers; yield (missing entry points, absent layers).

    A name that a refactor removed is reported instead of failing the run;
    a layer is absent when none of its names is left.  Every original is
    restored on exit.
    """
    restore, missing, found = [], [], set()
    entry_points = _entry_points(tracer)
    try:
        for module_name, attr, layer, wrap in entry_points:
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ModuleNotFoundError:
                owner = None
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if not callable(original):
                missing.append(f"{package}.{module_name}.{attr}")
                continue
            found.add(layer)
            restore.append((owner, name, vars(owner).get(name), name in vars(owner)))
            setattr(owner, name, wrap(original))
        absent = sorted({layer for _, _, layer, _ in entry_points} - found)
        yield missing, absent
    finally:
        for owner, name, original, had_own in reversed(restore):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
