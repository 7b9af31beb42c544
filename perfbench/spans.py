"""Span recording around fiberk's cross-module call sites.

The recorder replaces module attributes (for example
``fiberk.backends.pair_inner_products`` or the ``read_fibers`` name that
``fiberk.cli`` imported) with timing wrappers while a traced invocation runs,
and puts the originals back afterwards, so no library code changes. Each span
is ``(run_id, span_id, parent_id, name, start, end)``; spans stay in memory
until :meth:`Recorder.write` is called. A layer's self time is its span
duration minus the time covered by its child spans.

A span name none of whose attributes exists any more (a later refactor removed
the call site) is listed in :attr:`Recorder.absent`; metrics that depend on it
are then left out of the report instead of reading zero. ``run.py`` does the
same for a span that exists but was not called, unless the workload lists it
as off its path.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from collections import Counter, defaultdict


def _file_bytes(args, kwargs, result):
    return {"fileio.read_bytes": os.path.getsize(args[0]), "fileio.fibers_read": len(result)}


def _atoms(args, kwargs, result):
    return {"currents.atoms": len(result)}


def _candidates(args, kwargs, result):
    return {"kfunction.candidate_pairs": len(result[0])}


def _pair_work(args, kwargs, result):
    offsets, ia, ib = args[2], args[3], args[4]
    sizes = offsets[1:] - offsets[:-1]
    return {
        "backends.pairs": len(ia),
        "backends.kernel_evals": int((sizes[ia] * sizes[ib]).sum()),
    }


def _written(args, kwargs, result):
    return {"fileio.write_bytes": len(args[1].encode())}


# (span name, module, attribute, count function or None)
INVOCATION_BOUNDARIES = [
    ("fileio.read_fibers", "fiberk.cli", "read_fibers", _file_bytes),
    ("fiber_core.segment", "fiberk.cli", "segment", None),
    ("kfunction.inset_window", "fiberk.cli", "inset_window", None),
    ("kfunction.k_function", "fiberk.cli", "k_function", None),
    ("fiber_core.center", "fiberk.cli", "center", None),
    ("fiber_core.center", "fiberk.kfunction", "center", None),
    ("currents.discretize", "fiberk.cli", "discretize", _atoms),
    ("currents.discretize", "fiberk.kfunction", "discretize", _atoms),
    ("kfunction.candidate_pairs", "fiberk.kfunction", "_candidate_pairs", _candidates),
    ("backends.self_norms", "fiberk.backends", "self_norms_sq", None),
    ("backends.pair_inner", "fiberk.backends", "pair_inner_products", _pair_work),
    ("currents.min_distance", "fiberk.cli", "min_distance", None),
    ("currents.inner_product", "fiberk.currents", "inner_product", None),
    ("backends.inner", "fiberk.backends", "inner", None),
    ("fileio.write", "fiberk.cli", "write_kcsv", None),
    ("fileio.write", "fiberk.cli", "_atomic_write", _written),
    ("fileio.write", "fiberk.fileio", "_atomic_write", _written),
]

SETUP_BOUNDARIES = [
    ("simulate.make_dataset", "fiberk.cli", "make_dataset", None),
    ("fileio.write_fibers", "fiberk.cli", "write_fibers", None),
]


class Recorder:
    """Collects spans, self times, call counts and work counts per invocation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: set[str] = set()
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 0
        self._run_id = 0
        self._self = defaultdict(float)
        self._calls = Counter()
        self._deferred: list = []

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self._self[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self._calls[name] += 1
                self.spans.append((self._run_id, span_id, parent, name, t0, t1))
            if count is not None:
                self._deferred.append((count, args, kwargs, result))
            return result

        return wrapper

    def run(self, run_id: int, boundaries, root: str, fn, *args):
        """Call ``fn(*args)`` under a root span named ``root`` with every
        boundary wrapped. Returns ``(result, layer_stats)``; the call's
        exception, if any, propagates after the originals are restored."""
        self._run_id = run_id
        self._self.clear()
        self._calls.clear()
        self._deferred.clear()
        saved = []
        present = set()
        for name, module_name, attr, count in boundaries:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
            present.add(name)
        self.absent |= {name for name, *_ in boundaries} - present
        try:
            result = self._wrap(root, fn, None)(*args)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        counts = Counter()
        for count, a, kw, res in self._deferred:
            counts.update(count(a, kw, res))
        self._deferred.clear()
        stats = {
            "self_s": {name: self._self.get(name, 0.0) for name in present | {root}},
            "calls": {name: self._calls.get(name, 0) for name in present | {root}},
            "counts": dict(counts),
        }
        return result, stats

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id,span_id,parent_id,name,start,end\n")
            for run_id, span_id, parent, name, t0, t1 in self.spans:
                fh.write(f"{run_id},{span_id},{parent},{name},{t0:.9f},{t1:.9f}\n")
