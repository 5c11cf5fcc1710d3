"""Span tracing for the benchmark, recorded from the benchmark's own files.

The tracer wraps sudler's public functions at the names their callers look
them up by (for example ``sudler.products.log_two_sin``, which is the name
``scan`` and ``log_sudler_shifted`` resolve at call time), so the library is
traced without editing it.  Spans stay in memory until the run ends and are
reduced per operation into per-layer busy times, self times and counters.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time


def _elements_out(args, kwargs, result):
    return {"elements": len(result)}


def _log_two_sin_counts(args, kwargs, result):
    return {"elements": len(args[0]), "zeros": int(result[1])}


def _scan_counts(args, kwargs, result):
    from sudler import products

    return {"blocks": -(-int(result.q_K) // getattr(products, "CHUNK", 1 << 16))}


def _decompose_counts(args, kwargs, result):
    return {"blocks": len(result.factors)}


def _grid_points(args, kwargs, result):
    return {"points": len(result)}


# (layer name, where the original lives, the names callers look it up by,
#  counter).  A name that no longer exists is skipped and listed in
#  Tracer.unresolved, which the traced run prints and records: a later
#  refactor that removes a function leaves its metrics at 0 without failing
#  the run, and the list says why they read 0.
PATCHES = (
    ("cf.build_table", "sudler.cf:build_table",
     ("sudler:build_table", "sudler.cli:build_table"), None),
    ("cf.frac_doubles", "sudler.cf:ConvergentTable.frac_doubles",
     ("sudler.cf:ConvergentTable.frac_doubles",), _elements_out),
    ("numerics.frac_parts_dd", "sudler.numerics:frac_parts_dd",
     ("sudler.cf:frac_parts_dd",), _elements_out),
    ("numerics.log_two_sin", "sudler.numerics:log_two_sin",
     ("sudler.products:log_two_sin",), _log_two_sin_counts),
    ("numerics.kahan_sum", "sudler.numerics:kahan_sum",
     ("sudler.products:kahan_sum",), None),
    ("products.scan", "sudler.products:scan",
     ("sudler:scan", "sudler.cli:scan", "sudler.theorems:scan"), _scan_counts),
    ("products.log_sudler_shifted", "sudler.products:log_sudler_shifted",
     ("sudler.products:log_sudler_shifted", "sudler.limitfn:log_sudler_shifted",
      "sudler.theorems:log_sudler_shifted"), None),
    ("products.log_sudler", "sudler.products:log_sudler",
     ("sudler.theorems:log_sudler",), None),
    ("products.decompose", "sudler.products:decompose",
     ("sudler.cli:decompose",), _decompose_counts),
    ("ostrowski.encode", "sudler.ostrowski:encode",
     ("sudler.cli:encode", "sudler.theorems:encode"), None),
    ("ostrowski.epsilon_profile", "sudler.ostrowski:epsilon_profile",
     ("sudler.products:epsilon_profile", "sudler.theorems:epsilon_profile",
      "sudler.cli:epsilon_profile"), None),
    ("cotangent.v_k", "sudler.cotangent:v_k",
     ("sudler.cli:v_k", "sudler.theorems:v_k"), None),
    ("limitfn.empirical_limit", "sudler.limitfn:empirical_limit",
     ("sudler:empirical_limit", "sudler.cli:empirical_limit"), _grid_points),
    ("limitfn.g_alpha", "sudler.limitfn:g_alpha",
     ("sudler:g_alpha", "sudler.cli:g_alpha"), None),
    ("theorems.log_sin_integral", "sudler.theorems:log_sin_integral",
     ("sudler.theorems:log_sin_integral",), None),
    ("theorems.d_k_terms", "sudler.theorems:d_k_terms",
     ("sudler.theorems:d_k_terms",), None),
    ("theorems.theorem1_check", "sudler.theorems:theorem1_check",
     ("sudler.cli:theorem1_check",), None),
    ("theorems.lcnorm_prediction", "sudler.theorems:lcnorm_prediction",
     ("sudler.cli:lcnorm_prediction",), None),
    ("theorems.pnstar_prediction", "sudler.theorems:pnstar_prediction",
     ("sudler.cli:pnstar_prediction",), None),
)


def _resolve(path):
    """(owner, attribute) for "module:attr[.attr]", or None if it is gone."""
    module, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module)
        *parents, attr = dotted.split(".")
        for name in parents:
            owner = getattr(owner, name)
        getattr(owner, attr)
    except (ImportError, AttributeError):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder.

    A span is (id, name, parent id, operation id, start, end, counts).  Worker
    threads start with an empty stack; their spans are parented to the
    innermost open span of the thread that opened the operation, which is
    blocked waiting for them.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._op = None
        self._saved = []
        self.unresolved = set()  # PATCHES paths that did not resolve

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread() else [])
            self._local.stack = stack
        return stack

    def call(self, name, fn, args, kwargs, counter=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stack.pop()
            self.spans.append((sid, name, parent, self._op, t0, time.perf_counter(), None))
            raise
        t1 = time.perf_counter()
        stack.pop()
        counts = counter(args, kwargs, result) if counter is not None else None
        self.spans.append((sid, name, parent, self._op, t0, t1, counts))
        return result

    def operation(self, op_id, name, fn):
        """Run fn() as the root span of one operation occurrence."""
        self._op = op_id
        try:
            return self.call(name, fn, (), {})
        finally:
            self._op = None

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def install(self):
        for name, home, sites, counter in PATCHES:
            found = _resolve(home)
            if found is None:
                self.unresolved.add(home)
                continue
            wrapper = self._wrap(name, getattr(*found), counter)
            for site in sites:
                target = _resolve(site)
                if target is None:
                    self.unresolved.add(site)
                    continue
                owner, attr = target
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def operation_stats(spans):
    """Per-layer metrics of one operation occurrence.

    ``<layer>.s`` is busy time (the summed durations of the outermost spans of
    that layer, so concurrent calls from worker threads add up),
    ``<layer>.calls`` their number, ``<layer>.self_s`` busy time minus the part
    covered by child spans, and ``<layer>.<counter>`` the summed counters.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for sid, name, parent, _, t0, t1, counts in spans:
        nested = False
        p = parent
        while p in by_id:
            if by_id[p][1] == name:
                nested = True
                break
            p = by_id[p][2]
        if nested:
            continue
        add(f"{name}.s", t1 - t0)
        add(f"{name}.calls", 1)
        kids = [(c[4], c[5]) for c in children.get(sid, ())]
        add(f"{name}.self_s", (t1 - t0) - _covered(kids, t0, t1))
        for key, value in (counts or {}).items():
            add(f"{name}.{key}", value)
    return out

