"""Span tracing of epicross layers from outside the package.

The traced run wraps the public functions of `epidemic`, `likelihood`,
`cross` and `driver` in place: every attribute of an `epicross.*` module
(or, for a method, the owning class) that *is* the target function is
replaced by a wrapper that records a span, and the originals are put back
when the traced block ends.  A target that no longer exists is skipped, so it
reports zero calls instead of crashing the benchmark.  Spans are kept in
memory; per-layer numbers are derived from them after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, defining module, attribute path); a dotted attribute path
# names a method on a class of that module.  Several targets may share a
# span name (the harvest is TT export plus the enumerated argmax).
TARGETS = (
    ("epidemic.generator", "epicross.epidemic", "build_generator"),
    ("epidemic.expm", "epicross.epidemic", "transition_matrix"),
    ("epidemic.columns", "epicross.epidemic", "transition_columns"),
    ("epidemic.read_trajectory", "epicross.epidemic", "read_trajectory"),
    ("likelihood.loglik", "epicross.likelihood", "log_likelihood"),
    ("cross.optimize", "epicross.cross", "cross_optimize"),
    ("cross.sweep", "epicross.cross", "sweep"),
    ("cross.rook", "epicross.cross", "matrix_cross_step"),
    ("cross.bond_view", "epicross.cross", "CrossInterpolant.bond_view"),
    ("cross.admit", "epicross.cross", "CrossInterpolant.admit"),
    ("cross.harvest", "epicross.cross", "CrossInterpolant.tensor_train"),
    ("cross.harvest", "epicross.cross", "tensor_argmax"),
    ("cross.tt_eval", "epicross.cross", "TensorTrain.eval"),
    ("driver.score_init", "epicross.driver", "score_init"),
    ("driver.run_inference", "epicross.driver", "run_inference"),
    ("driver.brute_force", "epicross.driver", "brute_force_mle"),
)

# the objective run_inference hands to cross_optimize: each call is a memo
# lookup, and a lookup that reaches log_likelihood is a miss
MEMO = "likelihood.memo"

# spans whose self time is the cross optimizer's own work; TensorTrain.eval
# is the objective of the bare-callable workload, not optimizer work
CROSS_SELF = ("cross.optimize", "cross.sweep", "cross.rook", "cross.bond_view",
              "cross.admit", "cross.harvest")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.max_rank = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_optimizer(self, fn):
        """cross_optimize wrapper: records the span, wraps the objective
        when the caller is run_inference, and keeps the largest bond rank."""
        @functools.wraps(fn)
        def traced(objective, *args, **kwargs):
            if self._inside("driver.run_inference"):
                objective = _MemoProbe(objective, self)
            idx = self._open("cross.optimize")
            try:
                result = fn(objective, *args, **kwargs)
            finally:
                self._close(idx)
            self.max_rank = max(self.max_rank, max(getattr(result, "ranks", None) or [0]))
            return result
        return traced

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)


class _MemoProbe:
    """Stand-in for the objective: times each call as a memo span and
    forwards every other attribute (counters, argmax) to the original."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        idx = self._tracer._open(MEMO)
        try:
            return self._inner(*args, **kwargs)
        finally:
            self._tracer._close(idx)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a target, or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every present target for the duration of the block, then
    restore the originals even if the block raises."""
    replaced = []  # (owner, attribute, original)
    try:
        for name, module_name, path in targets:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = (tracer.wrap_optimizer(fn) if name == "cross.optimize"
                       else tracer.wrap(name, fn))
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(mod, key)
                           for mod_name, mod in list(sys.modules.items())
                           if mod is not None and (mod_name == "epicross"
                                                   or mod_name.startswith("epicross."))
                           for key, value in list(vars(mod).items()) if value is fn]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                replaced.append((holder, key, fn))
        yield tracer
    finally:
        for holder, key, fn in reversed(replaced):
            setattr(holder, key, fn)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - union_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """{span name: {"calls": n, "self_s": seconds}} plus memo hits: memo
    spans under which no log_likelihood span ran."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s, t in zip(spans, own):
        entry = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += t
    missed = set()
    for s in spans:
        if s.name == "likelihood.loglik":
            p = s.parent
            while p is not None and spans[p].name != MEMO:
                p = spans[p].parent
            if p is not None:
                missed.add(p)
    n_memo = totals.get(MEMO, {"calls": 0})["calls"]
    totals.setdefault(MEMO, {"calls": 0, "self_s": 0.0})["hits"] = n_memo - len(missed)
    return totals
