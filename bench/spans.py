"""In-memory span tracer for the public functions of each ``dynrisk`` layer.

``Tracer.install`` wraps every function and method in ``TARGETS``.  Modules
rebind names with ``from .space import ...``, so a function is replaced in
every ``dynrisk.*`` namespace that holds it, not only where it is defined;
methods are replaced on their class.  Each call records a span
``(id, target, start, end, parent, instance)``; self time is a span's
duration minus the part of it its child spans cover.  ``self_check``
compares span counts with cProfile call counts, which catches a name the
patching missed.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import itertools
import pstats
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _count_stopping_times(c, args, kwargs, out):
    c["space.stopping_times.count"] += len(out)


def _tail_key(c, args, kwargs, out):
    a, theta = args
    c.distinct("processes.conditional_tail", (id(a.space), a.t_start, a.values.tobytes(), theta.values.tobytes()))


def _class_stats(c, args, kwargs, out):
    X = args[0]
    c["rearrange.enumerate_class.members"] += out.size
    c.distinct("rearrange.enumerate_class", (id(X.space), X.t_start, X.values.tobytes()))


def _neg_inf(c, args, kwargs, out):
    if out[0] == float("-inf"):
        c["lp.neg_inf"] += 1


def _tuples(c, args, kwargs, out):
    c["worstcase.tuples"] += out.search_size


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str  # "func" or "Class.method"
    metric: str  # metric prefix; several targets may share one
    hook: Callable | None = None


TARGETS = [
    Target("dynrisk.space", "ConditionalValue.__init__", "space.ConditionalValue"),
    Target("dynrisk.space", "enumerate_stopping_times", "space.enumerate_stopping_times", _count_stopping_times),
    Target("dynrisk.space", "cond_expect", "space.cond_expect"),
    Target("dynrisk.space", "enumerate_stopping_events", "space.enumerate_stopping_events"),
    Target("dynrisk.processes", "concatenate", "processes.concatenate"),
    Target("dynrisk.processes", "paste", "processes.paste"),
    Target("dynrisk.processes", "membership", "processes.membership"),
    Target("dynrisk.processes", "DensityProcess.conditional_tail", "processes.conditional_tail", _tail_key),
    Target("dynrisk.processes", "_Windowed.__init__", "processes.validated"),
    Target("dynrisk.processes", "pairing", "processes.pairing"),
    Target("dynrisk.processes", "stability_check", "processes.stability_check"),
    Target("dynrisk.processes", "m1_closure", "processes.m1_closure"),
    Target("dynrisk.utility", "EntropicUtility.evaluate", "utility.EntropicUtility.evaluate"),
    Target("dynrisk.utility", "RobustEntropicUtility.evaluate", "utility.RobustEntropicUtility.evaluate"),
    Target("dynrisk.utility", "DualFiniteUtility.evaluate", "utility.DualFiniteUtility.evaluate"),
    Target("dynrisk.utility", "UtilityProcess.evaluate_at_stopping", "utility.evaluate_at_stopping"),
    Target("dynrisk.utility", "time_consistency_check", "utility.time_consistency_check"),
    Target("dynrisk.utility", "check_axioms", "utility.check_axioms"),
    Target("dynrisk.utility", "penalty", "utility.penalty"),
    Target("dynrisk.lp", "solve_box_lp_highs", "lp.solve"),
    Target("dynrisk.lp", "solve_box_lp_vertices", "lp.solve"),
    Target("dynrisk.lp", "minimize_with_escalation", "lp.minimize_with_escalation", _neg_inf),
    Target("dynrisk.rearrange", "enumerate_class", "rearrange.enumerate_class", _class_stats),
    Target("dynrisk.rearrange", "max_correlation", "rearrange.max_correlation"),
    Target("dynrisk.rearrange", "is_comonotone", "rearrange.is_comonotone"),
    Target("dynrisk.worstcase", "worst_portfolio_bruteforce", "worstcase.worst_portfolio_bruteforce", _tuples),
    Target("dynrisk.worstcase", "worst_scenario", "worstcase.worst_scenario"),
    Target("dynrisk.worstcase", "verify_theorem_3_1", "worstcase.verify_theorem_3_1"),
    Target("dynrisk.worstcase", "verify_preservation", "worstcase.verify_preservation"),
    Target("dynrisk.worstcase", "check_adapted_worst_process", "worstcase.check_adapted_worst_process"),
    Target("dynrisk.parallel", "map_chunks", "parallel.map_chunks"),
]
CHUNK = len(TARGETS)  # target index of the per-chunk spans map_chunks opens
MAP_CHUNKS = next(i for i, t in enumerate(TARGETS) if t.qualname == "map_chunks")


class Counters(dict):
    """Hook counters plus distinct-key sets, for the waste ratios."""

    def __init__(self):
        super().__init__()
        self.keys: dict[str, set] = {}

    def __missing__(self, key):
        return 0

    def distinct(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.workers: dict[int, int] = {}  # map_chunks span id -> effective worker count
        self.counters = Counters()
        self.instance = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []
        self.originals: list[Callable] = []

    def reset(self) -> None:
        self.spans = []
        self.workers = {}
        self.counters = Counters()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, index: int, hook: Callable | None) -> Callable:
        tracer = self
        is_map = index == MAP_CHUNKS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span = next(tracer._ids)
            if is_map:
                args, kwargs = tracer._trace_chunks(span, args, kwargs)
            stack.append(span)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span, index, start, end, parent, tracer.instance))
            if hook is not None:
                hook(tracer.counters, args, kwargs, out)
            return out

        return wrapper

    def _trace_chunks(self, span: int, args, kwargs):
        """Give every chunk of one map_chunks(fn, ranges, workers) call its
        own child span, parented to the call's span from any thread."""
        fn, ranges, workers = args
        parallel = workers is not None and workers > 1 and len(ranges) > 1
        self.workers[span] = min(workers, len(ranges)) if parallel else 1
        tracer = self

        def chunk(lo, hi):
            stack = tracer._stack()
            own = next(tracer._ids)
            stack.append(own)
            start = perf_counter()
            try:
                return fn(lo, hi)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((own, CHUNK, start, end, span, tracer.instance))

        return (chunk, ranges, workers), kwargs

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "dynrisk" or name.startswith("dynrisk.")]
        for index, target in enumerate(TARGETS):
            owner = importlib.import_module(target.module)
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, index, target.hook))
                self._undo.append((cls, attr, orig))
            else:
                orig = getattr(owner, target.qualname)
                wrapper = self._wrap(orig, index, target.hook)
                for mod in modules:
                    for name in [k for k, v in vars(mod).items() if v is orig]:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, orig))
            self.originals.append(orig)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    def self_check(self, run: Callable[[], None]) -> list[str]:
        """Run under cProfile; return every target whose span count differs
        from cProfile's call count of the wrapped function."""
        self.reset()
        prof = cProfile.Profile()
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
        stats = pstats.Stats(prof).stats
        spans = np.bincount([s[1] for s in self.spans], minlength=CHUNK + 1)
        mismatches = []
        for index, (target, orig) in enumerate(zip(TARGETS, self.originals)):
            code = orig.__code__
            ncalls = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
            if ncalls != spans[index]:
                mismatches.append(f"{target.module}.{target.qualname}: {spans[index]} spans, {ncalls} calls")
        self.reset()
        return mismatches

    def span_arrays(self) -> dict[str, np.ndarray]:
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        order = np.argsort(arr[:, 0], kind="stable")
        arr = arr[order]
        return {
            "id": arr[:, 0].astype(np.int64),
            "target": arr[:, 1].astype(np.int64),
            "start": arr[:, 2],
            "end": arr[:, 3],
            "parent": arr[:, 4].astype(np.int64),
            "instance": arr[:, 5].astype(np.int64),
        }


def self_times(sp: dict[str, np.ndarray]) -> np.ndarray:
    """Duration minus the union of child intervals, per span.

    Children of one parent are sorted by start; shifting each parent's group
    by a large per-group offset lets one running maximum of end times serve
    every group, so overlapping children (chunks on worker threads) are not
    counted twice.
    """
    dur = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    if not has_parent.any():
        return dur
    pos = np.searchsorted(sp["id"], sp["parent"][has_parent])
    start, end = sp["start"][has_parent], sp["end"][has_parent]
    order = np.lexsort((start, pos))
    pos, start, end = pos[order], start[order], end[order]
    origin = sp["start"].min()
    width = sp["end"].max() - origin + 1.0
    shift = np.unique(pos, return_inverse=True)[1] * width - origin
    s, e = start + shift, end + shift
    prev_end = np.concatenate([[-np.inf], np.maximum.accumulate(e)[:-1]])
    covered = np.maximum(e - np.maximum(s, prev_end), 0.0)
    child = np.zeros(dur.size)
    np.add.at(child, pos, covered)
    return dur - child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced pass."""
    names = sorted({t.metric for t in TARGETS})
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    sp = tracer.span_arrays()
    own = self_times(sp)
    for index, target in enumerate(TARGETS):
        mask = sp["target"] == index
        out[f"{target.metric}.calls"] += int(mask.sum())
        out[f"{target.metric}.self_s"] += float(own[mask].sum())
    chunks = sp["target"] == CHUNK
    maps = sp["target"] == MAP_CHUNKS
    busy = float((sp["end"][chunks] - sp["start"][chunks]).sum())
    workers = np.array([tracer.workers[int(i)] for i in sp["id"][maps]], dtype=float)
    wall = sp["end"][maps] - sp["start"][maps]
    out["parallel.chunks"] = int(chunks.sum())
    out["parallel.busy_s"] = busy
    out["parallel.idle_s"] = float((workers * wall).sum()) - busy
    c = tracer.counters
    for key in ("space.stopping_times.count", "rearrange.enumerate_class.members", "lp.neg_inf", "worstcase.tuples"):
        out[key] = c[key]
    out["space.ConditionalValue.validated"] = out.pop("space.ConditionalValue.calls")
    out["processes.conditional_tail.reuse"] = _ratio(
        out["processes.conditional_tail.calls"], len(c.keys.get("processes.conditional_tail", ()))
    )
    out["rearrange.enumerate_class.repeat_ratio"] = _ratio(
        out["rearrange.enumerate_class.calls"], len(c.keys.get("rearrange.enumerate_class", ()))
    )
    out["lp.solves"] = out.pop("lp.solve.calls")
    out["lp.retry_ratio"] = _ratio(out["lp.solves"], out.pop("lp.minimize_with_escalation.calls"))
    out.pop("lp.minimize_with_escalation.self_s")
    out["worstcase.passes_per_scan"] = _ratio(
        out["parallel.map_chunks.calls"], out["worstcase.worst_portfolio_bruteforce.calls"]
    )
    out.pop("parallel.map_chunks.self_s")
    return out


RATIOS = {
    "processes.conditional_tail.reuse",
    "rearrange.enumerate_class.repeat_ratio",
    "lp.retry_ratio",
    "worstcase.passes_per_scan",
    "parallel.speedup",
}


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name in RATIOS else "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
