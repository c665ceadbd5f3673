"""In-memory spans around ldfm's layer functions, installed from outside.

Each hook replaces a module attribute at the place where its caller looks
the name up (``ldfm.evaluation.run_chain``, ``ldfm.cli.load_model``, ...),
so nothing under ``src/`` is edited.  A span records its name, start, end,
parent span and thread id; self time is the span's duration minus its
direct children, which by construction run on the same thread (pool
workers start with an empty stack, so their spans have no parent).
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    layer: str  # metric prefix, "<layer>.<function>"
    # result -> {counter: value} recorded on the span
    counters: Callable[[Any], dict] | None = None


def _batch(result) -> dict:
    return {"items": int(np.shape(result)[0])}


def _batch_of_pair(result) -> dict:
    return {"items": int(np.shape(result[0])[0])}


def _joint(result) -> dict:
    return {"items": int(np.shape(result)[0]), "neginf_items": int(np.isneginf(result).sum())}


def _em(result) -> dict:
    return {"em_iters": len(result[1]) - 1}


HOOKS = (
    Hook("ldfm.matrix_tree", "partition_and_posteriors_many",
         "matrix_tree.partition_and_posteriors_many", _batch_of_pair),
    Hook("ldfm.matrix_tree", "assignment_matrices", "matrix_tree.assignment_matrices", _batch),
    Hook("ldfm.matrix_tree", "log_partition_many", "matrix_tree.log_partition_many", _batch),
    Hook("ldfm.matrix_tree", "unnormalized_log_joint_many",
         "matrix_tree.unnormalized_log_joint_many", _joint),
    Hook("ldfm.learning", "train_em", "learning.train_em", _em),
    Hook("ldfm.learning", "e_step", "learning.e_step"),
    Hook("ldfm.learning", "m_step", "learning.m_step"),
    Hook("ldfm.learning", "data_log_likelihood", "learning.data_log_likelihood"),
    Hook("ldfm.sampling", "gibbs_sweep", "sampling.gibbs_sweep"),
    Hook("ldfm.sampling", "tree_augmented_step", "sampling.tree_augmented_step"),
    # ``evaluation`` and ``cli`` imported these names, so they are patched there
    Hook("ldfm.evaluation", "run_chain", "sampling.run_chain"),
    Hook("ldfm.evaluation", "evaluate", "evaluation.evaluate"),
    Hook("ldfm.cli", "forward_sample", "dataio.forward_sample"),
    Hook("ldfm.cli", "load_dataset", "dataio.load_dataset"),
    Hook("ldfm.cli", "load_model", "dataio.load_model"),
    Hook("ldfm.cli", "save_model", "dataio.save_model"),
)

DISPATCH = "cli.dispatch"


class Tracer:
    """Collects spans in memory; ``spans`` rows are
    (id, name, start, end, parent, thread, counters or None)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), None))

    def _wrap(self, fn, hook: Hook):
        # Inlined rather than built on span(): the tree sampler makes ~10^5
        # calls per pass, so each microsecond here is visible as overhead.
        spans, ids, name, count = self.spans, self._ids, hook.layer, hook.counters
        clock, ident, stack_of = time.perf_counter, threading.get_ident, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, name, start, end, parent, ident(),
                          count(result) if count else None))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, hooks=HOOKS):
        """Patch every hook that still exists; record the others as absent."""
        saved = []
        try:
            for hook in hooks:
                module = importlib.import_module(hook.module)
                fn = getattr(module, hook.attr, None)
                if fn is None:
                    if hook.layer not in self.absent:
                        self.absent.append(hook.layer)
                    continue
                saved.append((module, hook.attr, fn))
                setattr(module, hook.attr, self._wrap(fn, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self) -> dict:
        """JSON-ready spans as [id, name, start, end, parent, thread, counters]."""
        return {"absent": self.absent, "spans": [list(s) for s in self.spans]}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: defaultdict = field(default_factory=lambda: defaultdict(int))
    durations: list = field(default_factory=list)


def aggregate(spans) -> dict[str, LayerStats]:
    """Per-name call counts, total and self seconds, summed counters."""
    child_s: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict[str, LayerStats] = {}
    for sid, name, start, end, _, _, counters in spans:
        st = out.setdefault(name, LayerStats())
        st.calls += 1
        st.total_s += end - start
        st.self_s += end - start - child_s[sid]
        st.durations.append(end - start)
        for key, value in (counters or {}).items():
            st.counters[key] += value
    return out


def high_percentile(values) -> tuple[float, float]:
    """(percentile, value) for the highest listed percentile that leaves at
    least ten samples beyond it; with fewer than 20 samples, the maximum."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(xs, pct))
    return 100.0, (float(xs[-1]) if len(xs) else 0.0)


IO_LAYERS = ("dataio.forward_sample", "dataio.load_dataset", "dataio.load_model",
             "dataio.save_model")


def layer_metrics(setup_spans, timed_spans) -> dict[str, float]:
    """The per-layer metric set for one traced pipeline pass.

    Compute layers count the timed command only, so the eval workloads'
    set-up training does not blur their picture; I/O and dispatch layers,
    which set-up time depends on, count the whole pass.
    """
    timed = aggregate(timed_spans)
    setup = aggregate(setup_spans)

    def get(name) -> LayerStats:
        return timed.get(name) or LayerStats()

    def whole(name, attr) -> float:
        return sum(getattr(phase[name], attr) for phase in (setup, timed) if name in phase)

    m: dict[str, float] = {}
    for name in ("matrix_tree.partition_and_posteriors_many", "matrix_tree.assignment_matrices",
                 "matrix_tree.log_partition_many", "matrix_tree.unnormalized_log_joint_many"):
        st = get(name)
        m[f"{name}.calls"] = st.calls
        m[f"{name}.items"] = st.counters["items"]
        m[f"{name}.self_s"] = st.self_s
    lpm = get("matrix_tree.log_partition_many")
    m["matrix_tree.log_partition_many.items_per_call"] = (
        lpm.counters["items"] / lpm.calls if lpm.calls else 0.0
    )
    m["matrix_tree.unnormalized_log_joint_many.neginf_items"] = get(
        "matrix_tree.unnormalized_log_joint_many").counters["neginf_items"]
    m["learning.e_step.self_s"] = get("learning.e_step").self_s
    m["learning.m_step.self_s"] = get("learning.m_step").self_s
    m["learning.data_log_likelihood.total_s"] = get("learning.data_log_likelihood").total_s
    m["learning.em_iters"] = get("learning.train_em").counters["em_iters"]
    for name in ("sampling.gibbs_sweep", "sampling.tree_augmented_step"):
        m[f"{name}.calls"] = get(name).calls
        m[f"{name}.self_s"] = get(name).self_s
    chains = get("sampling.run_chain")
    pct, hi = high_percentile(chains.durations)
    m["sampling.run_chain.calls"] = chains.calls
    m["sampling.run_chain.p50_ms"] = (
        1e3 * float(np.median(chains.durations)) if chains.calls else 0.0
    )
    m["sampling.run_chain.p_hi_ms"] = 1e3 * hi
    m["sampling.run_chain.p_hi_pct"] = pct
    evaluate = get("evaluation.evaluate")
    m["evaluation.evaluate.total_s"] = evaluate.total_s
    m["evaluation.busy_ratio"] = chains.total_s / evaluate.total_s if evaluate.total_s else 0.0
    for name in IO_LAYERS:
        m[f"{name}.total_s"] = whole(name, "total_s")
    m[f"{DISPATCH}.self_s"] = whole(DISPATCH, "self_s")
    return m
