"""EM training from complete-data samples.

The structure of each sample is latent, so the E-step computes per-sample
edge posteriors (already normalized by the per-sample tree-weight total)
and accumulates them per <source key, target key> cell.  Posteriors depend
on a sample only through its assignment, so the E-step visits each
distinct row once and weights it by its count.  The training data stay
fixed during a fit, so :func:`train_em` checks and counts them once and
hands the same distinct rows to every E-step and to its final score.  The
M-step is the closed-form ratio of those counts, optionally smoothed.  The
objective is the sum of per-sample log joint weights, which is the model
log-likelihood up to an assignment-independent constant.
"""

from __future__ import annotations

import enum
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import matrix_tree
from .model import (
    WEIGHT_FLOOR,
    LdfmModel,
    Variant,
    VariableSchema,
    _check_count,
    _row_keys,
    _uniform_tables,
    make_uniform_model,
)

logger = logging.getLogger(__name__)

# Fixed E-step chunk size: partial sums do not depend on the worker count,
# so results are reproducible for any --workers value.
CHUNK = 256


class Smoothing(enum.Enum):
    NONE = "none"
    ADDITIVE = "additive"
    SPARSITY = "sparsity"


@dataclass(frozen=True)
class TrainConfig:
    """EM knobs; defaults keep Laplacians nonsingular on held-out data."""

    max_iters: int = 100
    rel_tol: float = 1e-5
    smoothing: Smoothing = Smoothing.ADDITIVE
    eps: float = 0.1
    kappa: float = 0.5
    variant: Variant = Variant.PLAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "smoothing", Smoothing(self.smoothing))
        object.__setattr__(self, "variant", Variant(self.variant))
        _check_count("max_iters", self.max_iters, 1)
        for name in ("eps", "kappa", "rel_tol"):
            value = getattr(self, name)
            # NaN fails every comparison, so finiteness is checked first
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "rel_tol" and value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")


@dataclass
class SufficientStats:
    """Accumulated E-step statistics.

    ``edge[r, c]`` is the summed posterior mass of source row r generating
    target key c over all samples where both keys' values occur; ``occur[r]``
    counts samples containing the key (the root occurs in every sample).
    """

    edge: np.ndarray
    occur: np.ndarray
    sample_count: int = 0
    loglik: float = 0.0

    @classmethod
    def zeros(cls, schema: VariableSchema) -> "SufficientStats":
        k = schema.num_keys
        return cls(np.zeros((1 + k, k)), np.zeros(1 + k))

    def __add__(self, other: "SufficientStats") -> "SufficientStats":
        return SufficientStats(
            self.edge + other.edge,
            self.occur + other.occur,
            self.sample_count + other.sample_count,
            self.loglik + other.loglik,
        )


class TraceEntry(NamedTuple):
    """Per-iteration objective terms: data log-likelihood and log-prior."""

    loglik: float
    prior: float

    @property
    def objective(self) -> float:
        return self.loglik + self.prior


class _DistinctRows(NamedTuple):
    """Checked samples counted once: the distinct rows in order of first
    appearance, how often each occurs, and the sample index where each
    first occurs."""

    rows: np.ndarray
    counts: np.ndarray
    first: np.ndarray


def _distinct_rows(xs: np.ndarray) -> _DistinctRows:
    """Distinct rows of ``xs`` in order of first appearance."""
    xs = np.ascontiguousarray(xs)
    _, first, counts = np.unique(_row_keys(xs), return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return _DistinctRows(xs[first], counts[order], first)


def _counted(data, schema: VariableSchema) -> _DistinctRows:
    """``data`` checked and counted, unless it already is."""
    if isinstance(data, _DistinctRows):
        return data
    xs = schema.check_assignments(data)
    if xs.shape[0] == 0:
        raise ValueError("data must contain at least one sample")
    return _distinct_rows(xs)


def _chunk_stats(model: LdfmModel, xs: np.ndarray, counts: np.ndarray) -> SufficientStats:
    """Statistics of distinct rows ``xs`` (already checked), each weighted
    by its count."""
    schema = model.schema
    k = schema.num_keys
    rows = schema.assignment_rows(xs)
    weights = matrix_tree.assignment_matrices(model, rows)
    logz, post = matrix_tree.partition_and_posteriors_many(weights)

    post *= counts[:, None, None]
    # posterior cell (i, j) goes back to the dep cell it was gathered from
    cells = schema.edge_cells(rows).ravel()
    edge = np.bincount(cells, weights=post.ravel(), minlength=(1 + k) * k)
    occur = np.bincount(rows.ravel(), weights=np.repeat(counts, rows.shape[1]), minlength=1 + k)
    ll = float(logz @ counts) + float(model.log_stop[rows].sum(axis=1) @ counts)
    return SufficientStats(edge.reshape(1 + k, k), occur, int(counts.sum()), ll)


def _map_chunks(fn: Callable, distinct: _DistinctRows, workers: int | None) -> list:
    """``fn(rows, counts)`` over fixed-size chunks of distinct rows.

    Chunk boundaries do not depend on ``workers``, so reducing the results
    in order gives the same floats for any worker count.  A singular chunk
    item is re-raised naming its sample by first index in the data.
    """
    rows, counts, first = distinct

    def run(s: int):
        try:
            return fn(rows[s : s + CHUNK], counts[s : s + CHUNK])
        except matrix_tree.SingularLaplacianError as exc:
            bad = int(first[s + exc.index])
            raise matrix_tree.SingularLaplacianError(
                f"sample {bad} has no positive-weight spanning tree", index=bad
            ) from exc

    starts = range(0, len(rows), CHUNK)
    if workers is not None and workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, starts))
    return [run(s) for s in starts]


def e_step(model: LdfmModel, data, workers: int | None = None) -> SufficientStats:
    """Edge-posterior statistics and log-likelihood over complete samples,
    one pass per distinct sample weighted by its count; identical for any
    worker count.  ``data`` may also be the samples already counted by
    :func:`train_em`."""
    parts = _map_chunks(partial(_chunk_stats, model), _counted(data, model.schema), workers)
    return sum(parts[1:], parts[0])


def _chunk_loglik(model: LdfmModel, xs: np.ndarray, counts: np.ndarray) -> float:
    """Count-weighted log-likelihood of distinct rows from log Z alone."""
    return float(matrix_tree.unnormalized_log_joint_many(model, xs) @ counts)


def data_log_likelihood(model: LdfmModel, data) -> float:
    """Sum over samples of the log unnormalized joint weight; ``data`` may
    also be already counted, as for :func:`e_step`."""
    return sum(_map_chunks(partial(_chunk_loglik, model), _counted(data, model.schema), None))


def m_step(stats: SufficientStats, config: TrainConfig, schema: VariableSchema) -> LdfmModel:
    """Closed-form weight update from accumulated statistics.

    Plain: each source row is its outgoing posterior mass renormalized.
    Stop-augmented: the stop outcome competes with the outgoing mass, with
    an expected stop count of one per sample in which the key occurs.
    Unobserved source keys fall back to the uniform row; all weights are
    floored at a tiny positive value and renormalized so later Laplacians
    stay nonsingular.
    """
    if stats.sample_count < 1:
        raise ValueError("stats must cover at least one sample")
    mask = schema.source_mask
    edge = np.where(mask, stats.edge, 0.0)
    occur = stats.occur.copy()
    if config.smoothing is Smoothing.ADDITIVE and config.eps > 0:
        edge = edge + np.where(mask, config.eps, 0.0)
        occur = occur + config.eps
    elif config.smoothing is Smoothing.SPARSITY and config.kappa > 0:
        edge = np.where(mask, np.maximum(edge - config.kappa, WEIGHT_FLOOR), 0.0)
        occur = np.maximum(occur - config.kappa, WEIGHT_FLOOR)

    # one ratio for both variants: stop mass competes with the outgoing
    # mass, and plain has none
    uniform_dep, uniform_stop = _uniform_tables(schema, config.variant)
    stop_mass = occur if config.variant is Variant.STOP_AUGMENTED else 0.0
    mass = stop_mass + edge.sum(axis=1)
    usable = (stats.occur > 0) & (mass > 0)
    denom = np.where(usable, mass, 1.0)
    dep = np.where(usable[:, None], edge / denom[:, None], uniform_dep)
    dep = np.where(mask, np.maximum(dep, WEIGHT_FLOOR), 0.0)
    if config.variant is Variant.PLAIN:
        totals = dep.sum(axis=1)
        return LdfmModel(schema, config.variant, dep / np.where(totals > 0, totals, 1.0)[:, None])
    stop = np.maximum(np.where(usable, occur / denom, uniform_stop), WEIGHT_FLOOR)
    total = dep.sum(axis=1) + stop
    return LdfmModel(schema, config.variant, dep / total[:, None], stop / total)


def _log_prior(model: LdfmModel, config: TrainConfig) -> float:
    """Log-prior term of the MAP objective (zero when smoothing is NONE)."""
    if config.smoothing is Smoothing.NONE:
        return 0.0
    total = float(model.log_dep[model.schema.source_mask].sum()) + float(model.log_stop.sum())
    if config.smoothing is Smoothing.ADDITIVE:
        return config.eps * total
    return -config.kappa * total


def train_em(
    data,
    schema: VariableSchema,
    config: TrainConfig,
    workers: int | None = None,
) -> tuple[LdfmModel, list[TraceEntry]]:
    """Run EM from the uniform model; returns the model and objective trace.

    The trace holds one entry per evaluated model (initial model included),
    recording the data log-likelihood and the log-prior term separately;
    with no smoothing the log-likelihood itself is monotone.  The samples
    are checked and counted once, before the first E-step.  EM stops when
    the objective gains less than ``rel_tol`` relative to its last value,
    and warns when it fell.
    """
    distinct = _counted(data, schema)
    logger.debug("e-step over %d distinct rows of %d", len(distinct.rows), int(distinct.counts.sum()))
    model = make_uniform_model(schema, config.variant)
    trace: list[TraceEntry] = []

    def record(loglik: float) -> TraceEntry:
        entry = TraceEntry(loglik, _log_prior(model, config))
        trace.append(entry)
        k = len(trace) - 1
        dll = 0.0 if k == 0 else entry.loglik - trace[k - 1].loglik
        logger.info("iter=%d ll=%.6f dll=%.6f", k, entry.loglik, dll)
        return entry

    for _ in range(config.max_iters):
        stats = e_step(model, distinct, workers=workers)
        entry = record(stats.loglik)
        if len(trace) >= 2:
            prev = trace[-2].objective
            gain = entry.objective - prev
            if gain < config.rel_tol * max(abs(prev), 1e-12):
                if gain < 0:
                    logger.warning(
                        "EM objective fell by %.6g at iteration %d; stopping",
                        -gain,
                        len(trace) - 1,
                    )
                break
        model = m_step(stats, config, schema)
    else:
        record(data_log_likelihood(model, distinct))
    return model, trace
