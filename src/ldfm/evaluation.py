"""Query-instance generation, metric aggregation, and a model-free baseline.

The evaluation protocol draws test rows, splits the variables into query /
evidence / hidden subsets at given fractions, estimates the conditional
(marginal) log-likelihood of the query values by sampling, and reports the
per-instance maximum of the two metrics normalized by query count.  An
independence baseline (smoothed per-variable marginals, no sampling) gives
the floor any dependency-aware model should beat.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .model import MISSING, LdfmModel, VariableSchema
from .rng import make_rng
from .sampling import QueryInstance, SamplerConfig, estimate_cll, estimate_cmll, run_chains

# Each report line's field and its format spec, in print order.
_REPORT_FORMATS = {
    "instances": "d",
    "q_frac": "g",
    "e_frac": "g",
    "mean_cll": ".6f",
    "mean_cmll": ".6f",
    "mean_max": ".6f",
    "seconds_train": ".3f",
    "seconds_infer": ".3f",
}
REPORT_FIELDS = tuple(_REPORT_FORMATS)

# Chains per engine call in ``evaluate``: caps draw memory at
# EVAL_BLOCK * samples * n int64 values however many instances there are.
EVAL_BLOCK = 64


@dataclass(frozen=True)
class EvalReport:
    """Per-instance CLL and CMLL values, as tuples; the count, maximum and
    means derive from them.  ``seconds_train`` reads 0.0: evaluation fits no model."""

    q_frac: float
    e_frac: float
    per_cll: tuple[float, ...]
    per_cmll: tuple[float, ...]
    seconds_infer: float = 0.0
    seconds_train = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_cll", tuple(self.per_cll))
        object.__setattr__(self, "per_cmll", tuple(self.per_cmll))
        if not self.per_cll:
            raise ValueError("a report needs at least one instance, got 0")
        if len(self.per_cll) != len(self.per_cmll):
            raise ValueError(f"got {len(self.per_cll)} CLL and {len(self.per_cmll)} CMLL values")

    @property
    def instances(self) -> int:
        return len(self.per_cll)

    @property
    def per_max(self) -> tuple[float, ...]:
        return tuple(max(a, b) for a, b in zip(self.per_cll, self.per_cmll))

    @property
    def mean_cll(self) -> float:
        return float(np.mean(self.per_cll))

    @property
    def mean_cmll(self) -> float:
        return float(np.mean(self.per_cmll))

    @property
    def mean_max(self) -> float:
        return float(np.mean(self.per_max))


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def make_query_instances(
    dataset: Dataset, q_frac: float, e_frac: float, count: int, seed
) -> list[QueryInstance]:
    """Query instances drawn from test rows (cyclically reused) with a
    random variable partition per instance.

    |Q| = round(q_frac * n) and |E| = round(e_frac * n) (half rounds up),
    with |E| shrunk if needed so the split fits; a q_frac that rounds to
    zero query variables, or a count below one, is an error.
    """
    if count < 1:
        raise ValueError(f"instance count must be at least 1, got {count}")
    # NaN fails every comparison, so finiteness is checked first
    if not (math.isfinite(q_frac) and math.isfinite(e_frac)):
        raise ValueError(f"q_frac and e_frac must be finite, got {q_frac} and {e_frac}")
    if q_frac < 0 or e_frac < 0 or q_frac + e_frac > 1 + 1e-12:
        raise ValueError("fractions must be nonnegative with q_frac + e_frac <= 1")
    if len(dataset) == 0:
        raise ValueError("dataset has no rows")
    n = dataset.schema.n
    n_query = _round_half_up(q_frac * n)
    if n_query == 0:
        raise ValueError(f"q_frac={q_frac} rounds to zero query variables for n={n}")
    n_evidence = min(_round_half_up(e_frac * n), n - n_query)
    rng = make_rng(seed)
    instances = []
    for k in range(count):
        row = dataset.rows[k % len(dataset)]
        perm = rng.permutation(n)
        query = np.full(n, MISSING, dtype=np.int64)
        evidence = np.full(n, MISSING, dtype=np.int64)
        query[perm[:n_query]] = row[perm[:n_query]]
        evidence[perm[n_query : n_query + n_evidence]] = row[perm[n_query : n_query + n_evidence]]
        instances.append(QueryInstance(query=query, evidence=evidence))
    return instances


def evaluate(
    model: LdfmModel,
    instances: list[QueryInstance],
    config: SamplerConfig,
    q_frac: float,
    e_frac: float,
) -> EvalReport:
    """Sample each instance and aggregate normalized CLL/CMLL/max metrics.

    Each instance gets its own chain seeds derived from (config.seed, index),
    so reports are deterministic and instances stay independent.  Instances
    run in blocks of at most EVAL_BLOCK chains (at least one instance).
    """
    cards = model.schema.cards
    per_block = max(1, EVAL_BLOCK // config.chains)
    t0 = time.perf_counter()
    per_cll, per_cmll = [], []
    for first in range(0, len(instances), per_block):
        block = instances[first : first + per_block]
        model.schema.check_values([inst.query for inst in block], "query")
        evidence = [inst.evidence for inst in block]
        seeds = [[config.seed, idx] for idx in range(first, first + len(block))]
        draws = run_chains(model, evidence, config, seeds)
        for instance, samples in zip(block, draws):
            per_cll.append(estimate_cll(samples, instance, normalize=True))
            per_cmll.append(estimate_cmll(samples, instance, cards, normalize=True))
        del draws, samples  # free this block's draws before the next block allocates its own
    return EvalReport(q_frac, e_frac, per_cll, per_cmll, time.perf_counter() - t0)


def format_report(report: EvalReport) -> str:
    return "".join(
        f"{name}: {getattr(report, name):{spec}}\n" for name, spec in _REPORT_FORMATS.items()
    )


# -- independence baseline ----------------------------------------------------


@dataclass(frozen=True)
class IndependenceBaseline:
    """Per-variable marginals with add-one smoothing; no dependencies at all."""

    schema: VariableSchema
    log_marginals: tuple[np.ndarray, ...]


def fit_independence_baseline(dataset: Dataset) -> IndependenceBaseline:
    schema = dataset.schema
    total = len(dataset)
    margs = []
    for i in range(schema.n):
        counts = np.bincount(dataset.rows[:, i], minlength=int(schema.cards[i]))
        m = np.log((counts + 1.0) / (total + float(schema.cards[i])))
        m.setflags(write=False)
        margs.append(m)
    return IndependenceBaseline(schema, tuple(margs))


def evaluate_baseline(
    baseline: IndependenceBaseline,
    instances: list[QueryInstance],
    q_frac: float,
    e_frac: float,
) -> EvalReport:
    """Closed-form report from the log probability of each instance's
    checked query values; evidence is ignored, so the CLL and CMLL coincide."""
    for inst in instances:
        baseline.schema.check_values(inst.query, "query")
    per = [
        float(sum(baseline.log_marginals[v][inst.query[v]] for v in inst.query_vars))
        / inst.query_vars.size
        for inst in instances
    ]
    return EvalReport(q_frac, e_frac, per, per)
