"""Query-instance generation, metric aggregation, and a model-free baseline.

The evaluation protocol draws test rows, splits the variables into query /
evidence / hidden subsets at given fractions, estimates the conditional
(marginal) log-likelihood of the query values by sampling, and reports the
per-instance maximum of the two metrics normalized by query count.  An
independence baseline (smoothed per-variable marginals, no sampling) gives
the floor any dependency-aware model should beat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .model import MISSING, LdfmModel, VariableSchema
from .rng import make_rng
from .sampling import QueryInstance, SamplerConfig, estimate_cll, estimate_cmll, run_chains

REPORT_FIELDS = (
    "instances",
    "q_frac",
    "e_frac",
    "mean_cll",
    "mean_cmll",
    "mean_max",
    "seconds_train",
    "seconds_infer",
)

# Chains per engine call in ``evaluate``: caps draw memory at
# EVAL_BLOCK * samples * n int64 values however many instances there are.
EVAL_BLOCK = 64


@dataclass(frozen=True)
class EvalReport:
    instances: int
    q_frac: float
    e_frac: float
    per_cll: tuple[float, ...]
    per_cmll: tuple[float, ...]
    per_max: tuple[float, ...]
    mean_cll: float
    mean_cmll: float
    mean_max: float
    seconds_train: float = 0.0
    seconds_infer: float = 0.0


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
        evidence = [inst.evidence for inst in block]
        seeds = [[config.seed, idx] for idx in range(first, first + len(block))]
        draws = run_chains(model, evidence, config, seeds)
        for instance, samples in zip(block, draws):
            per_cll.append(estimate_cll(samples, instance, normalize=True))
            per_cmll.append(estimate_cmll(samples, instance, cards, normalize=True))
        del draws, samples  # free this block's draws before the next block allocates its own
    seconds_infer = time.perf_counter() - t0

    per_max = tuple(max(a, b) for a, b in zip(per_cll, per_cmll))
    return EvalReport(
        instances=len(instances),
        q_frac=q_frac,
        e_frac=e_frac,
        per_cll=tuple(per_cll),
        per_cmll=tuple(per_cmll),
        per_max=per_max,
        mean_cll=float(np.mean(per_cll)),
        mean_cmll=float(np.mean(per_cmll)),
        mean_max=float(np.mean(per_max)),
        seconds_infer=seconds_infer,
    )


def format_report(report: EvalReport) -> str:
    values = {
        "instances": str(report.instances),
        "q_frac": f"{report.q_frac:g}",
        "e_frac": f"{report.e_frac:g}",
        "mean_cll": f"{report.mean_cll:.6f}",
        "mean_cmll": f"{report.mean_cmll:.6f}",
        "mean_max": f"{report.mean_max:.6f}",
        "seconds_train": f"{report.seconds_train:.3f}",
        "seconds_infer": f"{report.seconds_infer:.3f}",
    }
    return "\n".join(f"{name}: {values[name]}" for name in REPORT_FIELDS) + "\n"


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


def baseline_query_logprob(baseline: IndependenceBaseline, instance: QueryInstance) -> float:
    """Log probability of the query values; evidence is ignored by construction."""
    return float(
        sum(baseline.log_marginals[v][instance.query[v]] for v in instance.query_vars)
    )


def evaluate_baseline(
    baseline: IndependenceBaseline,
    instances: list[QueryInstance],
    q_frac: float,
    e_frac: float,
) -> EvalReport:
    """Closed-form report: under independence the CLL and CMLL coincide."""
    per = []
    for instance in instances:
        per.append(baseline_query_logprob(baseline, instance) / instance.query_vars.size)
    per_t = tuple(per)
    mean = float(np.mean(per_t))
    return EvalReport(
        instances=len(instances),
        q_frac=q_frac,
        e_frac=e_frac,
        per_cll=per_t,
        per_cmll=per_t,
        per_max=per_t,
        mean_cll=mean,
        mean_cmll=mean,
        mean_max=mean,
    )
