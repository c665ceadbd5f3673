"""Scoring of seeded draws: ESS of the query-match indicator and the exact
conditional log-likelihood of the query values, plus self-checks of both.
"""

from __future__ import annotations

import math

import numpy as np

from ldfm import Dataset, TrainConfig, fixture_net, forward_sample, matrix_tree, train_em
from ldfm.evaluation import make_query_instances
from ldfm.model import MISSING, LdfmModel, VariableSchema
from ldfm.oracle import exact_conditional
from ldfm.sampling import QueryInstance

ENUM_CHUNK = 4096  # completions scored per unnormalized_log_joint_many call
AR1_PHI = 0.5
AR1_DRAWS = 100_000
AR1_REL_TOL = 0.10  # ~5 standard errors of the estimator at this length
EXACT_LOG_TOL = 1e-9


def ess(x) -> float:
    """Single-chain effective sample size by Geyer's initial monotone
    sequence; a sequence that never changes counts as one draw."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2 or np.all(x == x[0]):
        return 1.0
    xc = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n]
    rho = acov / acov[0]
    total = 0.0
    prev = math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = max(2.0 * total - 1.0, 1.0 / n)
    return n / tau


def match_indicator(draws: np.ndarray, instance: QueryInstance) -> np.ndarray:
    qv = instance.query_vars
    return np.all(draws[:, qv] == instance.query[qv][None, :], axis=1)


def exact_log_conditional(model: LdfmModel, instance: QueryInstance) -> float:
    """log P(query | evidence): the unnormalized joint summed over every
    completion of the non-evidence variables, split by query match."""
    schema = model.schema
    free = np.nonzero(instance.evidence == MISSING)[0]
    cards = schema.cards[free]
    grid = np.stack(np.unravel_index(np.arange(int(np.prod(cards))), cards), axis=1)
    xs = np.where(instance.evidence == MISSING, 0, instance.evidence)[None, :].repeat(len(grid), 0)
    xs[:, free] = grid
    logj = np.concatenate([
        matrix_tree.unnormalized_log_joint_many(model, xs[s : s + ENUM_CHUNK], on_singular="neginf")
        for s in range(0, len(xs), ENUM_CHUNK)
    ])
    match = match_indicator(xs, instance)
    return float(np.logaddexp.reduce(logj[match]) - np.logaddexp.reduce(logj))


def self_check_ess(seed: int) -> tuple[bool, str]:
    """Geyer ESS recovers n(1-phi)/(1+phi) on a seeded AR(1) sequence."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    noise = rng.standard_normal(AR1_DRAWS)
    x = np.empty(AR1_DRAWS)
    x[0] = noise[0] / math.sqrt(1.0 - AR1_PHI**2)
    for t in range(1, AR1_DRAWS):
        x[t] = AR1_PHI * x[t - 1] + noise[t]
    want = AR1_DRAWS * (1.0 - AR1_PHI) / (1.0 + AR1_PHI)
    got = ess(x)
    ok = bool(abs(got - want) <= AR1_REL_TOL * want)
    return ok, f"AR(1) phi={AR1_PHI}: ESS {got:.0f} vs {want:.0f} (rel tol {AR1_REL_TOL})"


def self_check_exact(seed: int) -> tuple[bool, str]:
    """The enumeration behind cll_abs_err equals oracle.exact_conditional on a
    small trained model (5 binary variables, inside the oracle's caps)."""
    full = forward_sample(fixture_net(8), 500, [seed, 102])
    schema = VariableSchema(full.schema.variables[:5])
    data = Dataset(schema, full.rows[:, :5])
    model, _ = train_em(data.rows, schema, TrainConfig(max_iters=5))
    worst = 0.0
    for instance in make_query_instances(data, 0.4, 0.2, 6, [seed, 103]):
        oracle = math.log(exact_conditional(model, instance.query, instance.evidence))
        worst = max(worst, abs(exact_log_conditional(model, instance) - oracle))
    return worst <= EXACT_LOG_TOL, f"n=5 model, 6 instances: max |log diff| {worst:.2e}"
