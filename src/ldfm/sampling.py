"""MCMC query answering: value-wise Gibbs and tree-augmented sampling.

``run_chains`` is the one public way to draw; its two kernels take the
engine's private state (the call's Gibbs memo, each chain's parent
vector), so ``ldfm`` does not export them.

Gibbs resamples one variable at a time from the conditional implied by the
unnormalized joint, costing one determinant per distinct candidate row.
Each ``run_chains`` call keeps a two-layer memo: a variable's normalised
conditional CDF per recurring context (the chain's row with that
variable's slot blanked), and under it the log joint of every candidate
row already scored.  A warm variable step is a dictionary lookup and a
bisection; a missed context scores only the candidate rows the row layer
lacks.  The memo holds at most MEMO_CAP floats over both layers (one per
row, the domain size per conditional), is cleared when it would pass them,
and dies with the call, so its size does not grow with the number of
instances; it leaves every draw unchanged.  When the call's distinct
evidence rows can need no more than MEMO_CAP conditional floats in all,
f R for a row with f free variables and R free completions, the memo
starts as the conditional layer alone: every completion scored in one
batched call and every drawable context's CDF stored, so no step misses.
A 64-instance block at n = 8 with distinct evidence rows (24,576 floats)
still fills lazily.
Each chain draws the uniforms of a sweep in one generator call, the same
doubles one call per variable would give.

The tree-augmented chain keeps the latent spanning tree as an auxiliary
variable and resamples one node's (value, parent) pair per step, excluding
the node's own subtree as parents so the tree stays acyclic.
``run_chains`` advances many chains as one (C, n) state, each chain on its
own random stream: a Gibbs variable or a tree step is one batched set of
array operations over all chains, and both kernels normalise their weights
through one ``_row_cdfs``.  Query probabilities are estimated from the
recorded value vectors alone.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matrix_tree, rng as rng_mod
from .matrix_tree import SingularLaplacianError
from .model import MISSING, LdfmModel, _check_count, _row_keys


# Most floats a Gibbs memo stores over both layers, one per row log joint
# and a domain size per conditional (about 2 MiB at n = 20); a memo about
# to pass it is cleared.
MEMO_CAP = 1 << 14


class SamplerKind(enum.Enum):
    GIBBS = "gibbs"
    TREE_AUGMENTED = "tree"


@dataclass(frozen=True)
class QueryInstance:
    """Evidence/query split of the variables; the remainder is hidden.

    Both arrays hold a value index per variable with MISSING elsewhere.
    """

    query: np.ndarray
    evidence: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.query, dtype=np.int64)
        e = np.array(self.evidence, dtype=np.int64)
        if q.shape != e.shape or q.ndim != 1:
            raise ValueError("query and evidence must be equal-length vectors")
        if np.any((q != MISSING) & (e != MISSING)):
            raise ValueError("query and evidence variable sets must be disjoint")
        if not np.any(q != MISSING):
            raise ValueError("instance must query at least one variable")
        q.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "query", q)
        object.__setattr__(self, "evidence", e)

    @property
    def query_vars(self) -> np.ndarray:
        return np.nonzero(self.query != MISSING)[0]


@dataclass(frozen=True)
class SamplerConfig:
    sampler: SamplerKind = SamplerKind.GIBBS
    burn_in: int | None = None  # None: 10n Gibbs sweeps / 100n tree steps
    samples: int = 1000
    thin: int = 1
    chains: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sampler", SamplerKind(self.sampler))
        for name in ("samples", "thin", "chains"):
            _check_count(name, getattr(self, name), 1)
        if self.burn_in is not None:
            _check_count("burn_in", self.burn_in, 0)


def random_parent_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random valid rooted parent vector: attach nodes in random order."""
    parents = np.full(n + 1, -1, dtype=np.int64)
    attached = [0]
    for node in rng.permutation(n) + 1:
        parents[node] = attached[int(rng.integers(len(attached)))]
        attached.append(int(node))
    return parents


def _row_cdfs(logw: np.ndarray, error: Callable[[int], str]) -> np.ndarray:
    """The normalised CDF of each row of the (R, k) ``logw``, each row's
    weights being proportional to exp(row).

    The CDF is normalised as ``Generator.choice`` does, so the first index
    whose CDF passes a uniform u is the one ``choice`` would draw.  Raises
    SingularLaplacianError(error(row)) for the first row whose weights are
    all zero.
    """
    m = logw.max(axis=1, keepdims=True)
    bad = ~(m[:, 0] > -np.inf)  # all -inf, or NaN
    if bad.any():
        raise SingularLaplacianError(error(int(np.argmax(bad))))
    total = np.log(np.exp(logw - m).sum(axis=1, keepdims=True)) + m
    p = np.exp(logw - total)
    p /= p.sum(axis=1, keepdims=True)
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _draw_rows(logw: np.ndarray, rngs: list, error: Callable[[int], str]) -> np.ndarray:
    """One index per row of the (R, k) ``logw``, drawn with probability
    proportional to exp(row) from ``rngs[row]``.

    Each row consumes one ``random()`` double and yields the index that
    ``rngs[row].choice(k, p=p)`` would for the row's normalised weights p
    (see ``_row_cdfs``, which raises for an all-zero row).
    """
    cdf = _row_cdfs(logw, error)
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=1)


def _make_room(memo: dict, cards: list, floats: int) -> bool:
    """Clear the Gibbs ``memo`` if storing ``floats`` more would take it
    past MEMO_CAP, and return whether it did.  A row entry stores one float
    and an entry of ``memo[var]`` stores ``cards[var]``."""
    layers = [var for var in range(len(cards)) if var in memo]
    stored = len(memo) - len(layers) + sum(cards[var] * len(memo[var]) for var in layers)
    if stored + floats <= MEMO_CAP:
        return False
    memo.clear()
    return True


def _memo_log_joints(
    model: LdfmModel, candidates: np.ndarray, memo: dict
) -> tuple[np.ndarray, int]:
    """Log joints of the complete (R, n) rows ``candidates``, and how many
    rows had to be scored.

    Rows found in ``memo`` (keyed by a row's bytes) are read from it; the
    distinct rows it lacks are scored in one batched call and stored.  If
    they would take the memo past MEMO_CAP stored floats it is cleared and
    the whole batch rescored; a batch with more distinct rows than the cap
    is scored without being stored.  Exact because a row's log joint does
    not depend on the rows scored with it.
    """
    keys = _row_keys(candidates).tolist()
    new = {key: row for row, key in enumerate(keys) if key not in memo}
    if _make_room(memo, model.schema.cards.tolist(), len(new)):
        new = dict(zip(keys, range(len(keys))))
    table = memo if len(new) <= MEMO_CAP else {}
    if new:
        scored = matrix_tree.unnormalized_log_joint_many(
            model, candidates[list(new.values())], on_singular="neginf"
        )
        table.update(zip(new, scored.tolist()))
    return np.fromiter(map(table.__getitem__, keys), np.float64, len(keys)), len(new)


def _fill_conditionals(
    model: LdfmModel, var: int, contexts: np.ndarray, keys: list, cdfs: list, memo: dict
) -> list:
    """``cdfs`` with every None replaced by the conditional CDF of ``var``
    in the matching row of ``contexts``, whose bytes are ``keys``.

    Each distinct missed context builds its candidate rows, which are
    scored through the row layer.  The new CDFs are stored in ``memo[var]``
    (clearing the memo first if they would pass MEMO_CAP) only when the row
    layer already held every candidate row: their contexts were seen
    before, so they are likely to recur.  In a large state space most
    contexts never recur, and storing them all only churns the memo.  The
    rows held number at least the floats the CDFs need, so the CDFs fit
    under MEMO_CAP.
    """
    missed = {key: row for row, (key, cdf) in enumerate(zip(keys, cdfs)) if cdf is None}
    card = int(model.schema.cards[var])
    candidates = np.repeat(contexts[list(missed.values())], card, axis=0)
    candidates.reshape(len(missed), card, -1)[:, :, var] = np.arange(card)
    logp, scored = _memo_log_joints(model, candidates, memo)
    error = f"every value of variable {var} has zero conditional probability"
    new = dict(zip(missed, _row_cdfs(logp.reshape(-1, card), lambda row: error).tolist()))
    if scored == 0:
        _make_room(memo, model.schema.cards.tolist(), card * len(new))
        memo.setdefault(var, {}).update(new)
    return list(map(new.get, keys, cdfs))  # a stored CDF's key is not in new


def _free_completions(
    evidence: np.ndarray, cards: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every completion of the MISSING slots of each row of the (I, n)
    ``evidence``, stacked in row order as (N, n), with the evidence row
    each came from and the (I, n) place value of every slot.

    A row's k-th completion holds (k // place) % card in each free slot, so
    the last free variable varies fastest; a pinned slot has place 1 and
    radix 1.  The caller bounds the count: a row has the product of its
    free variables' domain sizes.
    """
    radix = np.where(evidence == MISSING, cards, 1)
    place = np.ones_like(radix)
    place[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    sizes = radix.prod(axis=1)
    owner = np.repeat(np.arange(len(evidence)), sizes)
    k = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    free = evidence[owner] == MISSING
    completions = np.where(free, k[:, None] // place[owner] % radix[owner], evidence[owner])
    return completions, owner, place


def _start_memo(model: LdfmModel, evidence: np.ndarray, dtype: np.dtype) -> dict:
    """The Gibbs memo a ``run_chains`` call on the (I, n) ``evidence`` starts
    with: its complete conditional layer when that fits, else empty.

    The chains of an evidence row with R free completions and f free
    variables can ask for at most f R conditional floats: per free variable,
    R / card contexts of card floats each.  If that sum over the distinct
    rows fits under MEMO_CAP, every distinct completion is scored in one
    batched call and each variable's conditional CDFs come from one
    ``_row_cdfs`` call over the completion grid, so no sweep misses and no
    row's log joint need be kept.  A context whose candidates all score
    -inf is not stored: a chain that reaches it scores its rows through
    ``_fill_conditionals`` and raises, as it would with an empty memo.
    Keys (rows of ``dtype``, the chains' row type) and values are those the
    lazy path stores, with the same bits, so draws do not change.
    """
    cards = model.schema.cards
    evidence = np.unique(evidence, axis=0)
    evidence = evidence[(evidence == MISSING).any(axis=1)]  # a fully pinned row asks nothing
    free = evidence == MISSING
    sizes = np.where(free, cards, 1).prod(axis=1, dtype=np.float64)  # no overflow
    if float(sizes @ free.sum(axis=1)) > MEMO_CAP:
        return {}
    completions, owner, place = _free_completions(evidence, cards)
    completions = completions.astype(dtype)
    keys = _row_keys(completions)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    log_joints = matrix_tree.unnormalized_log_joint_many(
        model, completions[first], on_singular="neginf"
    )[inverse]
    memo = {}
    for var, card in enumerate(cards.tolist()):
        # a context is the completion holding 0 in var's slot, taken once
        # however many evidence rows share it
        contexts = np.nonzero(free[owner, var] & (completions[:, var] == 0))[0]
        contexts = contexts[np.unique(inverse[contexts], return_index=True)[1]]
        steps = place[owner[contexts], var]
        logw = log_joints[contexts[:, None] + steps[:, None] * np.arange(card)]
        drawable = logw.max(axis=1) > -np.inf  # as _row_cdfs tests it
        if drawable.any():
            cdfs = _row_cdfs(logw[drawable], lambda row: "unreachable")
            memo[var] = dict(zip(keys[contexts[drawable]].tolist(), cdfs.tolist()))
    return memo


def gibbs_sweep(
    model: LdfmModel, values: np.ndarray, pinned: np.ndarray, memo: dict, rngs: list
) -> None:
    """Resample every non-evidence variable of every chain in turn, in place.

    ``values`` and ``pinned`` are (C, n); chain c draws from ``rngs[c]``,
    taking the uniforms of all its free variables in one ``random(k)`` call
    at the start of the sweep.  ``memo`` holds both memo layers:
    ``memo[var]`` maps a context (a chain's row in ``values``' dtype with
    var's slot blanked, as bytes) to var's normalised conditional CDF, and
    every other key is a candidate row's bytes mapped to its log joint.  A
    chain whose context is stored draws by bisecting that CDF; the distinct
    missed contexts score only the candidate rows the memo lacks, in one
    batched call, and are stored if they had all been seen before (see
    ``_fill_conditionals``).  The two layers together hold at most
    MEMO_CAP floats.  ``run_chains`` passes one memo for all its sweeps.
    """
    free_mask = ~pinned
    uniforms = np.zeros(values.shape)
    uniforms[free_mask] = np.concatenate(
        [rng.random(k) for rng, k in zip(rngs, free_mask.sum(axis=1).tolist())]
    )
    for var in range(model.schema.n):
        free = np.nonzero(free_mask[:, var])[0]
        if free.size == 0:
            continue
        contexts = values[free]
        contexts[:, var] = 0
        keys = _row_keys(contexts).tolist()
        cdfs = list(map(memo.get(var, {}).get, keys))
        if None in cdfs:
            cdfs = _fill_conditionals(model, var, contexts, keys, cdfs, memo)
        values[free, var] = list(map(bisect_right, cdfs, uniforms[free, var].tolist()))


def _subtree_mask(parents: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(C, n+1) mask of the nodes in the subtree of ``nodes[c]`` (itself
    included) in each chain's rooted parent vector ``parents[c]`` (entry 0
    unused).

    Pointer jumping over one flat parent index (Wyllie 1979): after k
    rounds ``up`` holds each node's 2^k-th ancestor and a node is marked if
    any of its first 2^k ancestors (itself first) is the picked node.  A
    node lies at most n - 1 steps below any of its ancestors, so
    ceil(log2 n) rounds find the whole subtree.
    """
    chains, width = parents.shape
    base = np.arange(chains) * width
    up = parents + base[:, None]
    up[:, 0] = base  # a root is its own parent
    up = up.ravel()
    blocked = np.zeros(up.size, dtype=bool)
    blocked[nodes + base] = True
    span = 1
    while span < width - 1:
        blocked |= blocked[up]
        up = up[up]
        span *= 2
    return blocked.reshape(chains, width)


def tree_augmented_step(
    model: LdfmModel, values: np.ndarray, pinned: np.ndarray, parents: np.ndarray, rngs: list
) -> None:
    """Resample one random node's (value, parent) pair in every chain, in place.

    ``parents`` is (C, n+1) with parents[c, j] for nodes 1..n (entry 0
    unused).  Candidate parents are every node outside the picked node's
    subtree, so each parent vector stays a rooted tree; evidence variables
    keep their value and only move their parent.  All chains share one
    (C, K, n+1) grid of log weights over (value, parent), K the largest
    domain, with -inf on the cells a chain may not pick.
    """
    schema = model.schema
    n = schema.n
    chains = np.arange(len(rngs))
    nodes = np.array([rng.integers(1, n + 1) for rng in rngs])
    var = nodes - 1

    blocked = _subtree_mask(parents, nodes)
    width = n + 1

    card = schema.cards[var][:, None]
    grid = np.arange(int(schema.cards.max()))[None, :]
    own = values[chains, var][:, None]
    allowed = np.where(pinned[chains, var][:, None], grid == own, grid < card)
    val_cols = schema.offsets[var][:, None] + np.minimum(grid, card - 1)
    val_rows = 1 + val_cols
    # each chain's source rows: the root's 0, then 1 + each node's key column
    rows_all = schema.assignment_rows(values)
    is_child = parents[:, None, 1:] == nodes[:, None, None]
    child_cols = rows_all[:, None, 1:] - 1
    # (value, parent) grid of log incoming weight, plus value-only terms
    log_in = model.log_dep[rows_all[:, None, :], val_cols[:, :, None]]
    child_logw = model.log_dep[val_rows[:, :, None], child_cols]
    val_logw = np.where(is_child, child_logw, 0.0).sum(axis=2) + model.log_stop[val_rows]

    open_cells = allowed[:, :, None] & ~blocked[:, None, :]
    logw = np.where(open_cells, log_in + val_logw[:, :, None], -np.inf)
    picked = _draw_rows(
        logw.reshape(len(rngs), -1),
        rngs,
        lambda row: f"every (value, parent) candidate for variable {var[row]} has zero weight",
    )
    values[chains, var], parents[chains, nodes] = np.divmod(picked, width)


def run_chains(
    model: LdfmModel,
    evidence: np.ndarray,
    config: SamplerConfig,
    seeds: list[rng_mod.Seed],
) -> np.ndarray:
    """(I, chains * samples, n) pooled draws for each row of the (I, n)
    ``evidence`` (shape (n,) giving one row), in chain order.

    Row i runs ``config.chains`` chains on the streams
    ``chain_rngs(seeds[i], config.chains)``, so its draws do not depend on
    which rows share the call.  Each chain burns in, then records every
    ``thin``-th state.
    """
    n = model.schema.n
    evidence = model.schema.check_values(evidence, "evidence")
    if len(evidence) == 0:
        raise ValueError("evidence must hold at least one row, got 0")
    if len(seeds) != len(evidence):
        raise ValueError(f"got {len(seeds)} seeds for {len(evidence)} evidence rows")
    pinned = evidence != MISSING
    gibbs = config.sampler is SamplerKind.GIBBS
    burn_in = config.burn_in if config.burn_in is not None else (10 if gibbs else 100) * n
    rngs = [r for seed in seeds for r in rng_mod.chain_rngs(seed, config.chains)]

    evidence = np.repeat(evidence, config.chains, axis=0)
    pinned = np.repeat(pinned, config.chains, axis=0)
    values = np.where(pinned, evidence, [r.integers(0, model.schema.cards, size=n) for r in rngs])
    # one row form: the narrowest type holding every value index, for short memo keys
    values = values.astype(np.min_scalar_type(int(model.schema.cards.max()) - 1))
    # the kernel's own state: the call's Gibbs memo, or each chain's tree
    if gibbs:
        step, aux = gibbs_sweep, _start_memo(model, evidence, values.dtype)
    else:
        step, aux = tree_augmented_step, np.array([random_parent_vector(n, r) for r in rngs])

    draws = np.empty((len(rngs), config.samples, n), dtype=np.int64)
    for _ in range(burn_in):
        step(model, values, pinned, aux, rngs)
    for s in range(config.samples):
        for _ in range(config.thin):
            step(model, values, pinned, aux, rngs)
        draws[:, s] = values
    return draws.reshape(len(seeds), config.chains * config.samples, n)


def run_chain(
    model: LdfmModel,
    instance: QueryInstance,
    config: SamplerConfig,
    seed: rng_mod.Seed | None = None,
) -> np.ndarray:
    """Pooled value-vector samples from ``config.chains`` independent chains.

    The returned array has chains * samples rows in chain order.  Kept only
    because perfbench's replay draws through it by name; ROADMAP item 5
    moves that replay to ``run_chains`` and deletes this.
    """
    seed = seed if seed is not None else config.seed
    return run_chains(model, [instance.evidence], config, [seed])[0]


def estimate_cll(
    samples: np.ndarray, instance: QueryInstance, normalize: bool = False
) -> float:
    """Log fraction of samples matching the full query configuration.

    Add-one corrected so a zero or perfect match count stays finite;
    optionally normalized by the number of query variables.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("sample set is empty")
    qv = instance.query_vars
    total = samples.shape[0]
    matches = int(np.all(samples[:, qv] == instance.query[qv][None, :], axis=1).sum())
    value = float(np.log((matches + 1.0) / (total + 2.0)))
    return value / qv.size if normalize else value


def estimate_cmll(
    samples: np.ndarray,
    instance: QueryInstance,
    cards: np.ndarray,
    normalize: bool = False,
) -> float:
    """Sum over query variables of the log per-variable match fraction.

    Each term is add-one corrected over the variable's domain size, so it is
    a proper smoothed marginal estimate.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("sample set is empty")
    qv = instance.query_vars
    total = samples.shape[0]
    value = 0.0
    for var in qv:
        matches = int((samples[:, var] == instance.query[var]).sum())
        value += float(np.log((matches + 1.0) / (total + float(cards[var]))))
    return value / qv.size if normalize else value
