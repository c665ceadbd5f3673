"""Brute-force ground truth for small instances.

Everything here enumerates: spanning trees by filtering all parent
vectors, joint weights by summing over trees, normalizers and
conditionals by summing over complete assignments.  Intended as a test
fixture, not a production path; hard caps keep the blowup honest.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .matrix_tree import assignment_matrices
from .model import MISSING, LdfmModel
from .sampling import QueryInstance

MAX_TREE_N = 8
MAX_STATE_SPACE = 4096
TREE_BLOCK = 1 << 16  # trees (or candidate parent vectors) per array operation


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the maximum; -inf for no values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return -np.inf
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(np.log(np.exp(values - m).sum()) + m)


def is_rooted_tree(parents) -> bool:
    """Whether parents[j] (nodes 1..n; entry 0 ignored) links every node to
    root 0 without a cycle.  Each node's path is followed once, so O(n)."""
    n = len(parents) - 1
    state = [0] * (n + 1)  # 0 unknown, 1 on current path, 2 reaches the root
    state[0] = 2
    for start in range(1, n + 1):
        path = []
        j = start
        while state[j] == 0:
            path.append(j)
            state[j] = 1
            j = int(parents[j])
            if not 0 <= j <= n:
                return False
        if state[j] == 1:
            return False
        for p in path:
            state[p] = 2
    return True


def enumerate_rooted_trees(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every parent vector encoding a spanning tree rooted at node 0.

    parent[j-1] is the parent of node j, so a tree's edges are the cells
    ``weights[parent[j-1], j-1]`` of an (n+1, n) edge table.  The order is
    that of ``itertools.product`` over each node's candidate parents (every
    node but itself); the count for the complete graph is (n+1)^(n-1).
    """
    return map(tuple, _tree_table(n).tolist())


@lru_cache(maxsize=None)
def _tree_table(n: int) -> np.ndarray:
    """The (n+1)^(n-1) rooted trees as an (T, n) parent table, rows in
    :func:`enumerate_rooted_trees` order.

    The n^n candidate vectors are decoded in blocks, as base-n numbers
    whose digit for node j (node 1 most significant) indexes its candidate
    parents, and a candidate is kept when pointer jumping takes every node
    to the root: after k rounds ``up`` holds each node's 2^k-th ancestor,
    and a node on or above a cycle never reaches 0.  Parents are int8
    (n <= 8), so the n = 8 table takes 38 MB.
    """
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"n must be in [1, {MAX_TREE_N}], got {n}")
    table = np.empty(((n + 1) ** (n - 1), n), dtype=np.int8)
    nodes = np.arange(1, n + 1)
    place = n ** np.arange(n - 1, -1, -1)
    kept = 0
    for start in range(0, n**n, TREE_BLOCK):
        digits = np.arange(start, min(start + TREE_BLOCK, n**n))[:, None] // place % n
        cand = digits + (digits >= nodes)  # skip each node's own index
        up = np.concatenate([np.zeros((len(cand), 1), dtype=np.int64), cand], axis=1)
        span = 1
        while span < n:
            up = np.take_along_axis(up, up, axis=1)
            span *= 2
        trees = cand[~up.any(axis=1)]
        table[kept : kept + len(trees)] = trees
        kept += len(trees)
    table.setflags(write=False)
    return table


def _tree_log_weights(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tree table and each tree's log weight, gathered a block of trees
    at a time so that no index copy of the whole table is made."""
    n = weights.shape[1]
    trees = _tree_table(n)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    tree_logw = np.empty(len(trees))
    for start in range(0, len(trees), TREE_BLOCK):
        block = slice(start, start + TREE_BLOCK)
        tree_logw[block] = logw[trees[block], np.arange(n)].sum(axis=1)
    return trees, tree_logw


def brute_partition_and_posteriors(weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Log partition and (n+1, n) edge posteriors by summation over enumerated trees.

    ``weights`` is one (n+1, n) edge table, ``weights[i, j]`` the edge from
    source i (0 = root) into node j+1; self-loop cells are never read and
    get posterior 0.  Log Z sums every rooted spanning tree's edge-weight
    product; column j of the posteriors sums each tree's normalized weight
    into the cell of node j+1's parent in that tree.  One enumeration pass
    serves both, as :func:`~ldfm.matrix_tree.partition_and_posteriors_many`
    does for a batch.
    """
    trees, tree_logw = _tree_log_weights(weights)
    log_z = logsumexp(tree_logw)
    if not np.isfinite(log_z):
        raise ValueError("all spanning trees have zero weight")
    tree_p = np.exp(tree_logw - log_z)
    n = trees.shape[1]
    columns = [np.bincount(trees[:, j], weights=tree_p, minlength=n + 1) for j in range(n)]
    return log_z, np.stack(columns, axis=1)


def _log_joint_or_neginf(model: LdfmModel, x: np.ndarray) -> float:
    schema = model.schema
    rows = schema.assignment_rows(schema.check_assignments(x))
    _, tree_logw = _tree_log_weights(assignment_matrices(model, rows)[0])
    return logsumexp(tree_logw) + float(model.log_stop[rows].sum())


def brute_unnormalized_joint(model: LdfmModel, x: np.ndarray) -> float:
    """Log unnormalized joint weight of a complete assignment, by enumeration.

    Stop-augmented models add the log stop weights of the root and of every
    assigned node to the tree sum.
    """
    total = _log_joint_or_neginf(model, x)
    if not np.isfinite(total):
        raise ValueError("zero-probability assignment")
    return total


def _all_assignments(model: LdfmModel) -> Iterator[np.ndarray]:
    cards = model.schema.cards
    for combo in itertools.product(*(range(int(c)) for c in cards)):
        yield np.array(combo, dtype=np.int64)


def _check_state_space(model: LdfmModel) -> None:
    size = math.prod(model.schema.cards.tolist())  # exact: an int64 product can wrap
    if size > MAX_STATE_SPACE:
        raise ValueError(f"state space {size} exceeds cap {MAX_STATE_SPACE}")


def brute_valid_normalizer(model: LdfmModel) -> float:
    """Log sum of the unnormalized joint over every complete assignment."""
    _check_state_space(model)
    logs = [_log_joint_or_neginf(model, x) for x in _all_assignments(model)]
    total = logsumexp(np.array(logs))
    if not np.isfinite(total):
        raise ValueError("model assigns zero weight to every assignment")
    return total


def exact_conditional(
    model: LdfmModel, query: np.ndarray, evidence: np.ndarray
) -> float:
    """P(query | evidence) by summing joints over consistent completions.

    ``query`` and ``evidence`` are partial assignments (MISSING marks free
    entries) over disjoint variable sets, checked as a
    :class:`~ldfm.sampling.QueryInstance` is; the global normalizer cancels.
    """
    _check_state_space(model)
    instance = QueryInstance(query, evidence)
    query, evidence = instance.query, instance.evidence
    if query.shape != (model.schema.n,):
        raise ValueError("query and evidence must be length-n partial assignments")

    num_logs = []
    den_logs = []
    e_mask = evidence != MISSING
    q_mask = query != MISSING
    for x in _all_assignments(model):
        if not np.array_equal(x[e_mask], evidence[e_mask]):
            continue
        lj = _log_joint_or_neginf(model, x)
        den_logs.append(lj)
        if np.array_equal(x[q_mask], query[q_mask]):
            num_logs.append(lj)
    den = logsumexp(np.array(den_logs))
    if not np.isfinite(den):
        raise ValueError("evidence has zero probability under the model")
    num = logsumexp(np.array(num_logs))
    return float(np.exp(num - den))
