"""Brute-force ground truth for small instances.

Everything here enumerates: spanning trees by scanning all parent vectors,
joint weights by summing over trees, normalizers and conditionals by
summing over complete assignments.  Intended as a test fixture, not a
production path; hard caps keep the blowup honest.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

import numpy as np

from .matrix_tree import assignment_matrices
from .model import MISSING, LdfmModel, Variant
from .sampling import is_rooted_tree

MAX_TREE_N = 8
MAX_STATE_SPACE = 4096


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the maximum; -inf for no values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return -np.inf
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(np.log(np.exp(values - m).sum()) + m)


def enumerate_rooted_trees(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every parent vector encoding a spanning tree rooted at node 0.

    parent[j-1] is the parent of node j, so a tree's edges are the cells
    ``weights[parent[j-1], j-1]`` of an (n+1, n) edge table.  Scans all n^n
    candidate vectors with a path-following acyclicity check; the valid
    count for the complete graph is (n+1)^(n-1).
    """
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"n must be in [1, {MAX_TREE_N}], got {n}")
    choices = [[p for p in range(n + 1) if p != j] for j in range(1, n + 1)]
    # a leading placeholder gives is_rooted_tree's parents[j] indexing
    for cand in itertools.product([-1], *choices):
        if is_rooted_tree(cand):
            yield cand[1:]


@lru_cache(maxsize=None)
def _tree_table(n: int) -> np.ndarray:
    table = np.array(list(enumerate_rooted_trees(n)), dtype=np.int64)
    table.setflags(write=False)
    return table


def _tree_log_weights(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = weights.shape[1]
    trees = _tree_table(n)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return trees, logw[trees, np.arange(n)].sum(axis=1)


def brute_log_partition(weights: np.ndarray) -> float:
    """Log of the sum over all rooted spanning trees of the edge-weight product.

    ``weights`` is one (n+1, n) edge table, ``weights[i, j]`` the edge from
    source i (0 = root) into node j+1; self-loop cells are never read.
    """
    _, tree_logw = _tree_log_weights(weights)
    total = logsumexp(tree_logw)
    if not np.isfinite(total):
        raise ValueError("all spanning trees have zero weight")
    return total


def brute_edge_posteriors(weights: np.ndarray) -> np.ndarray:
    """(n+1, n) edge posteriors by summation over enumerated trees; self-loop cells are 0."""
    trees, tree_logw = _tree_log_weights(weights)
    log_z = brute_log_partition(weights)
    n = trees.shape[1]
    post = np.zeros((n + 1, n))
    for j in range(n):
        for i in range(n + 1):
            post[i, j] = np.exp(logsumexp(tree_logw[trees[:, j] == i]) - log_z)
    return post


def _log_joint_or_neginf(model: LdfmModel, x: np.ndarray) -> float:
    _, tree_logw = _tree_log_weights(assignment_matrices(model, x)[0])
    total = logsumexp(tree_logw)
    if model.variant is Variant.STOP_AUGMENTED:
        rows = model.schema.assignment_rows(np.asarray(x))
        with np.errstate(divide="ignore"):
            total += float(np.log(model.stop[rows]).sum())
    return total


def brute_unnormalized_joint(model: LdfmModel, x: np.ndarray) -> float:
    """Log unnormalized joint weight of a complete assignment, by enumeration.

    Stop-augmented models add the log stop weights of the root and of every
    assigned node to the tree sum.
    """
    if model.schema.n > MAX_TREE_N:
        raise ValueError(f"n must be at most {MAX_TREE_N}")
    total = _log_joint_or_neginf(model, x)
    if not np.isfinite(total):
        raise ValueError("zero-probability assignment")
    return total


def _all_assignments(model: LdfmModel) -> Iterator[np.ndarray]:
    cards = model.schema.cards
    for combo in itertools.product(*(range(int(c)) for c in cards)):
        yield np.array(combo, dtype=np.int64)


def _check_state_space(model: LdfmModel) -> None:
    schema = model.schema
    if schema.n > MAX_TREE_N:
        raise ValueError(f"n must be at most {MAX_TREE_N}")
    size = int(np.prod(schema.cards))
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
    entries) over disjoint variable sets; the global normalizer cancels.
    """
    _check_state_space(model)
    query = np.asarray(query, dtype=np.int64)
    evidence = np.asarray(evidence, dtype=np.int64)
    n = model.schema.n
    if query.shape != (n,) or evidence.shape != (n,):
        raise ValueError("query and evidence must be length-n partial assignments")
    if np.any((query != MISSING) & (evidence != MISSING)):
        raise ValueError("query and evidence variable sets must be disjoint")
    if np.all(query == MISSING):
        raise ValueError("query must set at least one variable")

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
