"""Per-assignment spanning-tree numerics.

For a complete assignment the pairwise weights form a dense rooted digraph
over n+1 nodes (node 0 is the dummy root).  It is stored as an (n+1, n)
edge table, the part of ``LdfmModel.dep`` the assignment selects:
``w[i, j]`` is the weight of the edge from source i (0 = root, i >= 1 =
node i) into node j+1.  The self-loop cells ``w[j+1, j]`` are not edges
and are ignored, whatever they hold.  The matrix-tree theorem turns the
sum over all rooted spanning trees into the determinant of the root minor
of the graph Laplacian, and per-edge posterior mass into entries of its
inverse, both O(n^3).

All determinant work happens in the log domain after column equilibration:
each column of the minor is divided by its diagonal entry and the scale
logs are added back, which keeps pivots near one even when raw weights are
~1/total-keys and the determinant would underflow a double.

Every function works on a leading batch axis; pass ``w[None]`` for one graph.
``log_partition_many`` and ``unnormalized_log_joint_many`` give an item the
same bits whatever else is in its batch, so a caller may score a row alone,
in any batch, or remember its score.
"""

from __future__ import annotations

import numpy as np

from .model import LdfmModel

# Below this, a diagonal entry is treated as an unreachable node.
PIVOT_FLOOR = 1e-300
# Posterior clamp band: inside is silent roundoff, outside is a bug.
CLAMP_SILENT = 1e-9


class SingularLaplacianError(ArithmeticError):
    """No spanning tree carries positive weight (zero-probability assignment).

    ``index`` is the offending batch item when a batched call raised it.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class NumericConsistencyError(ArithmeticError):
    """An edge posterior left [0, 1] by more than roundoff allows."""


def assignment_matrices(model: LdfmModel, rows: np.ndarray) -> np.ndarray:
    """Stacked (B, n+1, n) edge-weight tables of the assignments whose
    (B, n+1) source rows are ``rows`` (from ``VariableSchema.assignment_rows``).

    Unchecked: ``np.take`` wraps a negative index, so ``rows`` must come
    from assignments that passed ``VariableSchema.check_assignments``.
    """
    return model.dep.take(model.schema.edge_cells(rows))


def _root_minors(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked edge tables with their self-loop cells zeroed (one copy), and
    the root minors of their Laplacians.

    Q[j][j] is the incoming-weight sum of node j+1 and Q[i][j] = -w[i+1][j].
    Rejects negative edge weights.
    """
    idx = np.arange(weights.shape[-1])
    w = weights.copy()
    w[..., idx + 1, idx] = 0.0
    if np.any(w < 0):
        raise ValueError("edge weights must be nonnegative")
    q = -w[..., 1:, :]
    q[..., idx, idx] = w.sum(axis=-2)
    return w, q


def _log_det_scaled(q0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-equilibrated log-determinants of stacked root minors.

    Returns (log_det, ok, scaled, scale): ok is False wherever the
    determinant is nonpositive, non-finite, or a diagonal entry vanishes;
    ``scaled`` is q0 itself, each column divided in place by ``scale``, its
    diagonal entry (1 where that entry vanishes).
    """
    idx = np.arange(q0.shape[-1])
    diag = q0[..., idx, idx]
    ok = np.all(diag > PIVOT_FLOOR, axis=-1)
    safe = np.where(diag > PIVOT_FLOOR, diag, 1.0)
    q0 /= safe[..., None, :]
    sign, logdet = np.linalg.slogdet(q0)
    # a batch's diagonals come out column-major, so a row sum would add
    # left to right there but in numpy's unrolled order for a lone
    # (contiguous) row; cumsum adds left to right for any batch size
    with np.errstate(divide="ignore"):
        log_scale = np.where(ok, np.log(safe).cumsum(axis=-1)[..., -1], -np.inf)
    ok = ok & (sign > 0) & np.isfinite(logdet)
    return logdet + log_scale, ok, q0, safe


def _require_ok(ok: np.ndarray) -> None:
    if not np.all(ok):
        bad = int(np.nonzero(~ok)[0][0])
        raise SingularLaplacianError(
            f"no positive-weight spanning tree (batch item {bad})", index=bad
        )


def log_partition_many(
    weights: np.ndarray, on_singular: str = "raise"
) -> np.ndarray:
    """Log total spanning-tree weight for stacked (B, n+1, n) edge tables.

    ``on_singular`` is either "raise" (default) or "neginf", which maps
    singular items to -inf so callers can treat them as zero weight.
    """
    logz, ok, _, _ = _log_det_scaled(_root_minors(weights)[1])
    if on_singular == "neginf":
        return np.where(ok, logz, -np.inf)
    _require_ok(ok)
    return logz


def _posteriors_from_inverse(w: np.ndarray, inv_q0: np.ndarray) -> np.ndarray:
    """Edge posteriors from stacked root-minor inverses, written over ``w``
    and ``inv_q0`` so that a call allocates no table beyond those two.

    post[0][j] = w[0][j] * inv[j, j] and post[i][j] = w[i][j] * (inv[j, j] -
    inv[j, i-1]) for i >= 1; already normalized by the total tree weight, so
    no explicit partition-function factor appears.  Self-loop cells come
    out as exact zeros because ``w`` holds zeros there.
    """
    idx = np.arange(w.shape[-1])
    diag = inv_q0[..., idx, idx][:, None, :]
    post = w
    post[:, :1] *= diag
    trans = np.swapaxes(inv_q0, -1, -2)
    np.subtract(diag, trans, out=trans)
    post[:, 1:] *= trans

    lo = post.min()
    hi = post.max()
    # written so that a NaN (which fails every comparison) fails the check
    if not (lo >= -CLAMP_SILENT and hi <= 1.0 + CLAMP_SILENT):
        raise NumericConsistencyError(
            f"edge posterior outside [0, 1] beyond roundoff (min {lo:.3e}, max {hi:.3e})"
        )
    np.clip(post, 0.0, 1.0, out=post)
    return post


def partition_and_posteriors_many(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log partition values and (B, n+1, n) edge posteriors for stacked tables.

    Raises SingularLaplacianError (with the offending batch index) if any
    item has no positive-weight spanning tree.
    """
    w, q0 = _root_minors(weights)
    logz, ok, scaled, scale = _log_det_scaled(q0)
    _require_ok(ok)
    inv_q0 = np.linalg.inv(scaled)
    inv_q0 /= scale[..., :, None]
    return logz, _posteriors_from_inverse(w, inv_q0)


def unnormalized_log_joint_many(
    model: LdfmModel, xs: np.ndarray, on_singular: str = "raise"
) -> np.ndarray:
    """Log unnormalized joint weight of complete assignments: the log
    partition value plus the log stop weight of the root and of every
    assigned node (zero for the plain variant).
    """
    schema = model.schema
    rows = schema.assignment_rows(schema.check_assignments(xs))
    logz = log_partition_many(assignment_matrices(model, rows), on_singular=on_singular)
    return logz + model.log_stop[rows].sum(axis=1)
