"""Schema, assignments, and the dependency-weight tables.

A model assigns a weight to every ordered pair of <variable, value> nodes
(same-variable pairs are structurally excluded), plus a dummy root node
that may point at any <variable, value> target.  All value labels are
mapped to dense integer indices at schema construction so that the
per-assignment graph construction downstream is plain array indexing.

Two normalizations are supported (see :class:`Variant`): either the
outgoing weights of every source node sum to one, or they sum to one
together with a per-source stop weight that controls how likely the node
is to be a leaf of the latent tree.

Probability semantics: an assignment is generated by drawing a latent tree
and filling its nodes top-down from the weight table, so the probability
of a complete assignment equals the total spanning-tree weight of its
dependency graph times a constant that depends only on the variable count
(plain variant: the uniform tree prior times the number of variable-to-node
mappings) or times the assignment's stop-weight product (stop variant).
Restricting to well-formed assignments divides by a global normalizer that
is intractable to compute.  Neither constant is ever materialized here:
every production path works with logs and ratios of the unnormalized
weight, and the normalizer is computed only by the enumeration oracle on
tiny instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Value-index placeholder for unset entries of a partial assignment.
MISSING = -1

# Floor applied to fitted weights so later Laplacians stay nonsingular.
WEIGHT_FLOOR = 1e-12


class Variant(enum.Enum):
    """Normalization convention obeyed by the weight table."""

    PLAIN = "plain"
    STOP_AUGMENTED = "stop"


@dataclass(frozen=True, order=True)
class NodeKey:
    """The dummy root, or a concrete <variable, value> pair (as indices)."""

    var: int = -1
    val: int = -1

    @property
    def is_root(self) -> bool:
        return self.var < 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ROOT" if self.is_root else f"NodeKey({self.var}, {self.val})"


ROOT = NodeKey()


@dataclass(frozen=True)
class VariableSchema:
    """Ordered collection of named variables with finite value domains."""

    variables: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        vs = tuple((str(name), tuple(str(v) for v in dom)) for name, dom in self.variables)
        object.__setattr__(self, "variables", vs)
        if not vs:
            raise ValueError("schema must declare at least one variable")
        names = [name for name, _ in vs]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        # datasets are comma-separated lines, so no name or label may hold
        # a separator; query bindings are stripped, so none may be padded
        for text in names + [label for _, dom in vs for label in dom]:
            if any(c in text for c in ",\r\n"):
                raise ValueError(f"name or label {text!r} contains a comma or line break")
            if text != text.strip():
                raise ValueError(f"name or label {text!r} has leading or trailing whitespace")
        for name, dom in vs:
            if not dom:
                raise ValueError(f"variable {name!r} has an empty domain")
            if len(set(dom)) != len(dom):
                raise ValueError(f"variable {name!r} has duplicate value labels")

    @property
    def n(self) -> int:
        return len(self.variables)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @cached_property
    def cards(self) -> np.ndarray:
        """Domain cardinality per variable."""
        a = np.array([len(dom) for _, dom in self.variables], dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each variable's block in the flat <variable, value> key space."""
        a = np.concatenate([[0], np.cumsum(self.cards)[:-1]]).astype(np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def num_keys(self) -> int:
        """Total number of <variable, value> pair keys."""
        return int(self.cards.sum())

    @cached_property
    def key_var(self) -> np.ndarray:
        """Variable index owning each pair key."""
        a = np.repeat(np.arange(self.n, dtype=np.int64), self.cards)
        a.setflags(write=False)
        return a

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _value_index(self) -> tuple[dict[str, int], ...]:
        return tuple({v: k for k, v in enumerate(dom)} for _, dom in self.variables)

    @cached_property
    def source_mask(self) -> np.ndarray:
        """Boolean (1 + num_keys, num_keys) mask of legal source->target entries.

        Row 0 is the root (all targets legal); a pair-key row excludes
        targets over its own variable.
        """
        k = self.num_keys
        mask = np.ones((1 + k, k), dtype=bool)
        same = self.key_var[:, None] == self.key_var[None, :]
        mask[1:, :] = ~same
        mask.setflags(write=False)
        return mask

    @cached_property
    def target_counts(self) -> np.ndarray:
        """Number of legal targets per source row."""
        a = self.source_mask.sum(axis=1).astype(np.int64)
        a.setflags(write=False)
        return a

    # -- index arithmetic -------------------------------------------------

    def var_index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def value_index(self, var: int, label: str) -> int:
        try:
            return self._value_index[var][label]
        except KeyError:
            raise KeyError(f"unknown value {label!r} for variable {self.names[var]!r}") from None

    def col_of(self, var: int, val: int) -> int:
        """Flat key index of the target <variable, value> pair."""
        if not 0 <= var < self.n:
            raise ValueError(f"variable index {var} out of range")
        if not 0 <= val < self.cards[var]:
            raise ValueError(f"value index {val} out of range for variable {self.names[var]!r}")
        return int(self.offsets[var] + val)

    def row_of(self, key: NodeKey) -> int:
        """Source-row index of a node key (0 is the root)."""
        if key.is_root:
            return 0
        return 1 + self.col_of(key.var, key.val)

    def key_of_col(self, col: int) -> NodeKey:
        var = int(self.key_var[col])
        return NodeKey(var, int(col - self.offsets[var]))

    def describe_key(self, key: NodeKey) -> str:
        if key.is_root:
            return "root"
        name, dom = self.variables[key.var]
        return f"{name}={dom[key.val]}"

    def describe_row(self, row: int) -> str:
        """Readable name of a source row (0 is the root)."""
        row = int(row)
        return "root" if row == 0 else self.describe_key(self.key_of_col(row - 1))

    def check_assignments(self, xs) -> np.ndarray:
        """``xs`` as a (B, n) int64 array of complete assignments, shape (n,)
        giving one row.  Raises ValueError for another width, a MISSING
        entry, or a value index outside its variable's domain."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.int64))
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"assignments must be (B, {self.n}) value indices, got {xs.shape}")
        if np.any(xs == MISSING):
            raise ValueError("assignment is incomplete")
        if np.any(xs < 0) or np.any(xs >= self.cards):
            raise ValueError("assignment value index out of range")
        return xs

    def assignment_rows(self, x: np.ndarray) -> np.ndarray:
        """Source-row indices [root, <X_1,x_1>, ..., <X_n,x_n>] of complete
        assignments: shape (n,) gives (n+1,), shape (B, n) gives (B, n+1).
        Unchecked: ``x`` must hold valid assignments (see
        :meth:`check_assignments`)."""
        x = np.asarray(x)
        rows = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=np.int64)
        rows[..., 1:] = 1 + self.offsets + x
        return rows

    def edge_cells(self, rows: np.ndarray) -> np.ndarray:
        """Flat ``dep`` index of each cell of the (B, n+1, n) edge tables
        whose (B, n+1) source rows (from :meth:`assignment_rows`) are
        ``rows``: cell (b, i, j) is the edge from source i into node j+1."""
        return rows[:, :, None] * self.num_keys + (rows[:, None, 1:] - 1)


@dataclass(frozen=True)
class LdfmModel:
    """Dependency-weight table, plus stop weights for the stop-augmented variant.

    ``dep`` has one row per source key (row 0 = root) and one column per
    target <variable, value> key; entries outside :attr:`VariableSchema.source_mask`
    are structurally zero.  The arrays are copied and frozen, so a model is
    immutable and safe to share across threads.  :attr:`log_dep` and
    :attr:`log_stop` are the log tables every scoring path reads.
    """

    schema: VariableSchema
    variant: Variant
    dep: np.ndarray
    stop: np.ndarray | None = None

    def __post_init__(self) -> None:
        k = self.schema.num_keys
        dep = np.array(self.dep, dtype=np.float64)
        if dep.shape != (1 + k, k):
            raise ValueError(f"dep table must have shape {(1 + k, k)}, got {dep.shape}")
        dep.setflags(write=False)
        object.__setattr__(self, "dep", dep)
        if self.variant is Variant.STOP_AUGMENTED:
            if self.stop is None:
                raise ValueError("stop-augmented model requires stop weights")
            stop = np.array(self.stop, dtype=np.float64)
            if stop.shape != (1 + k,):
                raise ValueError(f"stop weights must have shape {(1 + k,)}, got {stop.shape}")
            stop.setflags(write=False)
            object.__setattr__(self, "stop", stop)
        elif self.stop is not None:
            raise ValueError("plain model must not carry stop weights")

    @cached_property
    def log_dep(self) -> np.ndarray:
        """Read-only ``log(dep)``, -inf where a weight is zero."""
        with np.errstate(divide="ignore"):
            a = np.log(self.dep)
        a.setflags(write=False)
        return a

    @cached_property
    def log_stop(self) -> np.ndarray:
        """Read-only log stop weight per source row; all zeros for the plain
        variant, whose joint has no stop factor, so every scoring path can
        add it unconditionally."""
        if self.stop is None:
            a = np.zeros(self.dep.shape[0])
        else:
            with np.errstate(divide="ignore"):
                a = np.log(self.stop)
        a.setflags(write=False)
        return a


def make_uniform_model(schema: VariableSchema, variant: Variant = Variant.PLAIN) -> LdfmModel:
    """Uniform weight table: every legal target of a source gets equal mass.

    For the stop-augmented variant the stop outcome counts as one extra
    target, so a source with t legal targets gets weight 1/(t+1) everywhere.
    Deterministic: the same schema always produces bit-identical tables.
    """
    mask = schema.source_mask
    counts = schema.target_counts.astype(np.float64)
    if variant is Variant.PLAIN:
        denom = np.where(counts > 0, counts, 1.0)
        dep = mask / denom[:, None]
        return LdfmModel(schema, variant, dep)
    denom = counts + 1.0
    dep = mask / denom[:, None]
    stop = 1.0 / denom
    return LdfmModel(schema, Variant.STOP_AUGMENTED, dep, stop)


def weight_violations(model: LdfmModel) -> list[str]:
    """Defects no tolerance excuses: non-finite or negative weights, and a
    nonzero weight for a same-variable target."""
    schema = model.schema
    tables = [("dep", model.dep)] + ([("stop", model.stop)] if model.stop is not None else [])
    violations = [
        f"{name} weights contain non-finite entries"
        for name, t in tables
        if not np.all(np.isfinite(t))
    ]
    if violations:
        return violations
    for row in np.unique(np.nonzero(~schema.source_mask & (model.dep != 0.0))[0]):
        violations.append(f"{schema.describe_row(row)}: nonzero weight for a same-variable target")
    for name, t in tables:
        for row in np.unique(np.nonzero(t < 0.0)[0]):
            violations.append(f"{schema.describe_row(row)}: {name} weight outside [0, 1]")
    return violations


def validate_model(model: LdfmModel, tol: float = 1e-9) -> list[str]:
    """Check weight ranges and per-source normalization; return violations.

    An empty list means the model is valid within ``tol``.  Source rows with
    no legal target (possible only for single-variable plain models) are
    exempt from the normalization check.
    """
    schema = model.schema
    violations = weight_violations(model)
    dep = model.dep
    for row in np.unique(np.nonzero(dep > 1.0 + tol)[0]):
        violations.append(f"{schema.describe_row(row)}: dep weight outside [0, 1]")
    totals = dep.sum(axis=1)
    rows_to_check = np.nonzero(schema.target_counts > 0)[0]
    if model.variant is Variant.STOP_AUGMENTED:
        for row in np.nonzero(model.stop > 1.0 + tol)[0]:
            violations.append(f"{schema.describe_row(row)}: stop weight outside [0, 1]")
        totals = totals + model.stop
        rows_to_check = np.arange(dep.shape[0])
    off = np.abs(totals[rows_to_check] - 1.0) > tol
    for row in rows_to_check[off]:
        violations.append(
            f"{schema.describe_row(row)}: outgoing weights sum to {totals[row]:.12g}, expected 1"
        )
    return violations
