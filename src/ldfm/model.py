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
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Value-index placeholder for unset entries of a partial assignment.
MISSING = -1

# Floor applied to fitted weights so later Laplacians stay nonsingular.
WEIGHT_FLOOR = 1e-12

# Smallest positive weight a model, and so a model file, may hold.  EM
# floors weights and then renormalises, which can leave them just under
# WEIGHT_FLOOR; much smaller weights take the determinant core outside the
# range in which it is checked to match enumeration.
MIN_LOAD_WEIGHT = WEIGHT_FLOOR / 2


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) >= ``least``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of the C-contiguous (R, n) ``rows`` as one np.void of its bytes."""
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()  # faster than an np.dtype call


class Variant(enum.Enum):
    """Normalization convention obeyed by the weight table."""

    PLAIN = "plain"
    STOP_AUGMENTED = "stop"


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
        # a separator or be empty (blank lines are skipped); query bindings
        # are stripped, so none may be padded
        for text in names + [label for _, dom in vs for label in dom]:
            if not text:
                raise ValueError("a name or label is empty")
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
    def label_index(self) -> tuple[dict[str, int], ...]:
        """Per variable, the dict from value label to value index."""
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
            return self.label_index[var][label]
        except KeyError:
            raise KeyError(f"unknown value {label!r} for variable {self.names[var]!r}") from None

    def col_of(self, var: int, val: int) -> int:
        """Flat key index of the target <variable, value> pair."""
        if not 0 <= var < self.n:
            raise ValueError(f"variable index {var} out of range")
        if not 0 <= val < self.cards[var]:
            raise ValueError(f"value index {val} out of range for variable {self.names[var]!r}")
        return int(self.offsets[var] + val)

    def describe_row(self, row: int) -> str:
        """Readable name of a source row: "root" for row 0, else the
        ``name=label`` of the pair key at column ``row - 1``."""
        row = int(row)
        if row == 0:
            return "root"
        var = int(self.key_var[row - 1])
        name, dom = self.variables[var]
        return f"{name}={dom[row - 1 - self.offsets[var]]}"

    def check_values(self, xs, what: str) -> np.ndarray:
        """``xs`` as (B, n) int64 value vectors, (n,) giving one row; ValueError naming
        ``what`` for another width or an entry neither MISSING nor in its domain."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.int64))
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"{what} has shape {xs.shape}, not the schema's (B, {self.n})")
        if np.any((xs >= self.cards) | ((xs < 0) & (xs != MISSING))):
            raise ValueError(f"{what} value index out of range")
        return xs

    def check_assignments(self, xs) -> np.ndarray:
        """:meth:`check_values` for complete assignments: MISSING also raises."""
        xs = self.check_values(xs, "assignment")
        if np.any(xs == MISSING):
            raise ValueError("assignment is incomplete")
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
    immutable and safe to share across threads; a :func:`weight_violations`
    defect raises ValueError, so no later path checks the weights again.
    :attr:`log_dep` and :attr:`log_stop` are the log tables every scoring
    path reads.
    """

    schema: VariableSchema
    variant: Variant
    dep: np.ndarray
    stop: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
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
        defects = weight_violations(self)
        if defects:
            raise ValueError(f"model weights are invalid: {'; '.join(defects)}")

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


def _uniform_tables(schema: VariableSchema, variant: Variant):
    """The uniform model's dep table and stop weights (None for plain)."""
    counts = schema.target_counts.astype(np.float64)
    if variant is Variant.PLAIN:
        return schema.source_mask / np.where(counts > 0, counts, 1.0)[:, None], None
    return schema.source_mask / (counts + 1.0)[:, None], 1.0 / (counts + 1.0)


def make_uniform_model(schema: VariableSchema, variant: Variant = Variant.PLAIN) -> LdfmModel:
    """Uniform weight table: every legal target of a source gets equal mass.

    For the stop-augmented variant the stop outcome counts as one extra
    target, so a source with t legal targets gets weight 1/(t+1) everywhere.
    Deterministic: the same schema always produces bit-identical tables.
    """
    variant = Variant(variant)
    return LdfmModel(schema, variant, *_uniform_tables(schema, variant))


def weight_violations(model: LdfmModel) -> list[str]:
    """Defects no tolerance excuses: non-finite or negative weights, and a
    nonzero weight for a same-variable target; failing those, the first
    positive dep weight and the first positive stop weight below
    MIN_LOAD_WEIGHT, each named by its cell."""
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
    if violations:
        return violations
    for name, t in tables:
        tiny = np.argwhere((t > 0.0) & (t < MIN_LOAD_WEIGHT))
        if tiny.size:
            cell = tuple(tiny[0])
            target = f" -> {schema.describe_row(1 + cell[1])}" if name == "dep" else ""
            violations.append(
                f"{schema.describe_row(cell[0])}{target}: {name} weight {t[cell]:.6g} "
                f"is below the smallest loadable weight {MIN_LOAD_WEIGHT:g}"
            )
    return violations


def validate_model(model: LdfmModel) -> list[str]:
    """Every normalization finding beyond 1e-9 (a built model has no weight
    defect); an empty list means the model is valid."""
    return _normalization_findings(model, 1e-9)


def _normalization_findings(model: LdfmModel, tol: float) -> list[str]:
    """Weights above 1 + ``tol``, and source rows whose outgoing weights
    (plus stop weight) miss 1 by more than ``tol``.  Rows with no legal
    target (possible only for single-variable plain models) are exempt."""
    schema = model.schema
    tables = [("dep", model.dep)] + ([("stop", model.stop)] if model.stop is not None else [])
    found = [
        f"{schema.describe_row(row)}: {name} weight outside [0, 1]"
        for name, t in tables
        for row in np.unique(np.nonzero(t > 1.0 + tol)[0])
    ]
    totals = model.dep.sum(axis=1)
    rows = np.nonzero(schema.target_counts > 0)[0]
    if model.stop is not None:
        totals, rows = totals + model.stop, np.arange(len(totals))
    for row in rows[np.abs(totals[rows] - 1.0) > tol]:
        found.append(
            f"{schema.describe_row(row)}: outgoing weights sum to {totals[row]:.12g}, expected 1"
        )
    return found
