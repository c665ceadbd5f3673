"""Dataset, schema, and model files, plus synthetic ground-truth networks.

Datasets are plain comma-separated text: a header row of variable names,
then one sample per row as value labels (no quoting, so labels must not
contain commas or newlines).  Schema sidecars and model files are JSON with
an explicit ``format_version`` field; model files carry a checksum and key
all weights by label so they survive schema reordering.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .model import (
    LdfmModel,
    Variant,
    VariableSchema,
    _normalization_findings,
)
from .rng import make_rng

FORMAT_VERSION = 1
LOAD_NORMALIZATION_WARN = 1e-6


class DatasetFormatError(ValueError):
    """Malformed dataset file or rows inconsistent with a fixed schema."""


class ModelFormatError(ValueError):
    """Malformed, truncated, or corrupted model/schema file."""


@dataclass(frozen=True)
class Dataset:
    schema: VariableSchema
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"rows must be (B, {self.schema.n}), got {rows.shape}")
        self.schema.check_assignments(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return self.rows.shape[0]


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise DatasetFormatError(f"{path}: empty dataset file")
    return [line for line in lines if line != ""]


def load_dataset(path, schema: VariableSchema | None = None) -> Dataset:
    """Parse a dataset file; infer domains unless a schema is supplied.

    Inferred domains list labels in order of first appearance.  A supplied
    schema wins: headers must match its variable order and every label must
    belong to the declared domain.  Labels are mapped one column at a time
    through the schema's label-to-index dicts.  A line the file repeats is
    split and mapped once.  The first line with the wrong number of fields
    is reported before any label; an unknown label is reported at the first
    line that holds one, in that line's first bad column.
    """
    header, *body = _read_lines(path)
    header = header.split(",")
    if schema is not None:
        if list(schema.names) != header:
            raise DatasetFormatError(
                f"{path}: header {header} does not match schema variables {list(schema.names)}"
            )
    # the distinct lines in order of first appearance, which keeps the
    # file's first bad line first and its labels' order of first appearance
    distinct = {line: i for i, line in enumerate(dict.fromkeys(body))}
    lines = list(distinct)
    table = [line.split(",") for line in lines]
    n = len(header)
    if set(map(len, table)) - {n}:
        line, row = next((line, row) for line, row in zip(lines, table) if len(row) != n)
        raise DatasetFormatError(
            f"{path}:{body.index(line) + 2}: expected {n} fields, found {len(row)}"
        )
    columns = list(zip(*table)) or [()] * n
    if schema is None:
        if not body:
            raise DatasetFormatError(f"{path}: dataset has a header but no rows")
        try:
            schema = VariableSchema(
                tuple((name, tuple(dict.fromkeys(col))) for name, col in zip(header, columns))
            )
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from None
    rows = np.empty((len(table), n), dtype=np.int64)
    bad = []  # (first bad distinct line, column) of every column holding an unknown label
    for i, (col, index) in enumerate(zip(columns, schema.label_index)):
        try:
            rows[:, i] = np.fromiter(map(index.__getitem__, col), np.int64, len(col))
        except KeyError:
            bad.append((next(r for r, label in enumerate(col) if label not in index), i))
    if bad:
        r, i = min(bad)
        raise DatasetFormatError(
            f"{path}:{body.index(lines[r]) + 2}: unknown value {columns[i][r]!r} "
            f"for variable {header[i]!r}"
        )
    return Dataset(schema, rows[np.fromiter(map(distinct.__getitem__, body), np.intp, len(body))])


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` as a header line and one line of labels per row,
    mapping each column's value indices through its variable's label
    tuple."""
    schema = dataset.schema
    columns = [
        map(labels.__getitem__, dataset.rows[:, i].tolist())
        for i, (_, labels) in enumerate(schema.variables)
    ]
    lines = [",".join(schema.names), *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- JSON documents: schema sidecars and model files -------------------------


def _write_document(path, body: dict, sort_keys: bool) -> None:
    """Write ``body`` under this format's ``format_version`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": FORMAT_VERSION, **body}, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _read_document(path, kind: str) -> dict:
    """The JSON object in a ``kind`` ("schema" or "model") file; bad JSON or
    another ``format_version`` raises ModelFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a valid {kind} file ({exc})") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format_version {version!r}")
    return doc


def _variables_doc(schema: VariableSchema) -> list[dict]:
    """The ``variables`` list that schema sidecars and model files store."""
    return [{"name": name, "domain": list(dom)} for name, dom in schema.variables]


def _schema_from_variables(variables) -> VariableSchema:
    """The schema a stored ``variables`` list describes; anything but the
    exact shape :func:`_variables_doc` writes raises."""
    schema = VariableSchema(tuple((v["name"], tuple(v["domain"])) for v in variables))
    if variables != _variables_doc(schema):
        raise TypeError("variables must be a list of {name: string, domain: [string, ...]}")
    return schema


def save_schema(schema: VariableSchema, path) -> None:
    _write_document(path, {"variables": _variables_doc(schema)}, sort_keys=False)


def load_schema(path) -> VariableSchema:
    """Read a schema sidecar; any defect raises ModelFormatError naming the file."""
    doc = _read_document(path, "schema")
    try:
        return _schema_from_variables(doc["variables"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed schema ({type(exc).__name__}: {exc})") from None


# -- model files ------------------------------------------------------------


def _model_payload(model: LdfmModel) -> dict:
    schema = model.schema
    keys = [(name, label) for name, dom in schema.variables for label in dom]
    legal = schema.source_mask.tolist()
    dep = model.dep.tolist()

    def by_label(cells) -> dict:
        """The {variable: {label: value}} map of (key column, value) cells;
        :func:`_model_tables`'s ``cells`` is its inverse."""
        out: dict = {}
        for col, value in cells:
            name, label = keys[col]
            out.setdefault(name, {})[label] = value
        return out

    # every target is legal from the root; a pair key's own variable is not
    sources = [by_label(compress(enumerate(w), m)) for w, m in zip(dep[1:], legal[1:])]
    payload: dict = {
        "variant": model.variant.value,
        "variables": _variables_doc(schema),
        "root_weights": by_label(enumerate(dep[0])),
        "weights": by_label(enumerate(sources)),
    }
    if model.variant is Variant.STOP_AUGMENTED:
        stop = model.stop.tolist()
        payload["root_stop"] = stop[0]
        payload["stop_weights"] = by_label(enumerate(stop[1:]))
    return payload


def _payload_checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_model(model: LdfmModel, path) -> None:
    payload = _model_payload(model)
    doc = {"checksum": _payload_checksum(payload), "payload": payload}
    _write_document(path, doc, sort_keys=True)


def _number(value, what: str):
    """``value`` if JSON typed it as a number (true and false are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} {value!r} is not a number")
    return value


def _model_tables(payload: dict, path) -> tuple:
    """The (schema, variant, dep, stop) a payload describes; any structure
    or type error raises."""
    schema = _schema_from_variables(payload["variables"])
    variant = Variant(payload["variant"])
    k = schema.num_keys
    dep = np.zeros((1 + k, k))
    dep_set = np.zeros((1 + k, k), dtype=bool)

    def cells(entries: dict):
        """(key column, value) for each entry of a {variable: {label: value}} map."""
        for var_name, by_label in entries.items():
            v = schema.var_index(var_name)
            for label, value in by_label.items():
                yield schema.col_of(v, schema.value_index(v, label)), value

    rows = [(0, payload["root_weights"])] + [(1 + c, e) for c, e in cells(payload["weights"])]
    for row, entries in rows:
        for col, weight in cells(entries):
            dep[row, col], dep_set[row, col] = _number(weight, "weight"), True
    missing = np.argwhere(schema.source_mask & ~dep_set)
    if missing.size:
        row, col = missing[0]
        raise ModelFormatError(
            f"{path}: no weight for {schema.describe_row(row)} -> {schema.describe_row(1 + col)}"
        )

    stop = None
    if variant is Variant.STOP_AUGMENTED:
        stop = np.zeros(1 + k)
        stop_set = np.zeros(1 + k, dtype=bool)
        stop[0], stop_set[0] = _number(payload["root_stop"], "root_stop"), True
        for col, weight in cells(payload["stop_weights"]):
            stop[1 + col], stop_set[1 + col] = _number(weight, "stop weight"), True
        if not stop_set.all():
            row = np.argmin(stop_set)
            raise ModelFormatError(f"{path}: no stop weight for {schema.describe_row(row)}")

    return schema, variant, dep, stop


def load_model(path) -> LdfmModel:
    """Rebuild a model from a file produced by :func:`save_model`.

    Rejects version mismatches, truncation, checksum failures and every
    weight defect that :class:`~ldfm.model.LdfmModel` rejects outright; a
    normalization deviation beyond 1e-6 only warns, since slightly stale
    weights are still usable.
    """
    doc = _read_document(path, "model")
    payload = doc.get("payload")
    if payload is None or "checksum" not in doc:
        raise ModelFormatError(f"{path}: missing payload or checksum")
    if _payload_checksum(payload) != doc["checksum"]:
        raise ModelFormatError(f"{path}: checksum mismatch")

    try:
        tables = _model_tables(payload, path)
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed payload ({type(exc).__name__}: {exc})") from None
    try:
        model = LdfmModel(*tables)
    except ValueError as exc:  # a weight defect: the tables are the right shape
        raise ModelFormatError(f"{path}: {exc}") from None
    deviations = _normalization_findings(model, LOAD_NORMALIZATION_WARN)
    if deviations:
        warnings.warn(
            f"{path}: loaded weights deviate from normalization in {len(deviations)} "
            f"row(s), first {deviations[0]}",
            RuntimeWarning,
            stacklevel=2,
        )
    return model


# -- ground-truth networks ---------------------------------------------------


@dataclass(frozen=True)
class GroundTruthNet:
    """Discrete directed network used to synthesize training/test data.

    ``cpts[i]`` has one row per joint parent configuration (mixed-radix
    order over ``parents[i]``) and one column per value of variable i.
    """

    schema: VariableSchema
    parents: tuple[tuple[int, ...], ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = self.schema.n
        if len(self.parents) != n or len(self.cpts) != n:
            raise ValueError("parents and cpts must cover every variable")
        order = self.topo_order()
        if order is None:
            raise ValueError("parent graph must be acyclic")
        cards = self.schema.cards
        fixed = []
        for i, cpt in enumerate(self.cpts):
            configs = int(np.prod([cards[p] for p in self.parents[i]], initial=1.0))
            cpt = np.array(cpt, dtype=np.float64)
            if cpt.shape != (configs, int(cards[i])):
                raise ValueError(
                    f"cpt for variable {i} must be {(configs, int(cards[i]))}, got {cpt.shape}"
                )
            if np.any(np.abs(cpt.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError(f"cpt rows for variable {i} must sum to 1")
            cpt.setflags(write=False)
            fixed.append(cpt)
        object.__setattr__(self, "cpts", tuple(fixed))
        object.__setattr__(self, "parents", tuple(tuple(p) for p in self.parents))

    def topo_order(self) -> list[int] | None:
        n = self.schema.n
        indeg = [len(p) for p in self.parents]
        children: list[list[int]] = [[] for _ in range(n)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        ready = [i for i in range(n) if indeg[i] == 0]
        order = []
        while ready:
            i = ready.pop()
            order.append(i)
            for c in children[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return order if len(order) == n else None


def forward_sample(net: GroundTruthNet, count: int, seed) -> Dataset:
    """Ancestral sampling in topological order; deterministic given the seed."""
    rng = make_rng(seed)
    schema = net.schema
    cards = schema.cards
    rows = np.zeros((count, schema.n), dtype=np.int64)
    for i in net.topo_order():
        ps = list(net.parents[i])
        config = np.ravel_multi_index(rows[:, ps].T, cards[ps]) if ps else np.zeros(count, np.intp)
        cum = np.cumsum(net.cpts[i][config], axis=1)
        u = rng.random(count)
        rows[:, i] = np.argmax(u[:, None] < cum, axis=1)
    return Dataset(schema, rows)


def _random_cpt(rng: np.random.Generator, configs: int, card: int) -> np.ndarray:
    """Sharply peaked rows so the synthesized variables depend strongly."""
    return rng.dirichlet(np.full(card, 0.35), size=configs)


def fixture_net(n: int) -> GroundTruthNet:
    """Built-in ground-truth networks with 8, 11, or 20 variables.

    Shapes mirror common benchmark dimensions (binary 8-variable, ternary
    11-variable, mixed-cardinality 20-variable with max in-degree 2); the
    table values are synthesized deterministically.
    """
    if n == 8:
        rng = make_rng(80801)
        schema = VariableSchema(tuple((f"V{i}", ("yes", "no")) for i in range(8)))
        parents = ((), (0,), (0,), (1, 2), (3,), (3,), (4,), (5, 6))
    elif n == 11:
        rng = make_rng(111101)
        schema = VariableSchema(
            tuple((f"V{i}", ("low", "mid", "high")) for i in range(11))
        )
        parents = ((), (0,), (0,), (1,), (1, 2), (2,), (3, 4), (4, 5), (6,), (6, 7), (8,))
    elif n == 20:
        rng = make_rng(202001)
        cards = [2, 3, 2, 4, 3, 2, 3, 2, 6, 3, 2, 3, 2, 4, 3, 2, 3, 2, 3, 2]
        schema = VariableSchema(
            tuple(
                (f"V{i}", tuple(f"s{k}" for k in range(cards[i])))
                for i in range(20)
            )
        )
        parents = tuple(
            () if i == 0 else ((i - 1,) if i % 3 else (i - 1, max(0, i - 5)))
            for i in range(20)
        )
    else:
        raise ValueError(f"no fixture net with {n} variables (choose 8, 11, or 20)")
    cards = schema.cards
    cpts = tuple(
        _random_cpt(rng, int(np.prod([cards[p] for p in ps], initial=1.0)), int(cards[i]))
        for i, ps in enumerate(parents)
    )
    return GroundTruthNet(schema, parents, cpts)
