import json

import numpy as np
import pytest

from ldfm.dataio import _payload_checksum
from ldfm.model import MIN_LOAD_WEIGHT, LdfmModel, Variant, VariableSchema

# Worked 2-node example used across modules: three spanning trees with
# weights 0.2*0.3 + 0.2*0.4 + 0.3*0.5 = 0.29, edge masses 0.14/0.21/0.08/0.15.
WORKED_W01 = 0.2
WORKED_W02 = 0.3
WORKED_W12 = 0.4
WORKED_W21 = 0.5
WORKED_Z = 0.2 * 0.3 + 0.2 * 0.4 + 0.3 * 0.5


def worked_graph() -> np.ndarray:
    w = np.zeros((3, 2))
    w[0, 0] = WORKED_W01
    w[0, 1] = WORKED_W02
    w[1, 1] = WORKED_W12
    w[2, 0] = WORKED_W21
    return w


def model_from_weights(
    schema: VariableSchema,
    entries: dict[tuple, float],
    variant: Variant = Variant.PLAIN,
    stop: dict | None = None,
) -> LdfmModel:
    """Build a model from explicit (source, target) -> weight entries.

    A source is None for the root or a (var, val) pair; a target is a
    (var, val) pair.  ``stop`` maps sources the same way.
    """

    def row(src) -> int:
        return 0 if src is None else 1 + schema.col_of(*src)

    k = schema.num_keys
    dep = np.zeros((1 + k, k))
    for (src, tgt), w in entries.items():
        dep[row(src), schema.col_of(*tgt)] = w
    stop_arr = None
    if variant is Variant.STOP_AUGMENTED:
        stop_arr = np.zeros(1 + k)
        for src, w in (stop or {}).items():
            stop_arr[row(src)] = w
    return LdfmModel(schema, variant, dep, stop_arr)


@pytest.fixture
def two_binary_schema() -> VariableSchema:
    return VariableSchema((("X1", ("T", "F")), ("X2", ("T", "F"))))


@pytest.fixture
def worked_model(two_binary_schema) -> LdfmModel:
    """2-binary model whose graph at assignment (T, T) is the worked example."""
    s = two_binary_schema
    x1t, x1f = (0, 0), (0, 1)
    x2t, x2f = (1, 0), (1, 1)
    return model_from_weights(
        s,
        {
            (None, x1t): WORKED_W01,
            (None, x2t): WORKED_W02,
            (None, x1f): 0.3,
            (None, x2f): 0.2,
            (x1t, x2t): WORKED_W12,
            (x1t, x2f): 0.6,
            (x1f, x2t): 0.5,
            (x1f, x2f): 0.5,
            (x2t, x1t): WORKED_W21,
            (x2t, x1f): 0.5,
            (x2f, x1t): 0.5,
            (x2f, x1f): 0.5,
        },
    )


def random_model(
    rng: np.random.Generator,
    schema: VariableSchema,
    variant: Variant = Variant.PLAIN,
) -> LdfmModel:
    """Random normalized model with weights bounded away from zero."""
    mask = schema.source_mask
    raw = np.where(mask, rng.uniform(0.05, 1.0, size=mask.shape), 0.0)
    if variant is Variant.PLAIN:
        sums = raw.sum(axis=1)
        dep = np.where(sums[:, None] > 0, raw / np.where(sums > 0, sums, 1.0)[:, None], 0.0)
        return LdfmModel(schema, variant, dep)
    stop_raw = rng.uniform(0.05, 1.0, size=mask.shape[0])
    total = raw.sum(axis=1) + stop_raw
    return LdfmModel(schema, variant, raw / total[:, None], stop_raw / total)


def random_schema(rng: np.random.Generator, n: int, max_card: int = 3) -> VariableSchema:
    cards = rng.integers(2, max_card + 1, size=n)
    return VariableSchema(
        tuple(
            (f"X{i + 1}", tuple(f"v{j}" for j in range(int(cards[i]))))
            for i in range(n)
        )
    )


# Every kind of defect weight_violations reports, as (table, cell, value,
# words of the report): dep cell (1, 1) is X1=T -> X1=F and stop cell (2,)
# is X1=F, on a schema whose first variable has two or more values.
WEIGHT_DEFECTS = {
    "nan": ("dep", (0, 0), np.nan, "dep weights contain non-finite entries"),
    "inf": ("dep", (0, 0), np.inf, "dep weights contain non-finite entries"),
    "negative": ("dep", (0, 0), -0.1, r"root: dep weight outside \[0, 1\]"),
    "same-variable": ("dep", (1, 1), 0.1, "X1=T: nonzero weight for a same-variable target"),
    "below-load-bound": ("dep", (0, 0), MIN_LOAD_WEIGHT / 10, "below the smallest loadable weight"),
    "stop-nan": ("stop", (2,), np.nan, "stop weights contain non-finite entries"),
    "stop-negative": ("stop", (2,), -0.1, r"X1=F: stop weight outside \[0, 1\]"),
    "stop-below-load-bound": ("stop", (2,), MIN_LOAD_WEIGHT / 10, "X1=F: stop weight 5e-14 is below"),
}
DEP_DEFECTS = {name: defect for name, defect in WEIGHT_DEFECTS.items() if defect[0] == "dep"}


def tables_with(model: LdfmModel, table: str, cell: tuple, value: float) -> dict:
    """``model``'s dep and stop tables, copied, with one cell of ``table``
    set to ``value``: keyword arguments for LdfmModel or dataclasses.replace."""
    tables = {"dep": model.dep.copy(), "stop": None if model.stop is None else model.stop.copy()}
    tables[table][cell] = value
    return tables


def rewrite_payload(path, edit) -> None:
    """Apply ``edit`` to a saved model's payload and re-sign it, so only the
    weight checks stand between the file and a loaded model."""
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    doc["checksum"] = _payload_checksum(doc["payload"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def count_method_calls(monkeypatch, cls, name: str) -> list:
    """Wrap method ``cls.name`` for the test; the returned list grows by one
    entry per call."""
    calls: list = []
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls
