import numpy as np
import pytest

from ldfm.model import NodeKey, ROOT, LdfmModel, Variant, VariableSchema

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
    entries: dict[tuple[NodeKey, NodeKey], float],
    variant: Variant = Variant.PLAIN,
    stop: dict[NodeKey, float] | None = None,
) -> LdfmModel:
    """Build a model from explicit (source, target) -> weight entries."""
    k = schema.num_keys
    dep = np.zeros((1 + k, k))
    for (src, tgt), w in entries.items():
        dep[schema.row_of(src), schema.col_of(tgt.var, tgt.val)] = w
    stop_arr = None
    if variant is Variant.STOP_AUGMENTED:
        stop_arr = np.zeros(1 + k)
        for key, w in (stop or {}).items():
            stop_arr[schema.row_of(key)] = w
    return LdfmModel(schema, variant, dep, stop_arr)


@pytest.fixture
def two_binary_schema() -> VariableSchema:
    return VariableSchema((("X1", ("T", "F")), ("X2", ("T", "F"))))


@pytest.fixture
def worked_model(two_binary_schema) -> LdfmModel:
    """2-binary model whose graph at assignment (T, T) is the worked example."""
    s = two_binary_schema
    x1t, x1f = NodeKey(0, 0), NodeKey(0, 1)
    x2t, x2f = NodeKey(1, 0), NodeKey(1, 1)
    return model_from_weights(
        s,
        {
            (ROOT, x1t): WORKED_W01,
            (ROOT, x2t): WORKED_W02,
            (ROOT, x1f): 0.3,
            (ROOT, x2f): 0.2,
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
