import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldfm.dataio import Dataset
from ldfm.learning import TrainConfig, train_em
from ldfm.matrix_tree import unnormalized_log_joint_many
from ldfm.model import (
    MISSING,
    NodeKey,
    ROOT,
    LdfmModel,
    Variant,
    VariableSchema,
    make_uniform_model,
    validate_model,
)
from ldfm.oracle import brute_unnormalized_joint

from conftest import random_model, random_schema


def test_schema_rejects_bad_input():
    with pytest.raises(ValueError):
        VariableSchema(())
    with pytest.raises(ValueError):
        VariableSchema((("A", ()),))
    with pytest.raises(ValueError):
        VariableSchema((("A", ("x", "x")),))
    with pytest.raises(ValueError):
        VariableSchema((("A", ("x",)), ("A", ("y",))))


@pytest.mark.parametrize("text", ["y,z", "y\nz", "y\rz", ","])
@pytest.mark.parametrize("where", ["name", "label"])
def test_schema_rejects_separators_in_names_and_labels(text, where):
    # a dataset row is one comma-separated line, so such text cannot round-trip
    variables = ((text, ("x", "y")),) if where == "name" else (("A", ("x", text)),)
    with pytest.raises(ValueError, match="comma or line break"):
        VariableSchema(variables)


@pytest.mark.parametrize("text", [" y", "y ", "y\t", " "])
@pytest.mark.parametrize("where", ["name", "label"])
def test_schema_rejects_padded_names_and_labels(text, where):
    # query bindings are stripped, so a padded label could never be queried
    variables = ((text, ("x", "y")),) if where == "name" else (("A", ("x", text)),)
    with pytest.raises(ValueError, match="leading or trailing whitespace"):
        VariableSchema(variables)


BAD_ASSIGNMENTS = {
    "wrong-width": [[0, 1, 0]],
    "missing": [[0, MISSING]],
    "domain-size": [[0, 2]],
    "minus-two": [[-2, 0]],
}


@pytest.mark.parametrize("xs", BAD_ASSIGNMENTS.values(), ids=BAD_ASSIGNMENTS.keys())
def test_every_entry_point_rejects_a_bad_assignment(two_binary_schema, xs):
    model = make_uniform_model(two_binary_schema)
    xs = np.array(xs)
    with pytest.raises(ValueError):
        two_binary_schema.check_assignments(xs)
    with pytest.raises(ValueError):
        Dataset(two_binary_schema, xs)
    with pytest.raises(ValueError):
        train_em(xs, two_binary_schema, TrainConfig(max_iters=1))
    with pytest.raises(ValueError):
        unnormalized_log_joint_many(model, xs)
    with pytest.raises(ValueError):
        brute_unnormalized_joint(model, xs[0])


def test_check_assignments_returns_int64_rows(two_binary_schema):
    xs = two_binary_schema.check_assignments(np.array([1, 0], dtype=np.uint8))
    assert xs.dtype == np.int64 and xs.tolist() == [[1, 0]]


def test_schema_index_arithmetic():
    schema = VariableSchema((("A", ("T", "F")), ("B", ("x", "y", "z"))))
    assert schema.n == 2
    assert schema.num_keys == 5
    assert list(schema.offsets) == [0, 2]
    assert schema.row_of(ROOT) == 0
    assert schema.row_of(NodeKey(1, 2)) == 5
    assert schema.key_of_col(3) == NodeKey(1, 1)
    assert schema.describe_key(NodeKey(0, 1)) == "A=F"
    with pytest.raises(ValueError):
        schema.col_of(1, 3)


def test_uniform_plain_two_binary(two_binary_schema):
    model = make_uniform_model(two_binary_schema, Variant.PLAIN)
    # root has 4 targets, each pair key has the 2 values of the other variable
    s = two_binary_schema
    assert model.dep[s.row_of(ROOT), s.col_of(0, 0)] == pytest.approx(0.25)
    for val in range(2):
        for tval in range(2):
            assert model.dep[s.row_of(NodeKey(0, val)), s.col_of(1, tval)] == pytest.approx(0.5)
    assert validate_model(model, 1e-9) == []


def test_uniform_stop_three_ternary():
    schema = VariableSchema(
        tuple((f"X{i}", ("a", "b", "c")) for i in range(3))
    )
    model = make_uniform_model(schema, Variant.STOP_AUGMENTED)
    row = schema.row_of(NodeKey(0, 1))
    assert model.stop[row] == pytest.approx(1 / 7)
    assert model.dep[row, schema.col_of(2, 0)] == pytest.approx(1 / 7)
    assert validate_model(model, 1e-9) == []


def test_uniform_model_is_deterministic(two_binary_schema):
    a = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    b = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    assert np.array_equal(a.dep, b.dep)
    assert np.array_equal(a.stop, b.stop)


def test_validate_flags_scaled_row(two_binary_schema):
    base = make_uniform_model(two_binary_schema)
    dep = base.dep.copy()
    row = two_binary_schema.row_of(NodeKey(0, 0))
    dep[row] *= 1.1
    bad = LdfmModel(two_binary_schema, Variant.PLAIN, dep)
    violations = validate_model(bad, 1e-9)
    assert len(violations) == 1
    assert "X1=T" in violations[0]


def test_validate_flags_negative_weight(two_binary_schema):
    base = make_uniform_model(two_binary_schema)
    dep = base.dep.copy()
    dep[0, 0] = -0.25
    dep[0, 1] = 0.75
    bad = LdfmModel(two_binary_schema, Variant.PLAIN, dep)
    assert any("outside [0, 1]" in v for v in validate_model(bad, 1e-9))


def test_validate_rejects_saturated_stop_weights(two_binary_schema):
    # stop weight 1 on top of positive outgoing mass breaks normalization
    base = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    bad = LdfmModel(
        two_binary_schema, Variant.STOP_AUGMENTED, base.dep, np.ones_like(base.stop)
    )
    assert validate_model(bad, 1e-9) != []


def test_validate_single_variable_plain_model_skips_empty_rows():
    schema = VariableSchema((("A", ("T", "F")),))
    model = make_uniform_model(schema, Variant.PLAIN)
    assert validate_model(model, 1e-9) == []


def test_model_arrays_are_frozen(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    with pytest.raises(ValueError):
        model.dep[0, 0] = 0.9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4), stop=st.booleans())
def test_uniform_rows_normalize_and_stay_in_range(seed, n, stop):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, n, max_card=4)
    variant = Variant.STOP_AUGMENTED if stop else Variant.PLAIN
    model = make_uniform_model(schema, variant)
    assert validate_model(model, 1e-9) == []
    totals = model.dep.sum(axis=1)
    if variant is Variant.STOP_AUGMENTED:
        totals = totals + model.stop
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)
    else:
        nonempty = schema.target_counts > 0
        np.testing.assert_allclose(totals[nonempty], 1.0, atol=1e-12)
    assert model.dep.min() >= 0.0 and model.dep.max() <= 1.0


@pytest.mark.parametrize("variant", list(Variant))
def test_log_tables_are_the_read_only_logs_of_the_weights(variant):
    rng = np.random.default_rng(3)
    schema = random_schema(rng, 4)
    model = random_model(rng, schema, variant)
    expected_stop = np.zeros(1 + schema.num_keys)
    with np.errstate(divide="ignore"):
        expected_dep = np.log(model.dep)  # -inf on the same-variable cells
        if variant is Variant.STOP_AUGMENTED:
            expected_stop = np.log(model.stop)
    assert np.isneginf(expected_dep).any()
    np.testing.assert_array_equal(model.log_dep, expected_dep)
    np.testing.assert_array_equal(model.log_stop, expected_stop)
    for name in ("log_dep", "log_stop"):
        table = getattr(model, name)
        assert getattr(model, name) is table  # computed once per model
        with pytest.raises(ValueError):
            table[0] = 0.5
        with pytest.raises(AttributeError):
            setattr(model, name, table.copy())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(1, 7),
    max_card=st.integers(2, 5),
    batch=st.integers(1, 6),
)
def test_edge_cells_index_the_cells_a_2d_gather_reads(seed, n, max_card, batch):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, n, max_card=max_card)
    k = schema.num_keys
    dep = rng.permutation((1 + k) * k).reshape(1 + k, k).astype(np.float64)  # distinct cells
    rows = schema.assignment_rows(rng.integers(0, schema.cards, size=(batch, n)))
    reference = dep[rows[:, :, None], rows[:, None, 1:] - 1]
    got = dep.take(schema.edge_cells(rows))
    assert got.shape == (batch, n + 1, n)
    np.testing.assert_array_equal(got, reference)
