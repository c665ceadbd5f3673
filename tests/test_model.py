import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldfm.dataio import Dataset, ModelFormatError, load_model, save_model
from ldfm.learning import TrainConfig, train_em
from ldfm.matrix_tree import unnormalized_log_joint_many
from ldfm.model import (
    MIN_LOAD_WEIGHT,
    MISSING,
    LdfmModel,
    Variant,
    VariableSchema,
    make_uniform_model,
    validate_model,
)
from ldfm.oracle import brute_unnormalized_joint

from conftest import WEIGHT_DEFECTS, random_model, random_schema, rewrite_payload, tables_with


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


@pytest.mark.parametrize("where", ["name", "label"])
def test_schema_rejects_empty_names_and_labels(where):
    # a dataset line holding only an empty label is blank, and blank lines
    # are skipped on load, so such rows would be lost
    variables = (("", ("x", "y")),) if where == "name" else (("A", ("x", "")),)
    with pytest.raises(ValueError, match="^a name or label is empty$"):
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
    rows = range(1 + schema.num_keys)
    labels = ["root", "A=T", "A=F", "B=x", "B=y", "B=z"]
    assert [schema.describe_row(row) for row in rows] == labels
    with pytest.raises(ValueError):
        schema.col_of(1, 3)


def test_uniform_plain_two_binary(two_binary_schema):
    model = make_uniform_model(two_binary_schema, Variant.PLAIN)
    # root has 4 targets, each pair key has the 2 values of the other variable
    s = two_binary_schema
    assert model.dep[0, s.col_of(0, 0)] == pytest.approx(0.25)
    for val in range(2):
        for tval in range(2):
            assert model.dep[1 + s.col_of(0, val), s.col_of(1, tval)] == pytest.approx(0.5)
    assert validate_model(model) == []


def test_uniform_stop_three_ternary():
    schema = VariableSchema(
        tuple((f"X{i}", ("a", "b", "c")) for i in range(3))
    )
    model = make_uniform_model(schema, Variant.STOP_AUGMENTED)
    row = 1 + schema.col_of(0, 1)
    assert model.stop[row] == pytest.approx(1 / 7)
    assert model.dep[row, schema.col_of(2, 0)] == pytest.approx(1 / 7)
    assert validate_model(model) == []


def test_uniform_model_is_deterministic(two_binary_schema):
    a = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    b = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    assert np.array_equal(a.dep, b.dep)
    assert np.array_equal(a.stop, b.stop)


def test_validate_flags_scaled_row(two_binary_schema):
    base = make_uniform_model(two_binary_schema)
    dep = base.dep.copy()
    row = 1 + two_binary_schema.col_of(0, 0)
    dep[row] *= 1.1
    bad = LdfmModel(two_binary_schema, Variant.PLAIN, dep)
    violations = validate_model(bad)
    assert len(violations) == 1
    assert "X1=T" in violations[0]


def test_validate_flags_negative_weight(two_binary_schema):
    # a weight defect is found when the model is built, so validate_model
    # never sees one
    base = make_uniform_model(two_binary_schema)
    dep = base.dep.copy()
    dep[0, 0] = -0.25
    dep[0, 1] = 0.75
    with pytest.raises(ValueError, match=r"^model weights are invalid: root: dep weight outside \[0, 1\]$"):
        LdfmModel(two_binary_schema, Variant.PLAIN, dep)


@pytest.mark.parametrize("variant", list(Variant))
def test_validate_reports_a_weight_below_the_load_bound(two_binary_schema, variant):
    # load_model rejects such a model, so no model may hold it
    base = make_uniform_model(two_binary_schema, variant)
    dep = base.dep.copy()
    row, col = 1 + two_binary_schema.col_of(0, 0), two_binary_schema.col_of(1, 1)
    dep[row, col] = 1e-20
    dep[row, col - 1] += base.dep[row, col] - 1e-20
    with pytest.raises(ValueError) as info:
        LdfmModel(two_binary_schema, variant, dep, base.stop)
    assert str(info.value) == (
        "model weights are invalid: X1=T -> X2=F: dep weight 1e-20 is below the smallest "
        f"loadable weight {MIN_LOAD_WEIGHT:g}"
    )


def test_validate_reports_the_first_tiny_dep_and_stop_weights(two_binary_schema):
    base = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    dep, stop = base.dep.copy(), base.stop.copy()
    dep[0, 1] = dep[0, 3] = 3e-13  # two tiny dep cells: only the first is named
    stop[2] = 1e-15
    with pytest.raises(ValueError) as info:
        LdfmModel(two_binary_schema, Variant.STOP_AUGMENTED, dep, stop)
    found = str(info.value).removeprefix("model weights are invalid: ").split("; ")
    assert [v.split(" is below")[0] for v in found] == [
        "root -> X1=F: dep weight 3e-13",
        "X1=F: stop weight 1e-15",
    ]


def test_a_weight_defect_hides_the_tiny_weights(two_binary_schema):
    # as load_model has always done, the load bound is reported only when
    # no other weight defect is
    base = make_uniform_model(two_binary_schema)
    dep = base.dep.copy()
    dep[0, 0], dep[0, 1] = -0.25, 0.75  # a negative root weight; the row still sums to 1
    dep[1, 3] = 1e-20  # tiny X1=T -> X2=F weight
    with pytest.raises(ValueError) as info:
        LdfmModel(two_binary_schema, Variant.PLAIN, dep)
    assert str(info.value) == "model weights are invalid: root: dep weight outside [0, 1]"


def set_payload_weight(payload: dict, schema: VariableSchema, table: str, cell: tuple, value) -> None:
    """Set the labelled entry of a model file's payload that holds one
    ``table`` cell: the inverse of the file's by-label layout."""
    source = schema.describe_row(cell[0]).split("=")
    if table == "stop":
        if cell[0] == 0:
            payload["root_stop"] = value
        else:
            payload["stop_weights"][source[0]][source[1]] = value
        return
    entries = payload["root_weights"] if cell[0] == 0 else payload["weights"][source[0]][source[1]]
    name, label = schema.describe_row(1 + cell[1]).split("=")
    entries.setdefault(name, {})[label] = value


@pytest.mark.parametrize("build", ["LdfmModel", "replace", "load_model"])
@pytest.mark.parametrize(
    "defect, variant",
    [
        pytest.param(name, variant, id=f"{name}-{variant.value}")
        for name, (table, *_) in WEIGHT_DEFECTS.items()
        for variant in Variant
        if table == "dep" or variant is Variant.STOP_AUGMENTED
    ],
)
def test_a_model_with_a_weight_defect_is_never_built(two_binary_schema, tmp_path, build, defect, variant):
    table, cell, value, words = WEIGHT_DEFECTS[defect]
    base = make_uniform_model(two_binary_schema, variant)
    tables = tables_with(base, table, cell, value)
    path = tmp_path / "m.model"
    save_model(base, path)
    rewrite_payload(path, lambda payload: set_payload_weight(payload, base.schema, table, cell, value))
    builds = {
        "LdfmModel": lambda: LdfmModel(base.schema, variant, **tables),
        "replace": lambda: replace(base, **tables),
        "load_model": lambda: load_model(path),
    }
    prefix = re.escape(f"{path}: ") if build == "load_model" else ""
    with pytest.raises(ValueError, match=f"^{prefix}model weights are invalid: .*{words}") as info:
        builds[build]()
    assert isinstance(info.value, ModelFormatError) == (build == "load_model")


@pytest.mark.parametrize("variant", list(Variant))
def test_a_variant_is_its_member_or_its_value(two_binary_schema, variant):
    member = make_uniform_model(two_binary_schema, variant)
    by_value = make_uniform_model(two_binary_schema, variant.value)
    assert by_value.variant is variant and member.variant is variant
    np.testing.assert_array_equal(by_value.dep, member.dep)
    np.testing.assert_array_equal(by_value.log_stop, member.log_stop)
    assert LdfmModel(two_binary_schema, variant.value, member.dep, member.stop).variant is variant
    with pytest.raises(ValueError, match="'forest'"):
        make_uniform_model(two_binary_schema, "forest")
    with pytest.raises(ValueError, match="'forest'"):
        LdfmModel(two_binary_schema, "forest", member.dep, member.stop)


def test_validate_rejects_saturated_stop_weights(two_binary_schema):
    # stop weight 1 on top of positive outgoing mass breaks normalization
    base = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    bad = LdfmModel(
        two_binary_schema, Variant.STOP_AUGMENTED, base.dep, np.ones_like(base.stop)
    )
    assert validate_model(bad) != []


def test_validate_single_variable_plain_model_skips_empty_rows():
    schema = VariableSchema((("A", ("T", "F")),))
    model = make_uniform_model(schema, Variant.PLAIN)
    assert validate_model(model) == []


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
    assert validate_model(model) == []
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


ONE_BINARY = VariableSchema((("A", ("T", "F")),))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: LdfmModel(ONE_BINARY, Variant.PLAIN, np.zeros((2, 2))), ValueError,
         r"dep table must have shape \(3, 2\), got \(2, 2\)"),
        (lambda: LdfmModel(ONE_BINARY, Variant.STOP_AUGMENTED, np.zeros((3, 2)), np.zeros(2)),
         ValueError, r"stop weights must have shape \(3,\), got \(2,\)"),
        (lambda: LdfmModel(ONE_BINARY, Variant.STOP_AUGMENTED, np.zeros((3, 2))), ValueError,
         "stop-augmented model requires stop weights"),
        (lambda: LdfmModel(ONE_BINARY, Variant.PLAIN, np.zeros((3, 2)), np.zeros(3)), ValueError,
         "plain model must not carry stop weights"),
        (lambda: ONE_BINARY.value_index(0, "maybe"), KeyError, "unknown value 'maybe' for variable 'A'"),
        (lambda: ONE_BINARY.col_of(1, 0), ValueError, "variable index 1 out of range"),
    ],
    ids=["dep-shape", "stop-shape", "stop-missing", "stop-on-plain", "unknown-label",
         "variable-out-of-range"],
)
def test_rejection_paths(build, error, message):
    with pytest.raises(error, match=message):
        build()
