import hashlib
import json
import re

import numpy as np
import pytest

from ldfm.dataio import (
    Dataset,
    DatasetFormatError,
    GroundTruthNet,
    ModelFormatError,
    fixture_net,
    forward_sample,
    load_dataset,
    load_model,
    load_schema,
    save_dataset,
    save_model,
    save_schema,
)
from ldfm.learning import Smoothing, TrainConfig, train_em
from ldfm.model import MIN_LOAD_WEIGHT, WEIGHT_FLOOR, Variant, VariableSchema, make_uniform_model

from conftest import model_from_weights, random_model, rewrite_payload


def write(path, text):
    path.write_text(text, encoding="utf-8")


def test_load_dataset_infers_schema(tmp_path):
    p = tmp_path / "d.csv"
    write(p, "A,B\nT,T\nF,T\n")
    ds = load_dataset(p)
    assert ds.schema.names == ("A", "B")
    assert ds.schema.variables[0][1] == ("T", "F")
    assert ds.schema.variables[1][1] == ("T",)
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.rows, [[0, 0], [1, 0]])


def test_load_dataset_ragged_row_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    write(p, "A,B\nT,T\nT,F,extra\n")
    with pytest.raises(DatasetFormatError, match=":3"):
        load_dataset(p)


def test_load_dataset_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    write(p, "")
    with pytest.raises(DatasetFormatError):
        load_dataset(p)


@pytest.mark.parametrize("text", ["A,\nx,y\n", "A,B\nx,\nx,y\n"], ids=["name", "label"])
def test_inferred_schema_rejects_an_empty_name_or_label(tmp_path, text):
    p = tmp_path / "d.csv"
    write(p, text)
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(p))}: a name or label is empty$"):
        load_dataset(p)


def test_sidecar_schema_preserves_unseen_values(tmp_path):
    schema = VariableSchema((("A", ("A", "B", "C")),))
    sp = tmp_path / "s.json"
    save_schema(schema, sp)
    dp = tmp_path / "d.csv"
    write(dp, "A\nA\nB\n")
    ds = load_dataset(dp, schema=load_schema(sp))
    assert ds.schema.cards[0] == 3


def test_fixed_schema_rejects_unknown_label(tmp_path):
    schema = VariableSchema((("A", ("A", "B")),))
    dp = tmp_path / "d.csv"
    write(dp, "A\nC\n")
    with pytest.raises(DatasetFormatError, match=":2"):
        load_dataset(dp, schema=schema)


def test_fixed_schema_rejects_header_mismatch(tmp_path):
    schema = VariableSchema((("A", ("x",)), ("B", ("x",))))
    dp = tmp_path / "d.csv"
    write(dp, "B,A\nx,x\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(dp, schema=schema)


def test_dataset_round_trip(tmp_path):
    schema = VariableSchema((("A", ("T", "F")), ("B", ("x", "y", "z"))))
    rows = np.array([[0, 2], [1, 0], [0, 1]])
    ds = Dataset(schema, rows)
    p = tmp_path / "d.csv"
    save_dataset(ds, p)
    back = load_dataset(p, schema=schema)
    np.testing.assert_array_equal(back.rows, rows)
    save_dataset(back, tmp_path / "d2.csv")
    assert (tmp_path / "d.csv").read_text() == (tmp_path / "d2.csv").read_text()


def test_unknown_labels_name_the_earliest_row_and_its_first_bad_column(tmp_path):
    schema = VariableSchema((("A", ("x", "y")), ("B", ("p", "q")), ("C", ("u",))))
    dp = tmp_path / "d.csv"
    # column B's first unknown label is on a later line than column C's
    write(dp, "A,B,C\nx,p,u\nx,q,BAD1\ny,BAD2,BAD3\n")
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(dp, schema=schema)
    assert str(info.value) == f"{dp}:3: unknown value 'BAD1' for variable 'C'"
    # two unknown labels on the earliest bad line: the first column is named
    write(dp, "A,B,C\nx,p,u\ny,BAD2,BAD3\nBAD4,p,u\n")
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(dp, schema=schema)
    assert str(info.value) == f"{dp}:3: unknown value 'BAD2' for variable 'B'"
    # a wrong field count is reported before any label, even a later one
    write(dp, "A,B,C\nx,BAD,u\nx,p\n")
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(dp, schema=schema)
    assert str(info.value) == f"{dp}:3: expected 3 fields, found 2"


@pytest.mark.parametrize("n", [8, 11, 20])
def test_fixture_dataset_round_trip_keeps_rows_and_domain_order(tmp_path, n):
    ds = forward_sample(fixture_net(n), 300, n)
    p = tmp_path / "d.csv"
    save_dataset(ds, p)
    np.testing.assert_array_equal(load_dataset(p, schema=ds.schema).rows, ds.rows)

    inferred = load_dataset(p)
    assert inferred.schema.names == ds.schema.names
    for i, (_, labels) in enumerate(ds.schema.variables):
        _, first = np.unique(ds.rows[:, i], return_index=True)
        seen = ds.rows[np.sort(first), i]
        assert inferred.schema.variables[i][1] == tuple(labels[v] for v in seen)
        back = [inferred.schema.variables[i][1][v] for v in inferred.rows[:, i]]
        assert back == [labels[v] for v in ds.rows[:, i]]
    save_dataset(inferred, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


def test_schema_sidecar_round_trip(tmp_path):
    schema = VariableSchema((("A", ("T", "F")), ("B", ("x", "y", "z"))))
    p = tmp_path / "s.json"
    save_schema(schema, p)
    assert load_schema(p) == schema


def test_schema_version_mismatch(tmp_path):
    p = tmp_path / "s.json"
    write(p, json.dumps({"format_version": 99, "variables": []}))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_schema(p)


LOADERS = {"schema": load_schema, "model": load_model}


@pytest.mark.parametrize("kind", LOADERS)
def test_invalid_json_names_the_file_kind(tmp_path, kind):
    p = tmp_path / "f.json"
    write(p, '{"format_version": 1,')
    with pytest.raises(ModelFormatError) as info:
        LOADERS[kind](p)
    assert str(info.value).startswith(f"{p}: not a valid {kind} file (Expecting")


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("doc", ['{"format_version": 2}', '{"format_version": "1"}', "{}", "7"])
def test_unsupported_format_version_reads_the_same_for_both_file_kinds(tmp_path, kind, doc):
    p = tmp_path / "f.json"
    write(p, doc)
    version = json.loads(doc).get("format_version") if doc.startswith("{") else None
    with pytest.raises(ModelFormatError) as info:
        LOADERS[kind](p)
    assert str(info.value) == f"{p}: unsupported format_version {version!r}"


@pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.STOP_AUGMENTED])
def test_model_round_trip_is_bit_exact(tmp_path, variant):
    rng = np.random.default_rng(101)
    schema = VariableSchema((("A", ("T", "F")), ("B", ("x", "y", "z"))))
    model = random_model(rng, schema, variant)
    p = tmp_path / "m.model"
    save_model(model, p)
    back = load_model(p)
    assert back.variant is variant
    assert back.schema == schema
    np.testing.assert_array_equal(back.dep, model.dep)
    if variant is Variant.STOP_AUGMENTED:
        np.testing.assert_array_equal(back.stop, model.stop)


# sha256 of save_model's bytes for fixed-weight models; the weights are exact
# binary fractions or simple quotients, so the digests do not depend on numpy
SAVED_MODEL_SHA256 = {
    "worked-plain": "868f90292a7fc8ed85e146da30cd776bbf825403fa0f67cfbdbc56302731816d",
    "uniform-plain": "b7d191a172ef410666ca9cea918cc6bb4df9e22d76477b81fc22a207933a902a",
    "uniform-stop": "d6c6686603eafc30a57893948a0c8a7b1806b7aa0183963894718ad7acac722d",
}


@pytest.mark.parametrize("name", SAVED_MODEL_SHA256)
def test_saved_model_bytes_are_pinned(tmp_path, worked_model, name):
    mixed = VariableSchema((("A", ("T", "F")), ("B", ("x", "y", "z"))))
    model = {
        "worked-plain": worked_model,
        "uniform-plain": make_uniform_model(mixed, Variant.PLAIN),
        "uniform-stop": make_uniform_model(mixed, Variant.STOP_AUGMENTED),
    }[name]
    p = tmp_path / "m.model"
    save_model(model, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == SAVED_MODEL_SHA256[name]


def test_model_truncated_file_rejected(tmp_path):
    model = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))
    p = tmp_path / "m.model"
    save_model(model, p)
    text = p.read_text()
    write(p, text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_model_checksum_failure_rejected(tmp_path):
    model = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))
    p = tmp_path / "m.model"
    save_model(model, p)
    doc = json.loads(p.read_text())
    doc["payload"]["root_weights"]["A"]["T"] = 0.9
    write(p, json.dumps(doc))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(p)


def test_model_mild_normalization_break_warns(tmp_path, two_binary_schema):
    base = make_uniform_model(two_binary_schema)
    from ldfm.model import LdfmModel

    dep = base.dep.copy()
    dep[0] *= 1.001
    skewed = LdfmModel(two_binary_schema, Variant.PLAIN, dep)
    p = tmp_path / "m.model"
    save_model(skewed, p)
    with pytest.warns(RuntimeWarning, match="normalization"):
        back = load_model(p)
    np.testing.assert_array_equal(back.dep, dep)


def test_forward_sample_deterministic_point_mass():
    schema = VariableSchema((("A", ("T", "F")),))
    net = GroundTruthNet(schema, ((),), (np.array([[1.0, 0.0]]),))
    ds = forward_sample(net, 50, seed=1)
    assert np.all(ds.rows == 0)


def test_forward_sample_copy_chain():
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
    net = GroundTruthNet(
        schema,
        ((), (0,)),
        (np.array([[0.4, 0.6]]), np.array([[1.0, 0.0], [0.0, 1.0]])),
    )
    ds = forward_sample(net, 200, seed=2)
    np.testing.assert_array_equal(ds.rows[:, 0], ds.rows[:, 1])


def test_forward_sample_same_seed_same_rows():
    net = fixture_net(8)
    a = forward_sample(net, 100, seed=3)
    b = forward_sample(net, 100, seed=3)
    np.testing.assert_array_equal(a.rows, b.rows)
    c = forward_sample(net, 100, seed=4)
    assert not np.array_equal(a.rows, c.rows)


def test_forward_sample_marginals_match_enumeration():
    net = fixture_net(8)
    ds = forward_sample(net, 5000, seed=5)
    # exact marginals by chain-rule enumeration over all 2^8 assignments
    probs = np.zeros((8, 2))
    for combo in np.ndindex(*(2,) * 8):
        p = 1.0
        for i in net.topo_order():
            ps = net.parents[i]
            idx = 0
            for parent in ps:
                idx = idx * 2 + combo[parent]
            p *= net.cpts[i][idx, combo[i]]
        for i in range(8):
            probs[i, combo[i]] += p
    emp = np.column_stack(
        [(ds.rows == v).mean(axis=0) for v in range(2)]
    )
    assert np.abs(emp - probs).max() < 0.02


def test_ground_truth_net_validation():
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
    with pytest.raises(ValueError, match="acyclic"):
        GroundTruthNet(
            schema,
            ((1,), (0,)),
            (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
        )
    with pytest.raises(ValueError, match="sum to 1"):
        GroundTruthNet(schema, ((), ()), (np.array([[0.5, 0.4]]), np.array([[0.5, 0.5]])))


@pytest.mark.parametrize("n,cards", [(8, 2), (11, 3), (20, None)])
def test_fixture_nets_shapes(n, cards):
    net = fixture_net(n)
    assert net.schema.n == n
    if cards is not None:
        assert set(net.schema.cards.tolist()) == {cards}
    else:
        assert net.schema.cards.max() == 6
        assert round(float(net.schema.cards.mean()), 1) == pytest.approx(2.8, abs=0.5)
    assert max(len(p) for p in net.parents) <= 3
    assert net.topo_order() is not None


def test_fixture_net_unknown_size():
    with pytest.raises(ValueError):
        fixture_net(13)


def saved_uniform(tmp_path, variant=Variant.PLAIN):
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
    p = tmp_path / "m.model"
    save_model(make_uniform_model(schema, variant), p)
    return p


def test_model_nan_weight_rejected(tmp_path):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, lambda pl: pl["weights"]["A"]["T"]["B"].update(F=float("nan")))
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(p)


def test_model_infinite_stop_weight_rejected(tmp_path):
    p = saved_uniform(tmp_path, Variant.STOP_AUGMENTED)
    rewrite_payload(p, lambda pl: pl["stop_weights"]["B"].update(T=float("inf")))
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(p)


def test_model_negative_weight_rejected(tmp_path):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, lambda pl: pl["root_weights"]["A"].update(T=-0.25, F=0.75))
    with pytest.raises(ModelFormatError, match="root"):
        load_model(p)


def test_model_same_variable_weight_rejected(tmp_path):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, lambda pl: pl["weights"]["A"]["T"].update(A={"F": 0.1}))
    with pytest.raises(ModelFormatError, match="same-variable"):
        load_model(p)


@pytest.mark.parametrize("variant", list(Variant))
def test_sparsity_trained_model_under_the_floor_saves_and_loads(tmp_path, variant):
    # EM floors weights and then renormalises, leaving them a hair under
    # WEIGHT_FLOOR; the load bound must leave room for that
    data = forward_sample(fixture_net(8), 500, 3)
    config = TrainConfig(smoothing=Smoothing.SPARSITY, kappa=2.0, max_iters=5, variant=variant)
    model, _ = train_em(data.rows, data.schema, config)
    positive = model.dep[model.dep > 0.0]
    assert (positive < WEIGHT_FLOOR).sum() > 10
    assert positive.min() >= MIN_LOAD_WEIGHT
    p = tmp_path / "m.model"
    save_model(model, p)
    np.testing.assert_array_equal(load_model(p).dep, model.dep)


def test_model_weight_below_the_load_bound_rejected(tmp_path):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, lambda pl: pl["weights"]["A"]["T"]["B"].update(T=1e-20, F=1.0 - 1e-20))
    with pytest.raises(ModelFormatError, match="A=T -> B=T: dep weight 1e-20 is below") as info:
        load_model(p)
    assert str(p) in str(info.value)


def test_model_stop_weight_below_the_load_bound_rejected(tmp_path):
    p = saved_uniform(tmp_path, Variant.STOP_AUGMENTED)
    rewrite_payload(p, lambda pl: pl["stop_weights"]["B"].update(F=1e-20))
    with pytest.raises(ModelFormatError, match="B=F: stop weight 1e-20 is below"):
        load_model(p)


def test_model_with_a_negative_and_a_tiny_weight_names_only_the_negative(tmp_path):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, lambda pl: (
        pl["root_weights"]["A"].update(T=-0.25, F=0.75),
        pl["weights"]["A"]["T"]["B"].update(T=1e-20, F=1.0 - 1e-20),
    ))
    with pytest.raises(ModelFormatError) as info:
        load_model(p)
    assert str(info.value) == f"{p}: model weights are invalid: root: dep weight outside [0, 1]"


def test_model_missing_entry_rejected(tmp_path):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, lambda pl: pl["weights"]["B"]["F"]["A"].pop("T"))
    with pytest.raises(ModelFormatError, match="no weight for B=F -> A=T"):
        load_model(p)


def test_model_missing_stop_weight_rejected(tmp_path):
    p = saved_uniform(tmp_path, Variant.STOP_AUGMENTED)
    rewrite_payload(p, lambda pl: pl["stop_weights"]["A"].pop("F"))
    with pytest.raises(ModelFormatError, match="no stop weight for A=F"):
        load_model(p)


@pytest.mark.parametrize(
    "edit",
    [
        lambda pl: pl["weights"]["A"]["T"]["B"].update(F="0.5"),
        lambda pl: pl["weights"]["A"]["T"]["B"].update(F=True),
        lambda pl: pl["root_weights"].update(A=[0.5, 0.5]),
        lambda pl: pl["variables"][0].update(domain="TF"),
        lambda pl: pl["variables"][1].update(name=2),
        lambda pl: pl["weights"].update(C={}),
        lambda pl: pl.update(variant="forest"),
        lambda pl: pl.pop("weights"),
    ],
    ids=["string-weight", "bool-weight", "list-row", "string-domain", "int-name",
         "unknown-variable", "unknown-variant", "no-weights"],
)
def test_model_malformed_payload_rejected_with_path(tmp_path, edit):
    p = saved_uniform(tmp_path)
    rewrite_payload(p, edit)
    with pytest.raises(ModelFormatError, match="malformed payload") as info:
        load_model(p)
    assert str(p) in str(info.value)


def test_model_file_that_is_not_a_json_object_rejected(tmp_path):
    p = tmp_path / "m.model"
    write(p, "[1, 2]")
    with pytest.raises(ModelFormatError, match="format_version") as info:
        load_model(p)
    assert str(p) in str(info.value)


def _load_header_only_dataset(tmp_path):
    # what train reads when no --schema is given
    write(tmp_path / "d.csv", "A,B\n")
    load_dataset(tmp_path / "d.csv")


def _load_model_file_without(key):
    def case(tmp_path):
        p = saved_uniform(tmp_path)
        doc = json.loads(p.read_text())
        del doc[key]
        write(p, json.dumps(doc))
        load_model(p)

    return case


TWO_BINARY = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
HALVES = np.full((1, 2), 0.5)


@pytest.mark.parametrize(
    "case, error, message",
    [
        (_load_header_only_dataset, DatasetFormatError, "has a header but no rows"),
        (_load_model_file_without("payload"), ModelFormatError, "missing payload or checksum"),
        (_load_model_file_without("checksum"), ModelFormatError, "missing payload or checksum"),
        (lambda _: GroundTruthNet(TWO_BINARY, ((),), (HALVES, HALVES)), ValueError,
         "parents and cpts must cover every variable"),
        (lambda _: GroundTruthNet(TWO_BINARY, ((), (0,)), (HALVES, HALVES)), ValueError,
         r"cpt for variable 1 must be \(2, 2\), got \(1, 2\)"),
        (lambda _: Dataset(TWO_BINARY, np.array([0, 1])), ValueError,
         r"rows must be \(B, 2\), got \(2,\)"),
    ],
    ids=["header-only-csv", "no-payload", "no-checksum", "too-few-parents", "cpt-shape",
         "one-dimensional-rows"],
)
def test_rejection_paths(tmp_path, case, error, message):
    with pytest.raises(error, match=message):
        case(tmp_path)
