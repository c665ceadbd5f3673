import math

import numpy as np
import pytest

from ldfm import evaluation
from ldfm.dataio import Dataset, fixture_net, forward_sample
from ldfm.evaluation import (
    EvalReport,
    REPORT_FIELDS,
    evaluate,
    evaluate_baseline,
    fit_independence_baseline,
    format_report,
    make_query_instances,
)
from ldfm.learning import Smoothing, TrainConfig, train_em
from ldfm.model import MISSING, VariableSchema, make_uniform_model
from ldfm.sampling import SamplerConfig, SamplerKind, estimate_cll, estimate_cmll, run_chain


def toy_dataset(n_vars=10, rows=20, seed=0, card=2):
    rng = np.random.default_rng(seed)
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(card))) for i in range(n_vars))
    )
    return Dataset(schema, rng.integers(0, card, size=(rows, n_vars)))


def test_split_sizes_ten_variables():
    ds = toy_dataset(10)
    instances = make_query_instances(ds, 0.4, 0.3, 5, seed=1)
    for inst in instances:
        assert inst.query_vars.size == 4
        assert np.count_nonzero(inst.evidence != MISSING) == 3
        assert np.count_nonzero((inst.query == MISSING) & (inst.evidence == MISSING)) == 3


def test_split_sizes_eight_variables():
    ds = toy_dataset(8)
    instances = make_query_instances(ds, 0.3, 0.2, 3, seed=2)
    for inst in instances:
        assert inst.query_vars.size == 2
        assert np.count_nonzero(inst.evidence != MISSING) == 2
        assert np.count_nonzero((inst.query == MISSING) & (inst.evidence == MISSING)) == 4


def test_query_fraction_rounding_to_zero_is_an_error():
    ds = toy_dataset(4)
    with pytest.raises(ValueError, match="zero query variables"):
        make_query_instances(ds, 0.1, 0.2, 3, seed=3)


@pytest.mark.parametrize("count", [0, -1])
def test_instance_count_below_one_is_an_error(count):
    with pytest.raises(ValueError, match="at least 1"):
        make_query_instances(toy_dataset(4), 0.5, 0.2, count, seed=3)


def test_same_seed_same_instances():
    ds = toy_dataset(6)
    a = make_query_instances(ds, 0.5, 0.3, 10, seed=9)
    b = make_query_instances(ds, 0.5, 0.3, 10, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.query, y.query)
        np.testing.assert_array_equal(x.evidence, y.evidence)


def test_rows_reused_cyclically():
    ds = toy_dataset(4, rows=3)
    instances = make_query_instances(ds, 0.5, 0.25, 7, seed=4)
    assert len(instances) == 7
    for k, inst in enumerate(instances):
        row = ds.rows[k % 3]
        qv = inst.query_vars
        np.testing.assert_array_equal(inst.query[qv], row[qv])


def test_instance_values_come_from_the_row():
    ds = toy_dataset(6, rows=10, seed=5, card=3)
    for k, inst in enumerate(make_query_instances(ds, 0.4, 0.3, 10, seed=6)):
        row = ds.rows[k]
        np.testing.assert_array_equal(inst.query[inst.query_vars], row[inst.query_vars])
        ev = inst.evidence != MISSING
        np.testing.assert_array_equal(inst.evidence[ev], row[ev])


def test_evaluate_uniform_model_single_query():
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
    model = make_uniform_model(schema)
    ds = Dataset(schema, np.array([[0, 0], [1, 1], [0, 1], [1, 0]]))
    instances = make_query_instances(ds, 0.5, 0.0, 40, seed=7)
    config = SamplerConfig(sampler=SamplerKind.TREE_AUGMENTED, samples=800, seed=8)
    report = evaluate(model, instances, config, q_frac=0.5, e_frac=0.0)
    assert report.mean_cmll == pytest.approx(math.log(0.5), abs=0.02)
    assert report.instances == 40


def test_evaluate_deterministic_given_seed():
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
    model = make_uniform_model(schema)
    ds = Dataset(schema, np.array([[0, 0], [1, 1]]))
    instances = make_query_instances(ds, 0.5, 0.0, 6, seed=10)
    config = SamplerConfig(sampler=SamplerKind.GIBBS, samples=100, seed=11, burn_in=10)
    a = evaluate(model, instances, config, 0.5, 0.0)
    b = evaluate(model, instances, config, 0.5, 0.0)
    assert a.per_cll == b.per_cll
    assert a.per_cmll == b.per_cmll
    assert a.mean_max == b.mean_max


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_evaluate_matches_per_instance_chains(kind, monkeypatch):
    # evaluate batches instances; each must still see run_chain's draws
    # under seed [config.seed, idx], whatever block it lands in
    net = fixture_net(8)
    model, _ = train_em(
        forward_sample(net, 200, seed=20).rows, net.schema, TrainConfig(max_iters=2)
    )
    instances = make_query_instances(forward_sample(net, 20, seed=21), 0.4, 0.3, 7, seed=22)
    config = SamplerConfig(sampler=kind, samples=25, thin=2, chains=2, burn_in=8, seed=23)
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 5)  # two instances per block
    report = evaluate(model, instances, config, 0.4, 0.3)
    for idx, inst in enumerate(instances):
        samples = run_chain(model, inst, config, seed=[config.seed, idx])
        assert report.per_cll[idx] == estimate_cll(samples, inst, normalize=True)
        assert report.per_cmll[idx] == estimate_cmll(
            samples, inst, model.schema.cards, normalize=True
        )


def test_baseline_closed_form_matches_marginals():
    ds = toy_dataset(5, rows=50, seed=12)
    baseline = fit_independence_baseline(ds)
    instances = make_query_instances(ds, 0.4, 0.2, 25, seed=13)
    report = evaluate_baseline(baseline, instances, 0.4, 0.2)
    assert report.mean_cll == report.mean_cmll == report.mean_max
    # recompute one instance by hand
    inst = instances[0]
    expected = sum(
        baseline.log_marginals[v][inst.query[v]] for v in inst.query_vars
    ) / inst.query_vars.size
    assert report.per_cll[0] == pytest.approx(expected, rel=1e-12)


def test_trained_model_beats_baseline_on_dependent_data():
    net = fixture_net(8)
    train = forward_sample(net, 1500, seed=14)
    test = forward_sample(net, 300, seed=15)
    model, _ = train_em(
        train.rows,
        train.schema,
        TrainConfig(smoothing=Smoothing.ADDITIVE, eps=0.1, max_iters=10),
    )
    instances = make_query_instances(test, 0.4, 0.3, 40, seed=16)
    config = SamplerConfig(sampler=SamplerKind.TREE_AUGMENTED, samples=500, seed=17)
    model_report = evaluate(model, instances, config, 0.4, 0.3)
    baseline_report = evaluate_baseline(
        fit_independence_baseline(train), instances, 0.4, 0.3
    )
    assert model_report.mean_max > baseline_report.mean_max


def test_format_report_exact_fields():
    report = EvalReport(
        q_frac=0.4,
        e_frac=0.3,
        per_cll=(-0.5, -0.5, -0.5),
        per_cmll=(-0.4, -0.4, -0.4),
        seconds_infer=2.0,
    )
    lines = format_report(report).strip().split("\n")
    assert [line.split(":")[0] for line in lines] == list(REPORT_FIELDS)
    assert lines[0] == "instances: 3"
    assert lines[3] == "mean_cll: -0.500000"


def test_report_derives_its_summaries_from_its_per_instance_values():
    report = EvalReport(0.4, 0.3, [-1.0, -3.0, -0.5], [-2.0, -1.0, -0.25], seconds_infer=1.5)
    assert report.per_cll == (-1.0, -3.0, -0.5)
    assert report.per_cmll == (-2.0, -1.0, -0.25)
    assert report.instances == 3
    assert report.per_max == (-1.0, -1.0, -0.25)
    assert report.mean_cll == -1.5
    assert report.mean_cmll == float(np.mean([-2.0, -1.0, -0.25]))
    assert report.mean_max == -0.75
    assert report.seconds_train == 0.0
    assert format_report(report).splitlines()[-2:] == [
        "seconds_train: 0.000",
        "seconds_infer: 1.500",
    ]


@pytest.mark.parametrize(
    "per_cll, per_cmll, message",
    [
        ((), (), "a report needs at least one instance, got 0"),
        ((-1.0, -2.0), (-1.0,), "got 2 CLL and 1 CMLL values"),
    ],
    ids=["empty", "unequal"],
)
def test_report_rejects_no_instances_or_unequal_value_lists(per_cll, per_cmll, message):
    with pytest.raises(ValueError, match=message):
        EvalReport(0.4, 0.3, per_cll, per_cmll)


def test_evaluate_and_baseline_reject_no_instances():
    # both used to return NaN means after numpy's "Mean of empty slice" warning
    ds = toy_dataset(4, rows=10, seed=3)
    config = SamplerConfig(samples=5, burn_in=1)
    with pytest.raises(ValueError, match="at least one instance"):
        evaluate(make_uniform_model(ds.schema), [], config, 0.4, 0.3)
    with pytest.raises(ValueError, match="at least one instance"):
        evaluate_baseline(fit_independence_baseline(ds), [], 0.4, 0.3)


@pytest.mark.parametrize(
    "dataset, q_frac, e_frac, message",
    [
        (toy_dataset(4), 0.6, 0.5, r"q_frac \+ e_frac <= 1"),
        (toy_dataset(4), 0.5, -0.1, "nonnegative"),
        (toy_dataset(4, rows=0), 0.5, 0.2, "dataset has no rows"),
    ],
    ids=["fractions-over-one", "negative-fraction", "empty-dataset"],
)
def test_make_query_instances_rejects(dataset, q_frac, e_frac, message):
    with pytest.raises(ValueError, match=message):
        make_query_instances(dataset, q_frac, e_frac, 3, seed=1)
