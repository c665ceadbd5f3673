import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldfm import learning
from ldfm.learning import (
    CHUNK,
    Smoothing,
    SufficientStats,
    TrainConfig,
    data_log_likelihood,
    _distinct_rows,
    e_step,
    m_step,
    train_em,
)
from ldfm.matrix_tree import SingularLaplacianError, assignment_matrices
from ldfm.model import (
    WEIGHT_FLOOR,
    NodeKey,
    ROOT,
    LdfmModel,
    Variant,
    VariableSchema,
    make_uniform_model,
    validate_model,
)
from ldfm.oracle import brute_edge_posteriors

from conftest import (
    WORKED_Z,
    count_method_calls,
    model_from_weights,
    random_model,
    random_schema,
)


def none_config(variant=Variant.PLAIN, **kw) -> TrainConfig:
    return TrainConfig(smoothing=Smoothing.NONE, variant=variant, **kw)


def test_e_step_single_sample_worked_example(worked_model, two_binary_schema):
    s = two_binary_schema
    stats = e_step(worked_model, np.array([[0, 0]]))
    assert stats.sample_count == 1
    assert stats.loglik == pytest.approx(math.log(WORKED_Z), rel=1e-12)

    def edge(src, tgt):
        return stats.edge[s.row_of(src), s.col_of(tgt.var, tgt.val)]

    x1t, x2t = NodeKey(0, 0), NodeKey(1, 0)
    assert edge(ROOT, x1t) == pytest.approx(0.14 / WORKED_Z, rel=1e-9)
    assert edge(ROOT, x2t) == pytest.approx(0.21 / WORKED_Z, rel=1e-9)
    assert edge(x1t, x2t) == pytest.approx(0.08 / WORKED_Z, rel=1e-9)
    assert edge(x2t, x1t) == pytest.approx(0.15 / WORKED_Z, rel=1e-9)
    assert stats.occur[0] == 1
    assert stats.occur[s.row_of(x1t)] == 1
    assert stats.occur[s.row_of(NodeKey(0, 1))] == 0


def test_e_step_checks_once_and_builds_rows_once_per_chunk(monkeypatch):
    schema = VariableSchema(tuple((f"X{i}", ("a", "b", "c")) for i in range(3)))
    model = random_model(np.random.default_rng(4), schema, Variant.STOP_AUGMENTED)
    data = np.array(list(np.ndindex(3, 3, 3))[:10] * 2)
    monkeypatch.setattr(learning, "CHUNK", 4)  # 10 distinct rows: chunks of 4, 4, 2
    rows = count_method_calls(monkeypatch, VariableSchema, "assignment_rows")
    checks = count_method_calls(monkeypatch, VariableSchema, "check_assignments")
    stats = e_step(model, data)
    assert (len(rows), len(checks)) == (3, 1)
    assert stats.sample_count == 20


def test_e_step_duplicated_dataset_doubles_stats(worked_model):
    one = e_step(worked_model, np.array([[0, 0]]))
    two = e_step(worked_model, np.array([[0, 0], [0, 0]]))
    np.testing.assert_allclose(two.edge, 2 * one.edge, atol=1e-12)
    np.testing.assert_allclose(two.occur, 2 * one.occur, atol=1e-12)
    assert two.loglik == pytest.approx(2 * one.loglik, rel=1e-12)


def test_e_step_addition_is_concatenation(worked_model):
    a = e_step(worked_model, np.array([[0, 0]]))
    b = e_step(worked_model, np.array([[1, 1], [0, 1]]))
    both = e_step(worked_model, np.array([[0, 0], [1, 1], [0, 1]]))
    merged = a + b
    np.testing.assert_allclose(merged.edge, both.edge, atol=1e-12)
    np.testing.assert_allclose(merged.occur, both.occur, atol=1e-12)
    assert merged.loglik == pytest.approx(both.loglik, rel=1e-12)
    assert merged.sample_count == both.sample_count == 3


def test_e_step_single_variable_model():
    schema = VariableSchema((("A", ("T", "F")),))
    model = make_uniform_model(schema)
    stats = e_step(model, np.array([[1]]))
    assert stats.edge[0, schema.col_of(0, 1)] == pytest.approx(1.0)
    # the full E/M round still works when pair-source rows have no targets
    new = m_step(stats, none_config(), schema)
    assert new.dep[0, schema.col_of(0, 1)] == pytest.approx(1.0, abs=1e-9)
    assert validate_model(new, 1e-9) == []


def test_e_step_reports_singular_sample_index(two_binary_schema):
    s = two_binary_schema
    x1t, x2t = NodeKey(0, 0), NodeKey(1, 0)
    # no root weight into the (F, F) assignment: its graph has no spanning tree
    model = model_from_weights(
        s,
        {(ROOT, x1t): 0.5, (ROOT, x2t): 0.5, (x1t, x2t): 1.0, (x2t, x1t): 1.0},
    )
    with pytest.raises(SingularLaplacianError, match="sample 1"):
        e_step(model, np.array([[0, 0], [1, 1]]))


def test_e_step_singular_index_counts_from_the_whole_dataset(two_binary_schema):
    s = two_binary_schema
    x1t, x2t = NodeKey(0, 0), NodeKey(1, 0)
    model = model_from_weights(
        s,
        {(ROOT, x1t): 0.5, (ROOT, x2t): 0.5, (x1t, x2t): 1.0, (x2t, x1t): 1.0},
    )
    data = np.zeros((300, 2), dtype=np.int64)
    data[270] = [1, 1]  # in the second chunk of CHUNK = 256 rows
    with pytest.raises(SingularLaplacianError, match="sample 270 ") as info:
        e_step(model, data)
    assert info.value.index == 270


def test_e_step_singular_index_after_dedup_names_the_first_occurrence(two_binary_schema):
    s = two_binary_schema
    x1t, x2t = NodeKey(0, 0), NodeKey(1, 0)
    # only (T, T) has a spanning tree: every assignment with an F is singular
    model = model_from_weights(
        s,
        {(ROOT, x1t): 0.5, (ROOT, x2t): 0.5, (x1t, x2t): 1.0, (x2t, x1t): 1.0},
    )
    data = np.zeros((400, 2), dtype=np.int64)
    data[40] = data[300] = [1, 1]
    with pytest.raises(SingularLaplacianError, match="sample 40 ") as info:
        e_step(model, data)
    assert info.value.index == 40

    data = np.zeros((400, 2), dtype=np.int64)
    data[300] = [0, 1]  # sorts before (F, F), but appears later
    data[270] = data[350] = [1, 1]
    with pytest.raises(SingularLaplacianError, match="sample 270 ") as info:
        e_step(model, data)
    assert info.value.index == 270
    with pytest.raises(SingularLaplacianError, match="sample 270 ") as info:
        data_log_likelihood(model, data)
    assert info.value.index == 270


def test_singular_index_past_the_first_chunk_of_distinct_rows():
    schema = VariableSchema(tuple((f"X{i}", ("T", "F")) for i in range(10)))
    dep = make_uniform_model(schema).dep.copy()
    dep[:, schema.col_of(0, 1)] = 0.0  # no edge into X0=F: such rows are singular
    model = LdfmModel(schema, Variant.PLAIN, dep)
    bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
    fine = np.hstack([np.zeros((512, 1), dtype=np.int64), bits])
    bad = np.ones((1, 10), dtype=np.int64)
    data = np.vstack([fine[:300], fine[:100], bad, fine[300:], bad])
    assert len(_distinct_rows(data)[0]) > CHUNK + 1
    for workers in (None, 4):
        with pytest.raises(SingularLaplacianError, match="^sample 400 ") as info:
            e_step(model, data, workers=workers)
        assert info.value.index == 400
    with pytest.raises(SingularLaplacianError, match="^sample 400 ") as info:
        data_log_likelihood(model, data)
    assert info.value.index == 400


def test_distinct_rows_keep_first_appearance_order():
    xs = np.array([[2, 0], [0, 1], [2, 0], [0, 0], [0, 1], [2, 0]])
    rows, counts, first = _distinct_rows(xs)
    np.testing.assert_array_equal(rows, [[2, 0], [0, 1], [0, 0]])
    np.testing.assert_array_equal(counts, [3, 2, 1])
    np.testing.assert_array_equal(first, [0, 1, 3])


def _repeated_rows(rng, schema, distinct, size):
    """``size`` rows that hold exactly ``distinct`` different assignments."""
    grid = np.indices(schema.cards).reshape(schema.n, -1).T
    pool = grid[rng.choice(len(grid), size=distinct, replace=False)]
    extra = pool[rng.integers(0, distinct, size=size - distinct)]
    return rng.permutation(np.vstack([pool, extra]))


@pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.STOP_AUGMENTED])
def test_weighted_e_step_matches_per_row_reference(variant):
    rng = np.random.default_rng(4)
    schema = random_schema(rng, 6, max_card=4)
    model = random_model(rng, schema, variant)
    data = _repeated_rows(rng, schema, 2 * CHUNK + 88, 1500)
    assert len(np.unique(data, axis=0)) > 2 * CHUNK

    stats = e_step(model, data)
    ref = SufficientStats.zeros(schema)
    for x in data:
        ref = ref + e_step(model, x[None, :])
    np.testing.assert_allclose(stats.edge, ref.edge, rtol=1e-12, atol=0)
    assert stats.loglik == pytest.approx(ref.loglik, rel=1e-12)
    np.testing.assert_array_equal(stats.occur, ref.occur)
    assert stats.sample_count == ref.sample_count == 1500

    for workers in (2, 4):
        threaded = e_step(model, data, workers=workers)
        np.testing.assert_array_equal(threaded.edge, stats.edge)
        np.testing.assert_array_equal(threaded.occur, stats.occur)
        assert threaded.loglik == stats.loglik
        assert threaded.sample_count == stats.sample_count


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    stop=st.booleans(),
    rows=st.integers(1, 40),
    copies=st.integers(1, 4),
)
def test_e_step_ignores_row_order_and_duplication(seed, stop, rows, copies):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, int(rng.integers(1, 6)), max_card=4)
    variant = Variant.STOP_AUGMENTED if stop else Variant.PLAIN
    model = random_model(rng, schema, variant)
    data = rng.integers(0, schema.cards, size=(rows, schema.n))
    base = e_step(model, data)
    shuffled = e_step(model, rng.permutation(np.tile(data, (copies, 1))))
    np.testing.assert_allclose(shuffled.edge, copies * base.edge, rtol=1e-12, atol=0)
    assert shuffled.loglik == pytest.approx(copies * base.loglik, rel=1e-12)
    np.testing.assert_array_equal(shuffled.occur, copies * base.occur)
    assert shuffled.sample_count == copies * base.sample_count == copies * rows


def test_e_step_workers_do_not_change_results(worked_model):
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, size=(1000, 2))
    serial = e_step(worked_model, data, workers=1)
    threaded = e_step(worked_model, data, workers=4)
    np.testing.assert_allclose(serial.edge, threaded.edge, atol=1e-9)
    assert serial.loglik == pytest.approx(threaded.loglik, abs=1e-9)


def test_m_step_single_sample_root_ratio(worked_model, two_binary_schema):
    stats = e_step(worked_model, np.array([[0, 0]]))
    new = m_step(stats, none_config(), two_binary_schema)
    assert new.dep[0, two_binary_schema.col_of(0, 0)] == pytest.approx(0.4, abs=1e-9)
    assert new.dep[0, two_binary_schema.col_of(1, 0)] == pytest.approx(0.6, abs=1e-9)
    assert validate_model(new, 1e-9) == []


def test_m_step_degenerate_count_concentrates(two_binary_schema):
    s = two_binary_schema
    stats = SufficientStats.zeros(s)
    stats.sample_count = 1
    stats.occur[0] = 1
    stats.edge[0, s.col_of(0, 0)] = 1.0
    new = m_step(stats, none_config(), s)
    assert new.dep[0, s.col_of(0, 0)] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("variant", list(Variant))
def test_m_step_observed_source_without_outgoing_mass_gets_uniform_row(two_binary_schema, variant):
    s = two_binary_schema
    stats = SufficientStats.zeros(s)
    stats.sample_count = 1
    stats.occur[:] = 1  # every key observed, but only the root sends mass
    stats.edge[0, s.col_of(0, 0)] = 1.0
    new = m_step(stats, none_config(variant), s)
    uniform = make_uniform_model(s, variant)
    if variant is Variant.PLAIN:
        np.testing.assert_array_equal(new.dep[1:], uniform.dep[1:])
    else:  # the stop count is the whole mass: each key stops almost surely
        np.testing.assert_allclose(new.stop[1:], 1.0, rtol=1e-9)
    assert np.all(np.isfinite(new.dep))


def test_m_step_large_additive_smoothing_approaches_uniform(worked_model, two_binary_schema):
    stats = e_step(worked_model, np.array([[0, 0]]))
    cfg = TrainConfig(smoothing=Smoothing.ADDITIVE, eps=1e7)
    new = m_step(stats, cfg, two_binary_schema)
    np.testing.assert_allclose(new.dep[0], 0.25, atol=1e-6)


def test_m_step_unseen_sources_get_uniform_rows(worked_model, two_binary_schema):
    s = two_binary_schema
    stats = e_step(worked_model, np.array([[0, 0]]))
    new = m_step(stats, none_config(), s)
    unseen = s.row_of(NodeKey(0, 1))
    np.testing.assert_allclose(new.dep[unseen][new.dep[unseen] > 0], 0.5)


def test_m_step_matches_brute_posterior_renormalization():
    rng = np.random.default_rng(77)
    for trial in range(5):
        schema = random_schema(rng, int(rng.integers(2, 5)))
        model = random_model(rng, schema)
        x = np.array([rng.integers(0, c) for c in schema.cards])
        stats = e_step(model, x[None, :])
        new = m_step(stats, none_config(), schema)

        rows = schema.assignment_rows(x)
        post = brute_edge_posteriors(assignment_matrices(model, rows[None])[0])
        for i in range(schema.n + 1):
            out_mass = post[i].sum()
            if out_mass <= 0:
                continue
            for j in range(1, schema.n + 1):
                if i == j:
                    continue
                expected = post[i, j - 1] / out_mass
                col = schema.col_of(j - 1, x[j - 1])
                assert new.dep[rows[i], col] == pytest.approx(expected, abs=1e-9)


def test_m_step_stop_variant_expected_stop_counts(two_binary_schema):
    s = two_binary_schema
    model = make_uniform_model(s, Variant.STOP_AUGMENTED)
    x = np.array([0, 0])
    stats = e_step(model, x[None, :])
    new = m_step(stats, none_config(variant=Variant.STOP_AUGMENTED), s)
    # each occurring key stops once per sample: stop = 1 / (1 + outgoing mass)
    rows = s.assignment_rows(x)
    post = brute_edge_posteriors(assignment_matrices(model, rows[None])[0])
    for i in range(3):
        out_mass = post[i].sum()
        assert new.stop[rows[i]] == pytest.approx(1.0 / (1.0 + out_mass), abs=1e-9)
    assert validate_model(new, 1e-9) == []


def _two_branch_m_step(stats, config, schema):
    """Reference M-step written once per variant, as before the single ratio."""
    mask = schema.source_mask
    counts = schema.target_counts
    variant = config.variant

    edge = np.where(mask, stats.edge, 0.0)
    occur = stats.occur.copy()
    if config.smoothing is Smoothing.ADDITIVE and config.eps > 0:
        edge = edge + np.where(mask, config.eps, 0.0)
        occur = occur + config.eps
    elif config.smoothing is Smoothing.SPARSITY and config.kappa > 0:
        edge = np.where(mask, np.maximum(edge - config.kappa, WEIGHT_FLOOR), 0.0)
        occur = np.maximum(occur - config.kappa, WEIGHT_FLOOR)

    uniform = make_uniform_model(schema, variant)
    observed = stats.occur > 0

    if variant is Variant.PLAIN:
        row_mass = edge.sum(axis=1)
        usable = observed & (row_mass > 0) & (counts > 0)
        denom = np.where(usable, row_mass, 1.0)
        dep = np.where(usable[:, None], edge / denom[:, None], uniform.dep)
        dep = np.where(mask, np.maximum(dep, WEIGHT_FLOOR), 0.0)
        totals = dep.sum(axis=1)
        return dep / np.where(totals > 0, totals, 1.0)[:, None], None

    row_mass = edge.sum(axis=1)
    usable = observed & (occur + row_mass > 0)
    denom = np.where(usable, occur + row_mass, 1.0)
    dep = np.where(usable[:, None], edge / denom[:, None], uniform.dep)
    stop = np.where(usable, occur / denom, uniform.stop)
    dep = np.where(mask, np.maximum(dep, WEIGHT_FLOOR), 0.0)
    stop = np.maximum(stop, WEIGHT_FLOOR)
    total = dep.sum(axis=1) + stop
    return dep / total[:, None], stop / total


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "smoothing, eps, kappa",
    [
        (Smoothing.NONE, 0.1, 0.5),
        (Smoothing.ADDITIVE, 0.1, 0.5),
        (Smoothing.ADDITIVE, 0.0, 0.5),
        (Smoothing.SPARSITY, 0.1, 0.5),
        (Smoothing.SPARSITY, 0.1, 0.0),
    ],
)
@pytest.mark.parametrize("n", [1, 4])
def test_m_step_matches_two_branch_reference(variant, smoothing, eps, kappa, n):
    rng = np.random.default_rng(91 + n)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b", "c")) for i in range(n)))
    model = random_model(rng, schema, variant)
    stats = e_step(model, rng.integers(0, 2, size=(40, n)))  # value "c" never occurs
    assert np.any(stats.occur == 0)
    config = TrainConfig(smoothing=smoothing, eps=eps, kappa=kappa, variant=variant)
    new = m_step(stats, config, schema)
    dep, stop = _two_branch_m_step(stats, config, schema)
    np.testing.assert_array_equal(new.dep, dep)
    if stop is None:
        assert new.stop is None
    else:
        np.testing.assert_array_equal(new.stop, stop)


def test_data_log_likelihood_matches_e_step(worked_model):
    data = np.array([[0, 0], [1, 0], [0, 1]])
    stats = e_step(worked_model, data)
    assert data_log_likelihood(worked_model, data) == pytest.approx(stats.loglik, rel=1e-12)
    doubled = np.vstack([data, data])
    assert data_log_likelihood(worked_model, doubled) == pytest.approx(
        2 * stats.loglik, rel=1e-12
    )


def test_train_em_single_iteration_trace(two_binary_schema):
    data = np.array([[0, 0], [0, 1]])
    model, trace = train_em(data, two_binary_schema, none_config(max_iters=1))
    assert len(trace) == 2
    assert trace[1].loglik >= trace[0].loglik - 1e-8
    assert validate_model(model, 1e-9) == []


def test_train_em_point_mass_dataset_concentrates(two_binary_schema):
    data = np.tile(np.array([[0, 0]]), (20, 1))
    model, trace = train_em(
        data, two_binary_schema, none_config(max_iters=40, rel_tol=0.0)
    )
    assert trace[-1].loglik >= trace[0].loglik
    # all root mass ends on the observed <variable, value> targets
    observed_mass = model.dep[0, two_binary_schema.col_of(0, 0)] + model.dep[
        0, two_binary_schema.col_of(1, 0)
    ]
    assert observed_mass == pytest.approx(1.0, abs=1e-6)


def test_train_em_monotone_loglik_without_smoothing():
    rng = np.random.default_rng(42)
    schema = random_schema(rng, 4, max_card=3)
    base = rng.integers(0, schema.cards, size=(100, 4))
    _, trace = train_em(base, schema, none_config(max_iters=25, rel_tol=0.0))
    lls = [entry.loglik for entry in trace]
    assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))


def test_train_em_additive_penalized_objective_is_monotone():
    rng = np.random.default_rng(43)
    schema = random_schema(rng, 3, max_card=3)
    data = rng.integers(0, schema.cards, size=(60, 3))
    cfg = TrainConfig(
        smoothing=Smoothing.ADDITIVE, eps=0.2, max_iters=20, rel_tol=0.0
    )
    _, trace = train_em(data, schema, cfg)
    objs = [entry.objective for entry in trace]
    assert all(b >= a - 1e-8 for a, b in zip(objs, objs[1:]))


def test_train_em_converged_model_is_a_fixed_point():
    rng = np.random.default_rng(44)
    schema = random_schema(rng, 3, max_card=2)
    data = rng.integers(0, schema.cards, size=(50, 3))
    cfg = none_config()
    model = make_uniform_model(schema)
    for _ in range(5000):
        new = m_step(e_step(model, data), cfg, schema)
        if np.abs(new.dep - model.dep).max() < 1e-10:
            model = new
            break
        model = new
    again = m_step(e_step(model, data), cfg, schema)
    assert np.abs(again.dep - model.dep).max() < 1e-9


def test_train_em_sparsity_prior_zeroes_rare_edges():
    rng = np.random.default_rng(45)
    schema = random_schema(rng, 3, max_card=2)
    data = rng.integers(0, schema.cards, size=(40, 3))
    cfg = TrainConfig(smoothing=Smoothing.SPARSITY, kappa=2.0, max_iters=10, rel_tol=0.0)
    model, _ = train_em(data, schema, cfg)
    assert validate_model(model, 1e-9) == []
    mask = schema.source_mask
    # heavy discounting drives many weights to the floor
    assert (model.dep[mask] < 1e-6).sum() > 0


def test_train_em_rejects_bad_data(two_binary_schema):
    with pytest.raises(ValueError):
        train_em(np.zeros((0, 2), dtype=int), two_binary_schema, none_config())
    with pytest.raises(ValueError):
        train_em(np.array([[0, 5]]), two_binary_schema, none_config())
    with pytest.raises(ValueError):
        train_em(np.array([[0, -1]]), two_binary_schema, none_config())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_iters=0)
    with pytest.raises(ValueError):
        TrainConfig(eps=-1.0)


@pytest.mark.parametrize("field", ["eps", "kappa", "rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite_hyperparameters(field, value):
    # NaN fails every comparison, so a sign check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**{field: value})


def test_train_em_deduplicates_once_per_evaluated_model(monkeypatch, caplog):
    calls = []

    def counting(xs):
        calls.append(len(xs))
        return _distinct_rows(xs)

    monkeypatch.setattr(learning, "_distinct_rows", counting)
    xs = np.random.default_rng(4).integers(0, 2, size=(60, 3))
    schema = VariableSchema(tuple((f"X{i}", ("a", "b")) for i in range(3)))
    config = TrainConfig(max_iters=3, rel_tol=-1.0)  # never converges: 3 steps, then a final score
    with caplog.at_level(logging.INFO, logger="ldfm.learning"):
        _, trace = train_em(xs, schema, config)
    assert len(trace) == 4
    assert len(calls) == len(trace)  # one per e_step or final data_log_likelihood
    assert "distinct rows" not in caplog.text
    calls.clear()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ldfm.learning"):
        train_em(xs, schema, config)
    assert len(calls) == len(trace) + 1
    lines = [r.getMessage() for r in caplog.records if "distinct rows" in r.getMessage()]
    assert lines == [f"e-step over {len(np.unique(xs, axis=0))} distinct rows of 60"]


def test_m_step_requires_samples(two_binary_schema):
    with pytest.raises(ValueError):
        m_step(SufficientStats.zeros(two_binary_schema), none_config(), two_binary_schema)
