import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldfm.matrix_tree import (
    NumericConsistencyError,
    SingularLaplacianError,
    _posteriors_from_inverse,
    _root_minors,
    assignment_matrices,
    log_partition_many,
    partition_and_posteriors_many,
    unnormalized_log_joint_many,
)
from ldfm.model import LdfmModel, Variant, VariableSchema, make_uniform_model
from ldfm.oracle import brute_edge_posteriors, brute_log_partition

from conftest import WORKED_Z, count_method_calls, random_model, random_schema, worked_graph


def random_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.01, 1.0, size=(n + 1, n))


def test_laplacian_worked_example():
    q0 = _root_minors(worked_graph()[None])[1][0]
    np.testing.assert_allclose(q0, [[0.7, -0.4], [-0.5, 0.7]], atol=1e-15)


def test_laplacian_single_node():
    w = np.zeros((2, 1))
    w[0, 0] = 0.37
    q0 = _root_minors(w[None])[1][0]
    np.testing.assert_allclose(q0, [[0.37]])


def test_laplacian_all_zero_weights_gives_zero_minor():
    q0 = _root_minors(np.zeros((1, 4, 3)))[1]
    np.testing.assert_array_equal(q0, 0.0)


def test_laplacian_rejects_negative_weights():
    w = np.zeros((3, 2))
    w[0, 0] = -0.1
    w[0, 1] = 0.2
    with pytest.raises(ValueError):
        log_partition_many(w[None])


def test_log_partition_worked_example():
    lz = log_partition_many(worked_graph()[None])[0]
    assert lz == pytest.approx(math.log(WORKED_Z), rel=1e-12)


def test_log_partition_single_node():
    w = np.zeros((2, 1))
    w[0, 0] = 0.7
    assert log_partition_many(w[None])[0] == pytest.approx(math.log(0.7))


def test_log_partition_all_zero_is_singular():
    with pytest.raises(SingularLaplacianError):
        log_partition_many(np.zeros((1, 3, 2)))


def test_log_partition_unreachable_root_is_singular():
    w = np.zeros((3, 2))
    w[1, 1] = 0.4
    w[2, 0] = 0.5
    with pytest.raises(SingularLaplacianError):
        log_partition_many(w[None])


def test_log_partition_many_neginf_mode():
    good = worked_graph()
    bad = np.zeros((3, 2))
    out = log_partition_many(np.stack([good, bad]), on_singular="neginf")
    assert out[0] == pytest.approx(math.log(WORKED_Z))
    assert out[1] == -np.inf


def test_edge_posteriors_worked_example():
    _, post = partition_and_posteriors_many(worked_graph()[None])
    post = post[0]
    assert post[0, 0] == pytest.approx(0.14 / WORKED_Z, rel=1e-12)
    assert post[0, 1] == pytest.approx(0.21 / WORKED_Z, rel=1e-12)
    assert post[1, 1] == pytest.approx(0.08 / WORKED_Z, rel=1e-12)
    assert post[2, 0] == pytest.approx(0.15 / WORKED_Z, rel=1e-12)


def test_posterior_check_rejects_nan():
    inv = np.linalg.inv(_root_minors(worked_graph()[None])[1])
    inv[0, 1, 0] = np.nan
    with pytest.raises(NumericConsistencyError):
        _posteriors_from_inverse(worked_graph()[None], inv)


def test_edge_posteriors_single_node():
    w = np.zeros((2, 1))
    w[0, 0] = 0.123
    assert partition_and_posteriors_many(w[None])[1][0, 0, 0] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 5))
def test_matches_enumeration_on_random_graphs(seed, n):
    graph = random_graph(np.random.default_rng(seed), n)
    fast, post = partition_and_posteriors_many(graph[None])
    brute = brute_log_partition(graph)
    assert fast[0] == pytest.approx(brute, rel=1e-9)
    np.testing.assert_allclose(post[0], brute_edge_posteriors(graph), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 5))
def test_posterior_columns_are_stochastic(seed, n):
    graph = random_graph(np.random.default_rng(seed), n)
    post = partition_and_posteriors_many(graph[None])[1][0]
    np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-9)
    assert post.min() >= 0.0 and post.max() <= 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 5), scale=st.floats(0.01, 50))
def test_scaling_all_weights_shifts_log_partition(seed, n, scale):
    graph = random_graph(np.random.default_rng(seed), n)
    scaled = graph * scale
    base = log_partition_many(graph[None])[0]
    assert log_partition_many(scaled[None])[0] == pytest.approx(
        base + n * math.log(scale), rel=1e-9, abs=1e-9
    )
    np.testing.assert_allclose(
        partition_and_posteriors_many(scaled[None])[1][0],
        partition_and_posteriors_many(graph[None])[1][0],
        atol=1e-9,
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 4))
def test_increasing_a_weight_increases_its_posterior(seed, n):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n)
    i = int(rng.integers(0, n + 1))
    j = int(rng.integers(1, n + 1))
    while j == i:
        j = int(rng.integers(1, n + 1))
    before = partition_and_posteriors_many(graph[None])[1][0, i, j - 1]
    bumped = graph.copy()
    bumped[i, j - 1] *= 1.5
    after = partition_and_posteriors_many(bumped[None])[1][0, i, j - 1]
    assert after > before


def test_assignment_graph_pulls_model_weights(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    rows = two_binary_schema.assignment_rows(np.array([[0, 1]]))
    w = assignment_matrices(model, rows)[0]
    assert w.shape == (3, 2)
    assert w[0, 0] == pytest.approx(0.25)
    assert w[0, 1] == pytest.approx(0.25)
    assert w[1, 1] == pytest.approx(0.5)
    assert w[2, 0] == pytest.approx(0.5)
    assert w[1, 0] + w[2, 1] == 0.0


def test_assignment_graph_rejects_incomplete_assignment(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    with pytest.raises(ValueError, match="incomplete"):
        unnormalized_log_joint_many(model, np.array([0, -1]))


def test_log_joint_matches_partition_for_plain(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    x = np.array([1, 0])
    lj = unnormalized_log_joint_many(model, x)[0]
    rows = two_binary_schema.assignment_rows(x[None])
    lp = log_partition_many(assignment_matrices(model, rows))[0]
    assert lj == pytest.approx(lp, rel=1e-12)


def test_plain_log_joint_is_exactly_the_log_partition():
    # plain adds a zero stop term; singular rows stay -inf under "neginf"
    rng = np.random.default_rng(11)
    schema = random_schema(rng, 5)
    base = random_model(rng, schema)
    dep = base.dep.copy()
    dep[:, 0] = 0.0  # key <X1, v0> has no incoming edge: those rows score -inf
    model = LdfmModel(schema, Variant.PLAIN, dep)
    xs = rng.integers(0, schema.cards, size=(30, schema.n))
    xs[:10, 0] = 0
    xs[10:, 0] = 1
    joint = unnormalized_log_joint_many(model, xs, on_singular="neginf")
    logz = log_partition_many(
        assignment_matrices(model, schema.assignment_rows(xs)), on_singular="neginf"
    )
    assert np.isneginf(joint[:10]).all() and np.isfinite(joint[10:]).all()
    np.testing.assert_array_equal(joint, logz)
    np.testing.assert_array_equal(unnormalized_log_joint_many(model, xs[10:]), logz[10:])


@pytest.mark.parametrize("variant", list(Variant))
def test_log_joint_checks_and_builds_rows_once(monkeypatch, variant):
    schema = random_schema(np.random.default_rng(3), 4)
    model = make_uniform_model(schema, variant)
    rows = count_method_calls(monkeypatch, VariableSchema, "assignment_rows")
    checks = count_method_calls(monkeypatch, VariableSchema, "check_assignments")
    unnormalized_log_joint_many(model, np.zeros((5, 4), dtype=np.int64))
    assert (len(rows), len(checks)) == (1, 1)


def test_log_joint_stop_variant_adds_stop_terms(two_binary_schema):
    model = make_uniform_model(two_binary_schema, Variant.STOP_AUGMENTED)
    x = np.array([1, 0])
    lj = unnormalized_log_joint_many(model, x)[0]
    rows = two_binary_schema.assignment_rows(x)
    lp = log_partition_many(assignment_matrices(model, rows[None]))[0]
    assert lj == pytest.approx(lp + np.log(model.stop[rows]).sum(), rel=1e-12)


def test_large_graph_underflow_resistance():
    # at n=76 with weights ~1e-7 the linear-domain partition value underflows,
    # but the log-domain result must still satisfy scale covariance exactly
    rng = np.random.default_rng(76)
    n = 76
    base = random_graph(rng, n)
    scale = 1e-7
    tiny = base * scale
    lz_base, post_base = partition_and_posteriors_many(base[None])
    lz_tiny, post_tiny = partition_and_posteriors_many(tiny[None])
    assert math.exp(lz_tiny[0]) == 0.0  # not representable in the linear domain
    assert lz_tiny[0] == pytest.approx(lz_base[0] + n * math.log(scale), rel=1e-12)
    np.testing.assert_allclose(post_tiny[0], post_base[0], atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 6), batch=st.integers(2, 5))
def test_stacked_items_match_single_calls(seed, n, batch):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_graph(rng, n) for _ in range(batch)])
    logz, post = partition_and_posteriors_many(stack)
    np.testing.assert_allclose(log_partition_many(stack), logz, rtol=1e-13, atol=0)
    for b in range(batch):
        one_logz, one_post = partition_and_posteriors_many(stack[b][None])
        assert logz[b] == pytest.approx(one_logz[0], rel=1e-13, abs=0)
        np.testing.assert_allclose(post[b], one_post[0], rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 6))
def test_relabelling_nodes_permutes_posteriors(seed, n):
    rng = np.random.default_rng(seed)
    w = random_graph(rng, n)
    # node k of the relabelled graph is node perm[k] of the original; root stays 0
    perm = np.concatenate([[0], 1 + rng.permutation(n)])
    relabelled = w[np.ix_(perm, perm[1:] - 1)]
    logz, post = partition_and_posteriors_many(np.stack([w, relabelled]))
    assert logz[1] == pytest.approx(logz[0], rel=1e-12)
    np.testing.assert_allclose(post[1], post[0][np.ix_(perm, perm[1:] - 1)], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 6))
def test_self_loops_are_ignored(seed, n):
    rng = np.random.default_rng(seed)
    w = random_graph(rng, n)
    loops = (np.arange(1, n + 1), np.arange(n))
    w[loops] = 0.0
    logz, post = partition_and_posteriors_many(w[None])
    for fill in (rng.uniform(0.01, 5.0, size=n), np.inf, np.nan, -1.0):
        noisy = w.copy()
        noisy[loops] = fill
        noisy_logz, noisy_post = partition_and_posteriors_many(noisy[None])
        np.testing.assert_array_equal(noisy_logz, logz)
        np.testing.assert_array_equal(log_partition_many(noisy[None]), logz)
        np.testing.assert_array_equal(noisy_post, post)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(1, 12),
    batch=st.integers(1, 40),
    variant=st.sampled_from(list(Variant)),
    zero_frac=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_log_joint_rows_do_not_depend_on_batch_mates(seed, n, batch, variant, zero_frac):
    # a memo that scores a row once and reuses it is only exact if this holds
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, n)
    base = random_model(rng, schema, variant)
    dep = np.where(rng.random(base.dep.shape) < zero_frac, 0.0, base.dep)
    dep[:, 0] = 0.0  # key <X1, v0> has no incoming edge: those rows score -inf
    model = LdfmModel(schema, variant, dep, base.stop)
    pool = rng.integers(0, schema.cards, size=(max(1, batch // 2), n))
    pool[0, 0] = 0
    xs = pool[rng.permutation(np.arange(batch) % len(pool))]  # shuffled, with repeats

    batched = unnormalized_log_joint_many(model, xs, on_singular="neginf")
    assert np.isneginf(batched[xs[:, 0] == 0]).all()
    for x, got in zip(xs, batched):
        alone = unnormalized_log_joint_many(model, x[None], on_singular="neginf")
        np.testing.assert_array_equal(alone, [got])
    perm = rng.permutation(len(xs))
    np.testing.assert_array_equal(
        unnormalized_log_joint_many(model, xs[perm], on_singular="neginf"), batched[perm]
    )
