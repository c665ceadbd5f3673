import math

import numpy as np
import pytest

from ldfm.learning import Smoothing, TrainConfig, train_em
from ldfm.matrix_tree import (
    SingularLaplacianError,
    assignment_matrices,
    partition_and_posteriors_many,
)
from ldfm.model import MISSING, NodeKey, ROOT, Variant, VariableSchema, make_uniform_model
from ldfm.oracle import exact_conditional
from ldfm.rng import make_rng
from ldfm.sampling import (
    QueryInstance,
    SamplerConfig,
    SamplerKind,
    estimate_cll,
    estimate_cmll,
    gibbs_sweep,
    is_rooted_tree,
    random_parent_vector,
    run_chain,
    run_chains,
    tree_augmented_step,
)

from conftest import model_from_weights, random_model


def instance_all_hidden(n: int, query_var: int = 0, query_val: int = 0) -> QueryInstance:
    query = np.full(n, MISSING, dtype=np.int64)
    query[query_var] = query_val
    return QueryInstance(query=query, evidence=np.full(n, MISSING, dtype=np.int64))


def test_query_instance_partition(two_binary_schema):
    inst = QueryInstance(
        query=np.array([0, MISSING]), evidence=np.array([MISSING, 1])
    )
    assert list(inst.query_vars) == [0]
    assert list(inst.evidence_vars) == [1]
    assert list(inst.hidden_vars) == []
    with pytest.raises(ValueError):
        QueryInstance(query=np.array([0, MISSING]), evidence=np.array([1, MISSING]))
    with pytest.raises(ValueError):
        QueryInstance(query=np.full(2, MISSING), evidence=np.array([1, MISSING]))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(thin=0)
    with pytest.raises(ValueError):
        SamplerConfig(chains=0)


def test_random_parent_vector_is_always_a_tree():
    rng = make_rng(0)
    for n in (1, 2, 5, 9):
        for _ in range(50):
            assert is_rooted_tree(random_parent_vector(n, rng))


def test_gibbs_single_variable_matches_root_weights():
    schema = VariableSchema((("A", ("a", "b", "c")),))
    rng = np.random.default_rng(1)
    model = random_model(rng, schema)
    inst = instance_all_hidden(1)
    samples = run_chain(
        model, inst, SamplerConfig(sampler=SamplerKind.GIBBS, samples=4000, seed=3)
    )
    freqs = np.bincount(samples[:, 0], minlength=3) / len(samples)
    for v in range(3):
        exact = exact_conditional(
            model, np.array([v]), np.full(1, MISSING)
        )
        assert freqs[v] == pytest.approx(exact, abs=0.02)


def test_gibbs_uniform_model_is_symmetric(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    inst = instance_all_hidden(2)
    samples = run_chain(
        model, inst, SamplerConfig(sampler=SamplerKind.GIBBS, samples=4000, seed=5)
    )
    for var in range(2):
        freq = (samples[:, var] == 0).mean()
        assert freq == pytest.approx(0.5, abs=0.02)


def test_gibbs_sweep_is_identity_when_all_pinned(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    values = np.array([[1, 0]])
    gibbs_sweep(model, values, np.array([[True, True]]), None, [make_rng(0)])
    np.testing.assert_array_equal(values, [[1, 0]])


def test_gibbs_raises_when_every_value_is_impossible(two_binary_schema):
    s = two_binary_schema
    x1t, x2t = NodeKey(0, 0), NodeKey(1, 0)
    # X1 reachable only as T; with evidence X2=F nothing can generate X2
    model = model_from_weights(
        s, {(ROOT, x1t): 0.5, (ROOT, x2t): 0.5, (x1t, x2t): 1.0, (x2t, x1t): 1.0}
    )
    values = np.array([[1, 1]])
    with pytest.raises(SingularLaplacianError):
        gibbs_sweep(model, values, np.array([[False, True]]), None, [make_rng(0)])


def test_tree_step_single_variable_keeps_root_parent():
    schema = VariableSchema((("A", ("a", "b")),))
    rng = np.random.default_rng(2)
    model = random_model(rng, schema)
    chain_rng = make_rng(4)
    values = chain_rng.integers(0, schema.cards, size=(1, 1))
    parents = random_parent_vector(1, chain_rng)[None]
    pinned = np.zeros((1, 1), dtype=bool)
    counts = np.zeros(2)
    for _ in range(3000):
        tree_augmented_step(model, values, pinned, parents, [chain_rng])
        counts[values[0, 0]] += 1
    assert parents[0, 1] == 0
    exact = exact_conditional(model, np.array([0]), np.full(1, MISSING))
    assert counts[0] / counts.sum() == pytest.approx(exact, abs=0.03)


def test_tree_step_preserves_tree_validity():
    rng = np.random.default_rng(3)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b")) for i in range(5)))
    model = random_model(rng, schema)
    chain_rng = make_rng(6)
    values = chain_rng.integers(0, schema.cards, size=(1, 5))
    parents = random_parent_vector(5, chain_rng)[None]
    pinned = np.zeros((1, 5), dtype=bool)
    for _ in range(500):
        tree_augmented_step(model, values, pinned, parents, [chain_rng])
        assert is_rooted_tree(parents[0])


def test_tree_step_pinned_values_matches_edge_posteriors():
    rng = np.random.default_rng(9)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b")) for i in range(3)))
    model = random_model(rng, schema)
    x = np.array([0, 1, 0])
    values = x[None].copy()
    pinned = np.ones((1, 3), dtype=bool)
    parents = random_parent_vector(3, make_rng(12))[None]
    chain_rng = make_rng(11)
    counts = np.zeros((4, 4))
    steps = 30000
    for _ in range(steps):
        tree_augmented_step(model, values, pinned, parents, [chain_rng])
        for j in range(1, 4):
            counts[parents[0, j], j] += 1
    freq = counts / steps
    exact = partition_and_posteriors_many(assignment_matrices(model, x))[1][0]
    assert np.abs(freq[:, 1:] - exact[:, 1:]).max() < 0.02


def test_run_chain_bookkeeping(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    inst = instance_all_hidden(2)
    config = SamplerConfig(
        sampler=SamplerKind.TREE_AUGMENTED, samples=100, chains=2, seed=7, burn_in=10
    )
    samples = run_chain(model, inst, config)
    assert samples.shape == (200, 2)


def test_run_chain_same_seed_same_samples(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    inst = instance_all_hidden(2)
    for kind in SamplerKind:
        config = SamplerConfig(sampler=kind, samples=50, chains=2, seed=42, burn_in=5)
        a = run_chain(model, inst, config)
        b = run_chain(model, inst, config)
        np.testing.assert_array_equal(a, b)


def test_run_chain_evidence_never_moves():
    rng = np.random.default_rng(17)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b", "c")) for i in range(3)))
    model = random_model(rng, schema)
    inst = QueryInstance(
        query=np.array([0, MISSING, MISSING]),
        evidence=np.array([MISSING, 2, MISSING]),
    )
    for kind in SamplerKind:
        samples = run_chain(
            model, inst, SamplerConfig(sampler=kind, samples=200, seed=3, burn_in=20)
        )
        assert np.all(samples[:, 1] == 2)


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_chain_draws_do_not_depend_on_batch_mates(kind):
    rng = np.random.default_rng(37)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b", "c")) for i in range(4)))
    model = random_model(rng, schema)
    a = np.array([MISSING, 2, MISSING, MISSING])
    b = np.array([0, MISSING, MISSING, 1])
    config = SamplerConfig(sampler=kind, samples=30, thin=2, burn_in=10)
    alone = run_chains(model, a[None], config, [make_rng([5, 0])])
    paired = run_chains(model, np.stack([a, b]), config, [make_rng([5, 0]), make_rng([5, 1])])
    assert alone.shape == (1, 30, 4)
    np.testing.assert_array_equal(alone[0], paired[0])
    assert np.all(paired[1][:, [0, 3]] == [0, 1])


def test_run_chains_rejects_schema_mismatch(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    with pytest.raises(ValueError, match="schema"):
        run_chains(model, np.full((1, 3), MISSING), SamplerConfig(), [make_rng(0)])


def test_estimate_cll_counts(two_binary_schema):
    inst = QueryInstance(query=np.array([0, MISSING]), evidence=np.full(2, MISSING))
    all_match = np.zeros((50, 2), dtype=np.int64)
    assert estimate_cll(all_match, inst) == pytest.approx(math.log(51 / 52))
    none_match = np.ones((50, 2), dtype=np.int64)
    assert estimate_cll(none_match, inst) == pytest.approx(math.log(1 / 52))


def test_cll_equals_cmll_for_single_binary_query(two_binary_schema):
    inst = QueryInstance(query=np.array([0, MISSING]), evidence=np.full(2, MISSING))
    rng = np.random.default_rng(19)
    samples = rng.integers(0, 2, size=(300, 2))
    cll = estimate_cll(samples, inst)
    cmll = estimate_cmll(samples, inst, two_binary_schema.cards)
    assert cll == pytest.approx(cmll, rel=1e-12)


def test_estimate_cmll_uniform_samples():
    schema = VariableSchema(tuple((f"X{i}", ("a", "b", "c")) for i in range(2)))
    inst = QueryInstance(
        query=np.array([1, 2]), evidence=np.full(2, MISSING)
    )
    rng = np.random.default_rng(23)
    samples = rng.integers(0, 3, size=(20000, 2))
    cmll = estimate_cmll(samples, inst, schema.cards, normalize=True)
    assert cmll == pytest.approx(-math.log(3), abs=0.02)


def test_estimator_bounds(two_binary_schema):
    inst = QueryInstance(query=np.array([0, 0]), evidence=np.full(2, MISSING))
    samples = np.zeros((10, 2), dtype=np.int64)
    assert 0.0 < math.exp(estimate_cll(samples, inst)) < 1.0
    assert 0.0 < math.exp(estimate_cmll(samples, inst, two_binary_schema.cards)) < 1.0


def test_estimators_reject_empty_inputs(two_binary_schema):
    inst = QueryInstance(query=np.array([0, MISSING]), evidence=np.full(2, MISSING))
    with pytest.raises(ValueError):
        estimate_cll(np.zeros((0, 2)), inst)
    with pytest.raises(ValueError):
        estimate_cmll(np.zeros((0, 2)), inst, np.array([2, 2]))


def test_samplers_agree_on_trained_model():
    rng = np.random.default_rng(29)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b")) for i in range(3)))
    data = np.column_stack(
        [rng.integers(0, 2, 300)] * 2 + [rng.integers(0, 2, 300)]
    )
    model, _ = train_em(
        data,
        schema,
        TrainConfig(smoothing=Smoothing.ADDITIVE, eps=0.1, max_iters=15),
    )
    inst = QueryInstance(
        query=np.array([0, MISSING, MISSING]), evidence=np.array([MISSING, 0, MISSING])
    )
    estimates = []
    for kind in SamplerKind:
        samples = run_chain(
            model, inst, SamplerConfig(sampler=kind, samples=8000, seed=31)
        )
        estimates.append(math.exp(estimate_cll(samples, inst)))
    exact = exact_conditional(
        model, np.array([0, MISSING, MISSING]), np.array([MISSING, 0, MISSING])
    )
    assert estimates[0] == pytest.approx(estimates[1], abs=0.02)
    assert estimates[0] == pytest.approx(exact, abs=0.02)
