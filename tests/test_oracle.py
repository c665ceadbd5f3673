import itertools
import math

import numpy as np
import pytest

from ldfm.model import MISSING, Variant, make_uniform_model
from ldfm.oracle import (
    _check_state_space,
    brute_partition_and_posteriors,
    brute_unnormalized_joint,
    brute_valid_normalizer,
    enumerate_rooted_trees,
    exact_conditional,
    is_rooted_tree,
    logsumexp,
)

from conftest import WORKED_Z, model_from_weights, random_model, worked_graph
from ldfm.model import VariableSchema


def test_tree_counts_match_cayley_formula():
    for n in range(1, 7):
        count = sum(1 for _ in enumerate_rooted_trees(n))
        assert count == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_table_keeps_the_scanned_trees_in_product_order(n):
    # reference: scan all n^n candidate vectors, following each node's path
    choices = [[p for p in range(n + 1) if p != j] for j in range(1, n + 1)]
    scanned = [cand[1:] for cand in itertools.product([-1], *choices) if is_rooted_tree(cand)]
    assert list(enumerate_rooted_trees(n)) == scanned


def per_cell_edge_posteriors(weights: np.ndarray) -> np.ndarray:
    """Reference: one masked log-sum-exp over the enumerated trees per cell."""
    n = weights.shape[1]
    trees = np.array(list(enumerate_rooted_trees(n)))
    with np.errstate(divide="ignore"):
        tree_logw = np.log(weights)[trees, np.arange(n)].sum(axis=1)
    log_z = logsumexp(tree_logw)
    post = np.zeros((n + 1, n))
    for j in range(n):
        for i in range(n + 1):
            post[i, j] = np.exp(logsumexp(tree_logw[trees[:, j] == i]) - log_z)
    return post


@pytest.mark.parametrize("n", range(1, 7))
def test_brute_edge_posteriors_equal_the_per_cell_sums(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        w = rng.uniform(0.01, 1.0, size=(n + 1, n))
        w[rng.random(w.shape) < 0.2] = 0.0  # some absent edges
        w[0] = np.maximum(w[0], 0.01)  # every node may still hang off the root
        _, post = brute_partition_and_posteriors(w)
        np.testing.assert_allclose(post, per_cell_edge_posteriors(w), rtol=1e-12, atol=1e-15)


def test_three_trees_for_two_nodes():
    assert set(enumerate_rooted_trees(2)) == {(0, 0), (0, 1), (2, 0)}


def test_single_node_tree():
    assert list(enumerate_rooted_trees(1)) == [(0,)]


def test_enumerated_vectors_are_acyclic():
    for tree in enumerate_rooted_trees(4):
        for start in range(1, 5):
            seen = set()
            j = start
            while j != 0:
                assert j not in seen
                seen.add(j)
                j = tree[j - 1]


def test_n_over_cap_rejected():
    with pytest.raises(ValueError):
        list(enumerate_rooted_trees(9))


def test_brute_log_partition_worked_example():
    lp, _ = brute_partition_and_posteriors(worked_graph())
    assert lp == pytest.approx(math.log(WORKED_Z), rel=1e-12)


def test_brute_log_partition_single_node():
    w = np.zeros((2, 1))
    w[0, 0] = 0.7
    assert brute_partition_and_posteriors(w)[0] == pytest.approx(math.log(0.7))


def test_brute_log_partition_uniform_two_binary():
    model = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))
    for x in ([0, 0], [0, 1], [1, 0], [1, 1]):
        lj = brute_unnormalized_joint(model, np.array(x))
        assert lj == pytest.approx(math.log(0.3125), rel=1e-12)


def test_brute_log_partition_zero_weight_errors():
    with pytest.raises(ValueError):
        brute_partition_and_posteriors(np.zeros((3, 2)))


def test_brute_edge_posteriors_worked_example():
    _, post = brute_partition_and_posteriors(worked_graph())
    assert post[0, 0] == pytest.approx(0.14 / WORKED_Z, rel=1e-12)
    assert post[0, 1] == pytest.approx(0.21 / WORKED_Z, rel=1e-12)
    assert post[1, 1] == pytest.approx(0.08 / WORKED_Z, rel=1e-12)
    assert post[2, 0] == pytest.approx(0.15 / WORKED_Z, rel=1e-12)


def test_brute_edge_posteriors_single_node():
    w = np.zeros((2, 1))
    w[0, 0] = 0.5
    assert brute_partition_and_posteriors(w)[1][0, 0] == pytest.approx(1.0)


def test_brute_edge_posterior_columns_sum_to_one():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        w = rng.uniform(0.01, 1.0, size=(n + 1, n))
        _, post = brute_partition_and_posteriors(w)
        np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-12)


def test_stop_augmented_joint_adds_stop_terms(two_binary_schema):
    s = two_binary_schema
    x1t, x2t = (0, 0), (1, 0)
    stop = 0.25
    model = model_from_weights(
        s,
        {(None, x1t): 0.2, (None, x2t): 0.3, (x1t, x2t): 0.4, (x2t, x1t): 0.5},
        variant=Variant.STOP_AUGMENTED,
        stop={key: stop for key in (None, x1t, x2t, (0, 1), (1, 1))},
    )
    lj = brute_unnormalized_joint(model, np.array([0, 0]))
    assert lj == pytest.approx(math.log(WORKED_Z) + 3 * math.log(stop), rel=1e-12)


def test_common_stop_weight_preserves_joint_ratios(two_binary_schema):
    from ldfm.model import LdfmModel

    rng = np.random.default_rng(8)
    plain = random_model(rng, two_binary_schema)
    assignments = [np.array(x) for x in ([0, 0], [0, 1], [1, 0], [1, 1])]
    k = two_binary_schema.num_keys
    for stop in (0.2, 0.6):
        stopped = LdfmModel(
            two_binary_schema,
            Variant.STOP_AUGMENTED,
            plain.dep * (1 - stop),
            np.full(1 + k, stop),
        )
        base = [brute_unnormalized_joint(plain, x) for x in assignments]
        aug = [brute_unnormalized_joint(stopped, x) for x in assignments]
        np.testing.assert_allclose(np.diff(base), np.diff(aug), atol=1e-12)


def test_valid_normalizer_uniform_models():
    one_var = make_uniform_model(VariableSchema((("A", ("T", "F")),)))
    assert brute_valid_normalizer(one_var) == pytest.approx(math.log(1.0), abs=1e-12)

    two_var = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))
    assert brute_valid_normalizer(two_var) == pytest.approx(math.log(1.25), rel=1e-12)


def test_normalized_joint_sums_to_one():
    rng = np.random.default_rng(11)
    schema = VariableSchema(
        (("A", ("a", "b")), ("B", ("a", "b", "c")), ("C", ("a", "b")))
    )
    for variant in (Variant.PLAIN, Variant.STOP_AUGMENTED):
        model = random_model(rng, schema, variant)
        log_gamma = brute_valid_normalizer(model)
        total = 0.0
        for combo in np.ndindex(2, 3, 2):
            total += math.exp(brute_unnormalized_joint(model, np.array(combo)) - log_gamma)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_conditional_uniform_symmetry():
    model = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))
    query = np.array([0, MISSING])
    evidence = np.array([MISSING, 0])
    assert exact_conditional(model, query, evidence) == pytest.approx(0.5, rel=1e-12)


def test_exact_conditional_full_query_matches_normalized_joint():
    rng = np.random.default_rng(21)
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F")), ("C", ("T", "F"))))
    model = random_model(rng, schema)
    log_gamma = brute_valid_normalizer(model)
    x = np.array([1, 0, 1])
    phi = math.exp(brute_unnormalized_joint(model, x) - log_gamma)
    empty = np.full(3, MISSING)
    assert exact_conditional(model, x.copy(), empty) == pytest.approx(phi, rel=1e-10)


def test_exact_conditional_completions_sum_to_one():
    rng = np.random.default_rng(22)
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F")), ("C", ("T", "F"))))
    model = random_model(rng, schema)
    evidence = np.array([MISSING, MISSING, 1])
    total = 0.0
    for a in range(2):
        for b in range(2):
            query = np.array([a, b, MISSING])
            total += exact_conditional(model, query, evidence)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_conditional_single_variable_marginals_sum_to_one():
    rng = np.random.default_rng(23)
    schema = VariableSchema((("A", ("T", "F")), ("B", ("x", "y", "z"))))
    model = random_model(rng, schema, Variant.STOP_AUGMENTED)
    evidence = np.array([0, MISSING])
    total = sum(
        exact_conditional(model, np.array([MISSING, v]), evidence) for v in range(3)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_conditional_rejects_overlap_and_empty_query():
    model = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))
    with pytest.raises(ValueError):
        exact_conditional(model, np.array([0, MISSING]), np.array([0, MISSING]))
    with pytest.raises(ValueError):
        exact_conditional(model, np.full(2, MISSING), np.array([0, MISSING]))


def test_state_space_cap_enforced():
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(8))) for i in range(5))
    )
    model = make_uniform_model(schema)
    with pytest.raises(ValueError):
        brute_valid_normalizer(model)


def test_state_space_cap_holds_when_the_int64_product_wraps():
    # 235^8 is about 9.3e18, which wraps to a negative int64
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(235))) for i in range(8))
    )
    with pytest.raises(ValueError, match=f"state space {235**8} exceeds cap"):
        _check_state_space(make_uniform_model(schema))


NINE_BINARY = make_uniform_model(VariableSchema(tuple((f"X{i}", ("T", "F")) for i in range(9))))
FIRST_ONLY = np.array([0] + [MISSING] * 8)


def _impossible_false_model():
    # no source gives A=F any weight, so no assignment with A=F has a tree
    schema = VariableSchema((("A", ("T", "F")), ("B", ("T", "F"))))
    a_t, b_t, b_f = (0, 0), (1, 0), (1, 1)
    return model_from_weights(
        schema,
        {(None, a_t): 0.5, (None, b_t): 0.25, (None, b_f): 0.25, (b_t, a_t): 1.0,
         (b_f, a_t): 1.0, (a_t, b_t): 0.5, (a_t, b_f): 0.5},
    )


TWO_UNIFORM = make_uniform_model(VariableSchema((("A", ("T", "F")), ("B", ("T", "F")))))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: brute_unnormalized_joint(NINE_BINARY, np.zeros(9)), r"n must be in \[1, 8\], got 9"),
        (lambda: brute_valid_normalizer(NINE_BINARY), r"n must be in \[1, 8\], got 9"),
        (lambda: exact_conditional(NINE_BINARY, FIRST_ONLY, np.full(9, MISSING)),
         r"n must be in \[1, 8\], got 9"),
        (lambda: brute_unnormalized_joint(_impossible_false_model(), np.array([1, 0])),
         "zero-probability assignment"),
        (lambda: brute_valid_normalizer(
            model_from_weights(VariableSchema((("A", ("T", "F")),)), {})),
         "model assigns zero weight to every assignment"),
        (lambda: exact_conditional(TWO_UNIFORM, np.array([0, MISSING, MISSING]),
                                   np.full(3, MISSING)),
         "length-n partial assignments"),
        (lambda: exact_conditional(_impossible_false_model(), np.array([MISSING, 0]),
                                   np.array([1, MISSING])),
         "evidence has zero probability"),
    ],
    ids=["joint-n9", "normalizer-n9", "conditional-n9", "zero-weight-assignment",
         "all-zero-model", "conditional-length", "impossible-evidence"],
)
def test_rejection_paths(call, message):
    with pytest.raises(ValueError, match=message):
        call()
