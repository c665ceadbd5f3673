import itertools
import math

import numpy as np
import pytest

from ldfm import matrix_tree, sampling
from ldfm.learning import Smoothing, TrainConfig, train_em
from ldfm.matrix_tree import (
    SingularLaplacianError,
    assignment_matrices,
    partition_and_posteriors_many,
)
from ldfm.model import (
    MISSING,
    LdfmModel,
    Variant,
    VariableSchema,
    make_uniform_model,
)
from ldfm.oracle import exact_conditional, is_rooted_tree, logsumexp
from ldfm.rng import chain_rngs, make_rng
from ldfm.sampling import (
    QueryInstance,
    SamplerConfig,
    SamplerKind,
    _draw_rows,
    _row_cdfs,
    _subtree_mask,
    estimate_cll,
    estimate_cmll,
    gibbs_sweep,
    random_parent_vector,
    run_chain,
    run_chains,
    tree_augmented_step,
)

from conftest import DEP_DEFECTS, model_from_weights, random_model, random_schema, tables_with


def instance_all_hidden(n: int, query_var: int = 0, query_val: int = 0) -> QueryInstance:
    query = np.full(n, MISSING, dtype=np.int64)
    query[query_var] = query_val
    return QueryInstance(query=query, evidence=np.full(n, MISSING, dtype=np.int64))


def test_query_instance_partition(two_binary_schema):
    inst = QueryInstance(
        query=np.array([0, MISSING]), evidence=np.array([MISSING, 1])
    )
    assert list(inst.query_vars) == [0]
    assert list(np.nonzero(inst.evidence != MISSING)[0]) == [1]
    with pytest.raises(ValueError):
        QueryInstance(query=np.array([0, MISSING]), evidence=np.array([1, MISSING]))
    with pytest.raises(ValueError):
        QueryInstance(query=np.full(2, MISSING), evidence=np.array([1, MISSING]))


@pytest.mark.parametrize(
    "query, evidence",
    [([0, MISSING], [MISSING]), ([[0, MISSING]], [[MISSING, 1]])],
    ids=["unequal-lengths", "two-dimensional"],
)
def test_query_instance_rejects_a_bad_shape(query, evidence):
    with pytest.raises(ValueError, match="equal-length vectors"):
        QueryInstance(query=np.array(query), evidence=np.array(evidence))


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        SamplerConfig(samples=0)
    with pytest.raises(ValueError, match="thin must be at least 1, got 0"):
        SamplerConfig(thin=0)
    with pytest.raises(ValueError, match="chains must be at least 1, got 0"):
        SamplerConfig(chains=0)
    with pytest.raises(ValueError, match="burn_in must be at least 0, got -1"):
        SamplerConfig(burn_in=-1)


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_a_sampler_is_its_member_or_its_value(kind):
    rng = np.random.default_rng(4)
    model = random_model(rng, random_schema(rng, 4))
    evidence = np.array([[MISSING, 1, MISSING, MISSING]])
    draws = [
        run_chains(model, evidence, SamplerConfig(sampler=sampler, samples=20, burn_in=5, chains=2), [3])
        for sampler in (kind, kind.value)
    ]
    np.testing.assert_array_equal(draws[0], draws[1])
    assert SamplerConfig(sampler=kind.value).sampler is kind
    with pytest.raises(ValueError, match="'exact'"):
        SamplerConfig(sampler="exact")


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
    gibbs_sweep(model, values, np.array([[True, True]]), {}, [make_rng(0)])
    np.testing.assert_array_equal(values, [[1, 0]])


def test_gibbs_raises_when_every_value_is_impossible(two_binary_schema):
    s = two_binary_schema
    x1t, x2t = (0, 0), (1, 0)
    # X1 reachable only as T; with evidence X2=F nothing can generate X2
    model = model_from_weights(
        s, {(None, x1t): 0.5, (None, x2t): 0.5, (x1t, x2t): 1.0, (x2t, x1t): 1.0}
    )
    values = np.array([[1, 1]])
    with pytest.raises(SingularLaplacianError):
        gibbs_sweep(model, values, np.array([[False, True]]), {}, [make_rng(0)])


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
    rngs = chain_rngs(6, 4)
    values = np.array([r.integers(0, schema.cards) for r in rngs])
    parents = np.array([random_parent_vector(5, r) for r in rngs])
    pinned = np.zeros((4, 5), dtype=bool)
    pinned[1, [0, 3]] = True
    for _ in range(500):
        tree_augmented_step(model, values, pinned, parents, rngs)
        assert all(is_rooted_tree(p) for p in parents)


def _stack_subtree(parents, node):
    """The nodes under ``node`` in one parent vector, by depth-first search."""
    subtree, stack = [], [node]
    while stack:
        j = stack.pop()
        subtree.append(j)
        stack.extend(np.nonzero(parents[1:] == j)[0] + 1)
    return subtree


def _path_tree(order):
    """The parent vector of the path root -> order[0] -> order[1] -> ..."""
    parents = np.full(len(order) + 1, -1, dtype=np.int64)
    parents[order] = np.concatenate([[0], order[:-1]])
    return parents


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 20])
def test_subtree_mask_matches_a_depth_first_search(n):
    rng = np.random.default_rng(n)
    # random trees, and paths: the deepest trees, the last node n - 1 steps below the first
    trees = [random_parent_vector(n, rng) for _ in range(6)]
    trees += [_path_tree(np.arange(1, n + 1)), _path_tree(np.arange(n, 0, -1))]
    trees += [_path_tree(rng.permutation(n) + 1) for _ in range(2)]
    parents = np.array([tree for tree in trees for _ in range(n)])
    nodes = np.tile(np.arange(1, n + 1), len(trees))
    mask = _subtree_mask(parents, nodes)
    for c, (tree, node) in enumerate(zip(parents, nodes)):
        expected = np.zeros(n + 1, dtype=bool)
        expected[_stack_subtree(tree, node)] = True
        np.testing.assert_array_equal(mask[c], expected, err_msg=f"{tree}, node {node}")


@pytest.mark.parametrize(
    "row",
    [[-np.inf, -np.inf, -np.inf], [np.nan, np.nan, np.nan], [0.0, np.nan, -1.0]],
    ids=["all-zero", "all-nan", "one-nan"],
)
def test_row_cdfs_raises_for_an_all_zero_row_or_a_nan(row):
    logw = np.array([[0.0, -1.0, -np.inf], row, [-0.5, -0.5, -np.inf]])
    with pytest.raises(SingularLaplacianError, match="^row 1 cannot be drawn$"):
        _row_cdfs(logw, lambda r: f"row {r} cannot be drawn")


def _reference_draw(logw, rng, error):
    total = logsumexp(logw)
    if not np.isfinite(total):
        raise SingularLaplacianError(error)
    p = np.exp(logw - total)
    p /= p.sum()
    return int(rng.choice(len(p), p=p))


def _reference_tree_step(model, values, pinned, parents, rngs):
    """The one-chain-at-a-time tree step that the batched kernel replaced."""
    schema = model.schema
    n = schema.n
    for c, rng in enumerate(rngs):
        vals_c, par_c = values[c], parents[c]
        node = int(rng.integers(1, n + 1))
        var = node - 1

        subtree, stack = [], [node]
        while stack:
            j = stack.pop()
            subtree.append(j)
            stack.extend(np.nonzero(par_c[1:] == j)[0] + 1)
        blocked = np.zeros(n + 1, dtype=bool)
        blocked[subtree] = True
        cand_parents = np.nonzero(~blocked)[0]

        rows_all = schema.assignment_rows(vals_c)
        if pinned[c, var]:
            vals = np.array([vals_c[var]], dtype=np.int64)
        else:
            vals = np.arange(schema.cards[var], dtype=np.int64)
        val_cols = schema.offsets[var] + vals
        val_rows = 1 + val_cols

        children = np.nonzero(par_c == node)[0]
        child_cols = schema.offsets[children - 1] + vals_c[children - 1]
        with np.errstate(divide="ignore"):
            log_in = np.log(model.dep[rows_all[cand_parents]][:, val_cols]).T
            val_logw = np.log(model.dep[val_rows][:, child_cols]).sum(axis=1)
            if model.variant is Variant.STOP_AUGMENTED:
                val_logw = val_logw + np.log(model.stop[val_rows])

        logw = (log_in + val_logw[:, None]).ravel()
        error = f"every (value, parent) candidate for variable {var} has zero weight"
        vi, pi = divmod(_reference_draw(logw, rng, error), len(cand_parents))
        vals_c[var] = int(vals[vi])
        par_c[node] = int(cand_parents[pi])


@pytest.mark.parametrize("variant", list(Variant))
def test_batched_tree_step_matches_per_chain_reference(variant):
    rng = np.random.default_rng(41)
    schema = random_schema(rng, 7, max_card=4)
    assert len(set(schema.cards)) > 1
    model = random_model(rng, schema, variant)
    chains = 6
    pinned = np.zeros((chains, 7), dtype=bool)
    pinned[1, [0, 4]] = True
    pinned[3, :] = True
    pinned[4, [2, 3, 5, 6]] = True
    state = []
    for _ in range(2):
        rngs = chain_rngs(43, chains)
        values = np.array([r.integers(0, schema.cards) for r in rngs])
        parents = np.array([random_parent_vector(7, r) for r in rngs])
        state.append((values, parents, rngs))
    (values, parents, rngs), (ref_values, ref_parents, ref_rngs) = state
    for _ in range(300):
        tree_augmented_step(model, values, pinned, parents, rngs)
        _reference_tree_step(model, ref_values, pinned, ref_parents, ref_rngs)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(parents, ref_parents)


def _one_value_impossible_model(schema, variant=Variant.PLAIN):
    # X2=F gets no weight from any source, so an X2=F chain is impossible
    x1t, x2t = (0, 0), (1, 0)
    return model_from_weights(
        schema,
        {(None, x1t): 0.5, (None, x2t): 0.5, (x1t, x2t): 1.0, (x2t, x1t): 1.0},
        variant,
        stop={src: 0.5 for src in (None, x1t, (0, 1), x2t, (1, 1))},
    )


def test_tree_step_error_names_the_impossible_chains_variable(two_binary_schema):
    model = _one_value_impossible_model(two_binary_schema)
    # chain 0 picks node 1 (variable 0) and can move; chain 1 picks node 2
    # (variable 1), pinned to its impossible value F
    def picking(node):
        return next(make_rng(s) for s in range(100) if make_rng(s).integers(1, 3) == node)

    values = np.array([[0, 0], [0, 1]])
    pinned = np.array([[False, False], [False, True]])
    parents = np.array([[-1, 0, 0], [-1, 0, 0]])
    with pytest.raises(SingularLaplacianError, match="for variable 1 has zero weight"):
        tree_augmented_step(model, values, pinned, parents, [picking(1), picking(2)])


def test_gibbs_error_in_a_batch_with_one_impossible_chain(two_binary_schema):
    model = _one_value_impossible_model(two_binary_schema)
    values = np.array([[0, 0], [1, 1]])
    pinned = np.array([[False, True], [False, True]])
    with pytest.raises(SingularLaplacianError, match="every value of variable 0"):
        gibbs_sweep(model, values, pinned, {}, chain_rngs(0, 2))


def test_gibbs_zero_uniform_never_draws_an_impossible_value(two_binary_schema):
    x1t, x2f = (0, 0), (1, 1)
    # X2=T (value 0) gets no weight, so X2's conditional CDF starts at 0.0
    model = model_from_weights(
        two_binary_schema, {(None, x1t): 0.5, (None, x2f): 0.5, (x1t, x2f): 1.0, (x2f, x1t): 1.0}
    )

    class ZeroStream:
        def random(self, size):
            return np.zeros(size)

    values, memo = np.array([[0, 1]]), {}
    for _ in range(3):  # scored, then stored, then read from the memo
        gibbs_sweep(model, values, np.zeros((1, 2), dtype=bool), memo, [ZeroStream()])
        np.testing.assert_array_equal(values, [[0, 1]])
    assert 1 in memo


def _draw_test_rows(rng):
    rows = [rng.normal(scale=rng.choice([0.1, 1.0, 30.0]), size=k) for k in (1, 2, 3, 7, 8, 9, 40)]
    for k in (3, 12, 36):
        row = rng.normal(size=k)
        row[rng.random(k) < 0.5] = -np.inf
        row[rng.integers(k)] = rng.normal()
        rows.append(row)
        one_hot = np.full(k, -np.inf)
        one_hot[rng.integers(k)] = rng.normal()
        rows.append(one_hot)
    rows.append(np.full(5, -700.0))
    return rows


def test_draw_rows_matches_generator_choice():
    rng = np.random.default_rng(47)
    for trial in range(20):
        for row in _draw_test_rows(rng):
            logw = np.tile(row, (6, 1))
            rngs = chain_rngs([trial, len(row)], 6)
            ref_rngs = chain_rngs([trial, len(row)], 6)
            twins = chain_rngs([trial, len(row)], 6)
            picked = _draw_rows(logw, rngs, lambda r: "unused")
            for r in range(6):
                assert picked[r] == _reference_draw(row, ref_rngs[r], "unused")
                twins[r].random()
                assert rngs[r].bit_generator.state == twins[r].bit_generator.state


def test_draw_rows_names_the_first_all_zero_row():
    logw = np.array([[-0.7, -0.7], [-np.inf, -np.inf], [0.0, -np.inf], [-np.inf, -np.inf]])
    with pytest.raises(SingularLaplacianError, match="^row 1$"):
        _draw_rows(logw, chain_rngs(0, 4), lambda row: f"row {row}")


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
    rows = model.schema.assignment_rows(x[None])
    exact = partition_and_posteriors_many(assignment_matrices(model, rows))[1][0]
    assert np.abs(freq[:, 1:] - exact).max() < 0.02


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
    alone = run_chains(model, a[None], config, [[5, 0]])
    paired = run_chains(model, np.stack([a, b]), config, [[5, 0], [5, 1]])
    assert alone.shape == (1, 30, 4)
    np.testing.assert_array_equal(alone[0], paired[0])
    assert np.all(paired[1][:, [0, 3]] == [0, 1])


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_run_chains_pools_each_rows_chains_like_run_chain(kind):
    rng = np.random.default_rng(41)
    schema = VariableSchema(tuple((f"X{i}", ("a", "b", "c")) for i in range(4)))
    model = random_model(rng, schema)
    evidence = np.array([[MISSING, 2, MISSING, MISSING], [0, MISSING, 1, MISSING]])
    config = SamplerConfig(sampler=kind, samples=15, thin=2, burn_in=5, chains=2)
    seeds = [[9, 0], [9, 1]]
    draws = run_chains(model, evidence, config, seeds)
    assert draws.shape == (2, 30, 4)
    assert np.all(draws[0][:, 1] == 2) and np.all(draws[1][:, [0, 2]] == [0, 1])
    for i, row in enumerate(evidence):
        inst = QueryInstance(query=np.array([MISSING, MISSING, MISSING, 0]), evidence=row)
        np.testing.assert_array_equal(draws[i], run_chain(model, inst, config, seed=seeds[i]))
    alone = run_chains(model, evidence[1:], config, seeds[1:])
    np.testing.assert_array_equal(alone[0], draws[1])


def _memo_test_evidence(n: int) -> np.ndarray:
    evidence = np.full((2, n), MISSING)
    evidence[1, 2] = 1
    return evidence


def _memo_test_draws(model: LdfmModel, chains: int) -> np.ndarray:
    config = SamplerConfig(samples=25, thin=2, burn_in=5, chains=chains)
    return run_chains(model, _memo_test_evidence(model.schema.n), config, [[3, 0], [3, 1]])


def _fill_size(model: LdfmModel, evidence: np.ndarray) -> int:
    """Floats a Gibbs memo filled up front for ``evidence`` is counted at:
    f R per distinct row with f free variables and R completions."""
    total = 0
    for row in {tuple(row) for row in evidence.tolist() if MISSING in row}:
        free = [int(c) for c, v in zip(model.schema.cards, row) if v == MISSING]
        total += len(free) * math.prod(free)
    return total


def _scoring_calls(monkeypatch) -> list:
    """One list per later ``unnormalized_log_joint_many`` call: the bytes of
    each row it scored."""
    calls = []
    score = matrix_tree.unnormalized_log_joint_many

    def counting(model, xs, on_singular="raise"):
        calls.append(list(map(bytes, xs)))
        return score(model, xs, on_singular=on_singular)

    monkeypatch.setattr(matrix_tree, "unnormalized_log_joint_many", counting)
    return calls


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("cap", [1, 3])
def test_gibbs_memo_cap_does_not_change_draws(monkeypatch, variant, chains, cap):
    rng = np.random.default_rng(61)
    model = random_model(rng, random_schema(rng, 5), variant)
    default = _memo_test_draws(model, chains)

    sizes = []
    memo_log_joints = sampling._memo_log_joints

    def watched(model, candidates, memo):
        out = memo_log_joints(model, candidates, memo)
        sizes.append(len(memo))
        return out

    monkeypatch.setattr(sampling, "MEMO_CAP", cap)
    monkeypatch.setattr(sampling, "_memo_log_joints", watched)
    np.testing.assert_array_equal(_memo_test_draws(model, chains), default)
    assert 0 < len(sizes) and max(sizes) <= cap
    if cap == 3 and chains == 1:  # X3 is free in one chain: 2 or 3 rows, stored
        assert max(sizes) > 0


def _memoless_gibbs_sweep(model, values, pinned, rngs):
    """The Gibbs sweep without a memo: every candidate row scored afresh."""
    for var in range(model.schema.n):
        free = np.nonzero(~pinned[:, var])[0]
        if free.size == 0:
            continue
        card = int(model.schema.cards[var])
        candidates = np.repeat(values[free], card, axis=0)
        candidates[:, var] = np.tile(np.arange(card), free.size)
        logp = matrix_tree.unnormalized_log_joint_many(model, candidates, on_singular="neginf")
        error = lambda row: "every value has zero weight"
        picked = _draw_rows(logp.reshape(free.size, card), [rngs[c] for c in free], error)
        values[free, var] = picked


@pytest.mark.parametrize("cards", [(3, 2, 3, 2), (300, 2, 3)])
@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_sweeps_sharing_a_memo_match_memoless_sweeps(cards, variant):
    # 300 values need two bytes per value index in the memo's keys
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(c))) for i, c in enumerate(cards))
    )
    rng = np.random.default_rng(71)
    model = random_model(rng, schema, variant)
    values = np.stack([rng.integers(0, schema.cards) for _ in range(3)])
    pinned = np.zeros_like(values, dtype=bool)
    pinned[1, 1] = True
    expected = values.copy()
    memo = {}
    rngs, expected_rngs = chain_rngs(8, 3), chain_rngs(8, 3)
    for _ in range(15):
        gibbs_sweep(model, values, pinned, memo, rngs)
        _memoless_gibbs_sweep(model, expected, pinned, expected_rngs)
        np.testing.assert_array_equal(values, expected)
    assert memo


@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_memo_scores_each_distinct_row_once(monkeypatch, variant):
    calls = _scoring_calls(monkeypatch)

    # five variables of eight values: the completions pass MEMO_CAP, so the
    # memo fills as the chains go.  Every value but v0 gets a hundredth of
    # its incoming weight, so the chains keep coming back to the same rows.
    schema = VariableSchema(tuple((f"X{i}", tuple(f"v{j}" for j in range(8))) for i in range(5)))
    base = random_model(np.random.default_rng(67), schema, variant)
    dep = base.dep.copy()
    dep[:, schema.offsets[:, None] + np.arange(1, 8)] *= 0.01
    model = LdfmModel(schema, variant, dep, base.stop)
    assert _fill_size(model, _memo_test_evidence(5)) > sampling.MEMO_CAP
    draws = _memo_test_draws(model, 3)
    memo_rows = [row for call in calls for row in call]
    assert len(calls) > 1 and len(set(memo_rows)) == len(memo_rows)

    # a cap of 1 stores nothing, so every sweep scores each of its distinct
    # candidate rows: together, every candidate row of the run
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "MEMO_CAP", 1)
        np.testing.assert_array_equal(_memo_test_draws(model, 3), draws)
    scored = [row for call in calls for row in call]
    assert set(scored) == set(memo_rows)
    assert len(scored) > 3 * len(memo_rows)

    # a small state space is scored up front: every free completion of both
    # evidence rows (all rows, as the first pins nothing), once, in one call
    rng = np.random.default_rng(67)
    model = random_model(rng, random_schema(rng, 5), variant)
    cards = model.schema.cards.tolist()
    completions = set(map(bytes, np.array(list(itertools.product(*map(range, cards))), np.uint8)))
    calls.clear()
    draws = _memo_test_draws(model, 3)
    [memo_rows] = calls
    assert len(set(memo_rows)) == len(memo_rows) and set(memo_rows) == completions

    calls.clear()
    monkeypatch.setattr(sampling, "MEMO_CAP", 1)
    np.testing.assert_array_equal(_memo_test_draws(model, 3), draws)
    assert {row for call in calls for row in call} <= completions


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("chains", [1, 3])
def test_gibbs_memo_filled_up_front_draws_like_a_lazy_memo(monkeypatch, variant, chains):
    rng = np.random.default_rng(89)
    model = random_model(rng, random_schema(rng, 5), variant)
    calls = _scoring_calls(monkeypatch)
    filled = _memo_test_draws(model, chains)
    assert len(calls) == 1

    # one float short of the fill, the memo starts empty
    calls.clear()
    monkeypatch.setattr(sampling, "MEMO_CAP", _fill_size(model, _memo_test_evidence(5)) - 1)
    np.testing.assert_array_equal(_memo_test_draws(model, chains), filled)
    assert len(calls) > 1


@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_memo_filled_up_front_holds_at_most_memo_cap_floats(monkeypatch, variant):
    rng = np.random.default_rng(97)
    model = random_model(rng, random_schema(rng, 5), variant)
    starts = []
    sweep = sampling.gibbs_sweep

    def watched(model, values, pinned, memo, rngs):
        if not starts:
            starts.append(_stored_floats_of(memo))
        sweep(model, values, pinned, memo, rngs)

    monkeypatch.setattr(sampling, "gibbs_sweep", watched)
    for cap in (sampling.MEMO_CAP, _fill_size(model, _memo_test_evidence(5))):
        monkeypatch.setattr(sampling, "MEMO_CAP", cap)
        starts.clear()
        _memo_test_draws(model, 2)
        assert 0 < starts[0] <= cap


@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_memo_filled_up_front_holds_one_cdf_per_context(variant):
    rng = np.random.default_rng(101)
    model = random_model(rng, random_schema(rng, 5), variant)
    evidence = _memo_test_evidence(5)
    memo = sampling._start_memo(model, evidence, np.uint8)
    cards = model.schema.cards.tolist()
    # the conditional layer alone: one key per variable, no row keys
    assert sorted(memo) == list(range(5))
    for var, card in enumerate(cards):
        contexts = set()
        for row in evidence:
            ranges = [range(c) if v == MISSING else [v] for c, v in zip(cards, row)]
            ranges[var] = [0] if row[var] == MISSING else []
            contexts.update(itertools.product(*ranges))
        assert set(memo[var]) == set(map(bytes, np.array(sorted(contexts), np.uint8)))
        for key, cdf in memo[var].items():
            context = np.frombuffer(key, np.uint8).astype(np.int64)
            logw = _conditional_log_joints(model, context, var)
            assert cdf == _row_cdfs(logw[None], lambda row: "unused")[0].tolist()
    assert _stored_floats_of(memo) <= _fill_size(model, evidence) <= sampling.MEMO_CAP


@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_memo_fill_leaves_out_contexts_with_no_drawable_value(
    monkeypatch, two_binary_schema, variant
):
    model = _one_value_impossible_model(two_binary_schema, variant)
    # X1=F also gets no weight, so only (T, T) scores: X1's context X2=F
    # and X2's context X1=F are all -inf, and the fill leaves them out
    memo = sampling._start_memo(model, np.full((1, 2), MISSING), np.uint8)
    assert sorted(memo) == [0, 1]  # no row entries
    assert len(memo[0]) == len(memo[1]) == 1
    # with X2 pinned to F, the chain meets the left-out context and raises
    # as it does with a memo that starts empty
    evidence = np.array([[MISSING, 1]])
    for cap in (sampling.MEMO_CAP, 1):
        monkeypatch.setattr(sampling, "MEMO_CAP", cap)
        with pytest.raises(SingularLaplacianError, match="every value of variable 0"):
            run_chains(model, evidence, SamplerConfig(samples=2, burn_in=0), [0])


def test_gibbs_sweep_draws_each_chains_uniforms_in_one_call():
    rng = np.random.default_rng(73)
    model = random_model(rng, random_schema(rng, 5))
    values = np.stack([rng.integers(0, model.schema.cards) for _ in range(4)])
    pinned = np.array(
        [
            [False] * 5,
            [True, False, True, False, False],
            [True] * 5,
            [False, False, False, False, True],
        ]
    )
    memo = {}
    rngs, twins = chain_rngs(5, 4), chain_rngs(5, 4)
    for _ in range(3):  # a cold memo, then warm ones
        gibbs_sweep(model, values, pinned, memo, rngs)
        for c, twin in enumerate(twins):
            for _ in range(int((~pinned[c]).sum())):
                twin.random()
            assert rngs[c].bit_generator.state == twin.bit_generator.state


def _conditional_log_joints(model, values, var):
    candidates = np.repeat(values[None], model.schema.cards[var], axis=0)
    candidates[:, var] = np.arange(model.schema.cards[var])
    return matrix_tree.unnormalized_log_joint_many(model, candidates, on_singular="neginf")


@pytest.mark.parametrize("cards", [(3, 2, 4), (300, 2, 3)])
@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_memo_hit_draws_like_generator_choice(monkeypatch, cards, variant):
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(c))) for i, c in enumerate(cards))
    )
    rng = np.random.default_rng(79)
    model = random_model(rng, schema, variant)
    # only X0 is free and every chain shares its context: the first sweep
    # scores its rows, the second finds them all and stores the conditional,
    # and from then on every draw reads it
    values = np.tile(rng.integers(0, schema.cards), (4, 1))
    pinned = np.ones_like(values, dtype=bool)
    pinned[:, 0] = False
    logw = _conditional_log_joints(model, values[0], 0)
    memo = {}
    rngs, twins = chain_rngs(13, 4), chain_rngs(13, 4)
    for stored in (0, 1):
        gibbs_sweep(model, values, pinned, memo, rngs)
        for twin in twins:
            twin.random()
        assert len(memo.get(0, {})) == stored

    def unexpected(*args, **kwargs):
        raise AssertionError("a stored context went to the row layer")

    monkeypatch.setattr(sampling, "_memo_log_joints", unexpected)
    seen = set()
    for _ in range(40):
        gibbs_sweep(model, values, pinned, memo, rngs)
        for c, twin in enumerate(twins):
            assert values[c, 0] == _reference_draw(logw, twin, "unused")
        seen.update(values[:, 0].tolist())
    assert len(seen) > 1


def _stored_floats_of(memo):
    """Floats in both layers of a Gibbs memo, counted from its contents."""
    return sum(
        sum(map(len, entry.values())) if isinstance(entry, dict) else 1
        for entry in memo.values()
    )


@pytest.mark.parametrize("cap", [1, 299, 320, 650, 1000])
@pytest.mark.parametrize("variant", list(Variant))
def test_gibbs_memo_cap_counts_floats_of_both_layers(monkeypatch, cap, variant):
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(c))) for i, c in enumerate((300, 2, 3, 2)))
    )
    rng = np.random.default_rng(83)
    model = random_model(rng, schema, variant)
    start = np.stack([rng.integers(0, schema.cards) for _ in range(3)])
    pinned = np.zeros_like(start, dtype=bool)
    pinned[1, 0] = pinned[2, 0] = pinned[2, 2] = True  # X0 is free in chain 0 only

    def run(sweeps):
        values, memo, rngs = start.copy(), {}, chain_rngs(17, 3)
        for _ in range(sweeps):
            gibbs_sweep(model, values, pinned, memo, rngs)
            yield values.copy(), memo

    default = [values for values, _ in run(20)]

    sizes, conditionals = [], []
    memo_log_joints = sampling._memo_log_joints

    def observe(memo):
        sizes.append(_stored_floats_of(memo))
        conditionals.append(0 in memo)

    def watched(model, candidates, memo):
        observe(memo)  # the state the last variable's stored conditionals left
        out = memo_log_joints(model, candidates, memo)
        observe(memo)
        return out

    monkeypatch.setattr(sampling, "MEMO_CAP", cap)
    monkeypatch.setattr(sampling, "_memo_log_joints", watched)
    for expected, (values, memo) in zip(default, run(20)):
        np.testing.assert_array_equal(values, expected)
        observe(memo)
    assert sizes and max(sizes) <= cap
    if cap >= 320:  # X0's conditional (300 floats) fits and is stored
        assert any(conditionals)
    if cap == 1:  # no conditional and no batch of two or more rows fits
        assert max(sizes) == 0


def test_run_chains_rejects_seed_count_mismatch(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    with pytest.raises(ValueError, match="1 seeds for 2 evidence rows"):
        run_chains(model, np.full((2, 2), MISSING), SamplerConfig(chains=2), [0])


@pytest.mark.parametrize("kind", list(SamplerKind))
@pytest.mark.parametrize("bad", [2, 256, -3])
def test_run_chains_rejects_evidence_value_out_of_range(two_binary_schema, kind, bad):
    model = make_uniform_model(two_binary_schema)
    config = SamplerConfig(sampler=kind, samples=3, burn_in=1)
    with pytest.raises(ValueError, match="evidence value index out of range"):
        run_chains(model, np.array([[MISSING, bad]]), config, [0])


@pytest.mark.parametrize("kind", list(SamplerKind))
@pytest.mark.parametrize("defect", DEP_DEFECTS)
def test_run_chains_rejects_a_model_weight_defect(two_binary_schema, kind, defect):
    # a NaN weight used to pass through Gibbs with only a numpy warning; the
    # model is now checked when it is built, before any chain starts
    base = make_uniform_model(two_binary_schema)
    table, cell, value, words = DEP_DEFECTS[defect]
    config = SamplerConfig(sampler=kind, samples=3, burn_in=1)
    with pytest.raises(ValueError, match=words):
        run_chains(LdfmModel(two_binary_schema, base.variant, **tables_with(base, table, cell, value)),
                   np.full((1, 2), MISSING), config, [0])


def test_run_chains_rejects_schema_mismatch(two_binary_schema):
    model = make_uniform_model(two_binary_schema)
    with pytest.raises(ValueError, match="schema"):
        run_chains(model, np.full((1, 3), MISSING), SamplerConfig(), [0])


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_run_chains_rejects_empty_evidence(two_binary_schema, kind):
    model = make_uniform_model(two_binary_schema)
    config = SamplerConfig(sampler=kind, samples=3, burn_in=1)
    with pytest.raises(ValueError, match="evidence must hold at least one row, got 0"):
        run_chains(model, np.zeros((0, 2), np.int64), config, [])


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
