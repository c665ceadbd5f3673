"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; every tolerance is asserted, so a green run is the full gate.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ldfm.dataio import (
    GroundTruthNet,
    fixture_net,
    forward_sample,
    load_dataset,
    load_schema,
)
from ldfm.evaluation import (
    evaluate_baseline,
    fit_independence_baseline,
    make_query_instances,
)
from ldfm.learning import (
    Smoothing,
    TrainConfig,
    data_log_likelihood,
    e_step,
    m_step,
    train_em,
)
from ldfm.matrix_tree import (
    assignment_matrices,
    log_partition_many,
    partition_and_posteriors_many,
)
from ldfm.model import (
    MISSING,
    LdfmModel,
    Variant,
    VariableSchema,
    make_uniform_model,
    validate_model,
)
from ldfm.oracle import (
    brute_partition_and_posteriors,
    brute_unnormalized_joint,
    brute_valid_normalizer,
    enumerate_rooted_trees,
    exact_conditional,
)
from ldfm.sampling import (
    QueryInstance,
    SamplerConfig,
    SamplerKind,
    estimate_cll,
    run_chains,
)

from conftest import WORKED_Z, random_model, random_schema, worked_graph


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def chain_net(n: int, card: int, seed: int, coupling: float = 0.8) -> GroundTruthNet:
    """Chain-structured ground truth with a strong copy tendency."""
    schema = VariableSchema(
        tuple((f"X{i}", tuple(f"v{j}" for j in range(card))) for i in range(n))
    )
    off = (1.0 - coupling) / (card - 1)
    cpt = np.full((card, card), off)
    np.fill_diagonal(cpt, coupling)
    root = np.full((1, card), 1.0 / card)
    parents = ((),) + tuple((i - 1,) for i in range(1, n))
    cpts = (root,) + tuple(cpt.copy() for _ in range(1, n))
    return GroundTruthNet(schema, parents, cpts)


def test_criterion_1_matrix_tree_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_logz = 0.0
    worst_post = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(200):
            w = rng.uniform(0.01, 1.0, size=(n + 1, n))
            fast, post = partition_and_posteriors_many(w[None])
            brute, brute_post = brute_partition_and_posteriors(w)
            worst_logz = max(worst_logz, abs(fast[0] - brute) / abs(brute))
            diff = np.abs(post[0] - brute_post).max()
            worst_post = max(worst_post, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst_logz <= 1e-9 and worst_post <= 1e-9 and elapsed < 30
    report(
        1,
        ok,
        f"800 random graphs: rel logZ err {worst_logz:.2e}, "
        f"post err {worst_post:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_worked_example_exact():
    log_z, post = partition_and_posteriors_many(worked_graph()[None])
    log_z, post = float(log_z[0]), post[0]
    expected = {
        (0, 0): 0.14 / WORKED_Z,
        (0, 1): 0.21 / WORKED_Z,
        (1, 1): 0.08 / WORKED_Z,
        (2, 0): 0.15 / WORKED_Z,
    }
    ok = math.isclose(math.exp(log_z), WORKED_Z, rel_tol=1e-12)
    for (i, j), want in expected.items():
        ok = ok and math.isclose(post[i, j], want, rel_tol=1e-12)
    report(2, ok, f"Z={math.exp(log_z):.6f} and all four edge posteriors match enumeration")


def test_criterion_3_tree_counts():
    counts = {n: sum(1 for _ in enumerate_rooted_trees(n)) for n in range(1, 7)}
    ok = all(counts[n] == (n + 1) ** (n - 1) for n in counts)
    report(3, ok, f"rooted tree counts {counts} equal (n+1)^(n-1)")


def test_criterion_4_em_monotone_and_normalized():
    t0 = time.perf_counter()
    net = chain_net(5, 3, seed=0, coupling=0.7)
    data = forward_sample(net, 100, seed=1004).rows
    schema = net.schema
    config = TrainConfig(smoothing=Smoothing.NONE, variant=Variant.PLAIN, max_iters=50)
    model = make_uniform_model(schema)
    lls = []
    valid = True
    for _ in range(50):
        stats = e_step(model, data)
        lls.append(stats.loglik)
        model = m_step(stats, config, schema)
        valid = valid and validate_model(model) == []
    lls.append(data_log_likelihood(model, data))
    monotone = all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and valid and elapsed < 60
    report(
        4,
        ok,
        f"50 EM iterations monotone (ll {lls[0]:.2f} -> {lls[-1]:.2f}), "
        f"all M-steps normalized, {elapsed:.1f}s",
    )


def test_criterion_5_single_sample_m_step_equivalence():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        schema = random_schema(rng, n, max_card=3)
        model = random_model(rng, schema)
        x = np.array([rng.integers(0, c) for c in schema.cards])
        stats = e_step(model, x[None, :])
        new = m_step(stats, TrainConfig(smoothing=Smoothing.NONE), schema)
        rows = schema.assignment_rows(x)
        _, post = brute_partition_and_posteriors(assignment_matrices(model, rows[None])[0])
        for i in range(n + 1):
            out_mass = post[i].sum()
            if out_mass <= 0:
                continue
            for j in range(1, n + 1):
                if i == j:
                    continue
                col = schema.col_of(j - 1, x[j - 1])
                got = new.dep[rows[i], col]
                worst = max(worst, abs(got - post[i, j - 1] / out_mass))
    ok = worst <= 1e-9
    report(5, ok, f"one E/M round equals renormalized brute posteriors (max dev {worst:.2e})")


def _trained_three_binary_model() -> LdfmModel:
    net = chain_net(3, 2, seed=0, coupling=0.75)
    data = forward_sample(net, 400, seed=1006).rows
    model, _ = train_em(
        data,
        net.schema,
        TrainConfig(smoothing=Smoothing.ADDITIVE, eps=0.1, max_iters=25),
    )
    return model


def test_criterion_6_sampler_convergence():
    t0 = time.perf_counter()
    model = _trained_three_binary_model()
    evidence = np.array([MISSING, MISSING, 0])
    exact = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            exact[a, b] = exact_conditional(
                model, np.array([a, b, MISSING]), evidence
            )
    instance = QueryInstance(
        query=np.array([0, 0, MISSING]), evidence=evidence
    )
    tv = {}
    est = {}
    seeds = list(range(5))
    for kind in SamplerKind:
        tvs = []
        ests = []
        # one row per seed, each drawing as it would alone
        config = SamplerConfig(sampler=kind, samples=50_000)
        for samples in run_chains(model, np.tile(evidence, (len(seeds), 1)), config, seeds):
            emp = np.zeros((2, 2))
            for a in range(2):
                for b in range(2):
                    emp[a, b] = np.mean((samples[:, 0] == a) & (samples[:, 1] == b))
            tvs.append(0.5 * np.abs(emp - exact).sum())
            ests.append(math.exp(estimate_cll(samples, instance)))
        tv[kind] = float(np.mean(tvs))
        est[kind] = float(np.mean(ests))
    agree = abs(est[SamplerKind.GIBBS] - est[SamplerKind.TREE_AUGMENTED])
    elapsed = time.perf_counter() - t0
    ok = (
        tv[SamplerKind.GIBBS] < 0.02
        and tv[SamplerKind.TREE_AUGMENTED] < 0.02
        and agree < 0.02
        and elapsed < 300
    )
    report(
        6,
        ok,
        f"TV gibbs {tv[SamplerKind.GIBBS]:.4f}, tree {tv[SamplerKind.TREE_AUGMENTED]:.4f}, "
        f"estimate gap {agree:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_stop_variant_reduces_to_plain():
    rng = np.random.default_rng(1007)
    schema = random_schema(rng, 3, max_card=3)
    worst = 0.0
    for stop_value in (0.15, 0.5):
        stopped = random_model(rng, schema, Variant.STOP_AUGMENTED)
        k = schema.num_keys
        dep = stopped.dep / stopped.dep.sum(axis=1, keepdims=True) * (1.0 - stop_value)
        stopped = LdfmModel(schema, Variant.STOP_AUGMENTED, dep, np.full(1 + k, stop_value))
        plain = LdfmModel(schema, Variant.PLAIN, stopped.dep)
        lg_stop = brute_valid_normalizer(stopped)
        lg_plain = brute_valid_normalizer(plain)
        for combo in np.ndindex(*(int(c) for c in schema.cards)):
            x = np.array(combo)
            phi_s = math.exp(brute_unnormalized_joint(stopped, x) - lg_stop)
            phi_p = math.exp(brute_unnormalized_joint(plain, x) - lg_plain)
            worst = max(worst, abs(phi_s - phi_p))
    ok = worst <= 1e-9
    report(7, ok, f"equal stop weights: normalized joints match plain (max dev {worst:.2e})")


def test_criterion_8_pipeline_beats_independence_baseline(tmp_path):
    t0 = time.perf_counter()
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    sidecar = tmp_path / "schema.json"
    model_path = tmp_path / "m.model"

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ldfm", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    cli(
        "gen-data", "--n", "8", "--samples", "5000", "--seed", "81",
        "--out", str(train_csv), "--schema", str(sidecar),
    )
    cli("gen-data", "--n", "8", "--samples", "1000", "--seed", "82", "--out", str(test_csv))
    cli(
        "train", "--data", str(train_csv), "--schema", str(sidecar),
        "--out", str(model_path), "--variant", "plain", "--iters", "30",
    )
    out = cli(
        "eval", "--model", str(model_path), "--data", str(test_csv),
        "--q-frac", "0.4", "--e-frac", "0.3", "--instances", "120",
        "--sampler", "gibbs", "--samples", "500", "--seed", "83",
    )
    mean_max = float(
        next(line for line in out.splitlines() if line.startswith("mean_max:")).split(":")[1]
    )

    schema = load_schema(sidecar)
    train_ds = load_dataset(train_csv, schema=schema)
    test_ds = load_dataset(test_csv, schema=schema)
    instances = make_query_instances(test_ds, 0.4, 0.3, 120, seed=83)
    baseline = evaluate_baseline(
        fit_independence_baseline(train_ds), instances, 0.4, 0.3
    )
    elapsed = time.perf_counter() - t0
    margin = mean_max - baseline.mean_max
    ok = margin >= 0.01 and elapsed < 900
    report(
        8,
        ok,
        f"trained mean_max {mean_max:.3f} vs independence baseline "
        f"{baseline.mean_max:.3f} (margin {margin:.3f} nats), {elapsed:.0f}s",
    )


def test_criterion_9_performance_smoke():
    rng = np.random.default_rng(1009)
    graph = rng.uniform(0.01, 1.0, size=(77, 76))[None]
    log_partition_many(graph)  # warm up
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        log_partition_many(graph)
        times.append(time.perf_counter() - t0)
    per_call = float(np.median(times))

    schema = random_schema(np.random.default_rng(1010), 20, max_card=3)
    model = make_uniform_model(schema)
    data = np.column_stack(
        [rng.integers(0, c, size=5000) for c in schema.cards]
    )
    t0 = time.perf_counter()
    e_step(model, data, workers=4)
    e_elapsed = time.perf_counter() - t0
    ok = per_call < 0.05 and e_elapsed < 60
    report(
        9,
        ok,
        f"n=76 partition {per_call * 1e3:.2f} ms/call; "
        f"5000-sample n=20 E-step {e_elapsed:.1f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ldfm", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    d1, d2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli("gen-data", "--n", "8", "--samples", "300", "--seed", "5", "--out", str(d1))
    cli("gen-data", "--n", "8", "--samples", "300", "--seed", "5", "--out", str(d2))
    gen_same = d1.read_bytes() == d2.read_bytes()

    m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
    cli("train", "--data", str(d1), "--out", str(m1), "--iters", "4", "--workers", "1")
    cli("train", "--data", str(d1), "--out", str(m2), "--iters", "4", "--workers", "4")
    train_same = m1.read_bytes() == m2.read_bytes()

    check1 = cli("check", "--n", "3", "--trials", "30", "--seed", "11")
    check2 = cli("check", "--n", "3", "--trials", "30", "--seed", "11")

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    cli("sample", "--model", str(m1), "--samples", "50", "--seed", "4", "--out", str(s1))
    cli("sample", "--model", str(m1), "--samples", "50", "--seed", "4", "--out", str(s2))
    sample_same = s1.read_bytes() == s2.read_bytes()

    def eval_metrics(path):
        out = cli(
            "eval", "--model", str(m1), "--data", str(d1),
            "--q-frac", "0.4", "--e-frac", "0.3", "--instances", "6",
            "--sampler", "tree", "--samples", "200", "--seed", "9",
        )
        # wall-clock lines vary run to run; every estimate must not
        return [line for line in out.splitlines() if not line.startswith("seconds_")]

    eval_same = eval_metrics(tmp_path) == eval_metrics(tmp_path)

    model = make_uniform_model(
        VariableSchema(tuple((f"X{i}", ("a", "b")) for i in range(6)))
    )
    rng = np.random.default_rng(1011)
    data = rng.integers(0, 2, size=(600, 6))
    serial = e_step(model, data, workers=1)
    threaded = e_step(model, data, workers=4)
    estep_same = (
        np.abs(serial.edge - threaded.edge).max() <= 1e-9
        and abs(serial.loglik - threaded.loglik) <= 1e-9
    )

    ok = gen_same and train_same and check1 == check2 and sample_same and eval_same and estep_same
    report(
        10,
        ok,
        "seeded gen-data/train/check/sample/eval outputs identical; "
        "E-step worker-count invariant",
    )
