import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from ldfm import evaluation, learning, sampling
from ldfm.cli import _config, _parser, dispatch
from ldfm.dataio import _payload_checksum, load_dataset, load_model, save_model
from ldfm.model import LdfmModel, Variant, VariableSchema, make_uniform_model


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "check", "--n", "3", "--seed", "1", "--bogus")
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_missing_required_seed_exits_one(capsys):
    code, _, err = run(capsys, "check", "--n", "3")
    assert code == 1
    assert "--seed" in err


def test_usage_error_after_a_successful_call_exits_one(capsys):
    assert run(capsys, "check", "--n", "2", "--trials", "2", "--seed", "1")[0] == 0
    code, out, err = run(capsys, "check", "--n", "3")
    assert code == 1
    assert out == ""
    assert "--seed" in err


def test_repeated_dispatch_prints_what_fresh_processes_print(capsys, monkeypatch):
    # the parser is built once per process; reusing it must not change a
    # later command's output, including after a usage error
    argvs = [
        ("check", "--n", "3", "--trials", "5", "--seed", "4"),
        ("check", "--n", "3", "--bogus"),
        ("check", "--n", "4", "--trials", "2", "--seed", "2"),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    in_process = [run(capsys, *argv) for argv in argvs]
    fresh = [
        subprocess.run([sys.executable, "-m", "ldfm", *argv], capture_output=True, text=True)
        for argv in argvs
    ]
    assert in_process == [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
    assert [code for code, _, _ in in_process] == [0, 1, 0]


SUBCOMMAND_REQUIRED = {
    "train": ["--data", "d.csv", "--out", "m.model"],
    "eval": ["--model", "m.model", "--data", "d.csv", "--seed", "0"],
    "query": ["--model", "m.model", "--query", "X1=T", "--seed", "0"],
    "sample": ["--model", "m.model", "--out", "s.csv", "--seed", "0"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_REQUIRED)
def test_subcommand_defaults_are_the_configs(command):
    args = _parser().parse_args([command, *SUBCOMMAND_REQUIRED[command]])
    if command == "train":
        assert _config(learning.TrainConfig, args) == learning.TrainConfig()
    else:
        # sample has no --sampler flag and always runs the tree sampler
        sampler = "tree" if command == "sample" else "gibbs"
        assert _config(sampling.SamplerConfig, args) == sampling.SamplerConfig(sampler=sampler)


def test_check_passes_and_reports_errors(capsys):
    code, out, _ = run(capsys, "check", "--n", "4", "--trials", "50", "--seed", "7")
    assert code == 0
    assert "max_rel_logz_err" in out
    assert "PASS" in out


def test_check_output_is_reproducible(capsys):
    _, out1, _ = run(capsys, "check", "--n", "3", "--trials", "20", "--seed", "9")
    _, out2, _ = run(capsys, "check", "--n", "3", "--trials", "20", "--seed", "9")
    assert out1 == out2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--n", "0"), "--n must be between 1 and 8, got 0"),
        (("--n", "9"), "--n must be between 1 and 8, got 9"),
        (("--n", "3", "--trials", "0"), "--trials must be at least 1, got 0"),
        (("--n", "3", "--trials", "-2"), "--trials must be at least 1, got -2"),
    ],
)
def test_check_rejects_out_of_range_n_and_trials(capsys, flags, message):
    code, out, err = run(capsys, "check", *flags, "--seed", "1")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_gen_data_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    # zero rows would write a header-only file that train and eval reject
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "gen-data", "--n", "8", "--samples", samples, "--out", str(out),
                       "--seed", "1")
    assert code == 2
    assert f"--samples must be at least 1, got {samples}" in err
    assert not out.exists()


SEEDED_COMMANDS = {
    "eval": ("--model", "m.model", "--data", "d.csv"),
    "query": ("--model", "m.model", "--query", "A=T"),
    "sample": ("--model", "m.model", "--out", "s.csv"),
    "gen-data": ("--n", "8", "--out", "d.csv"),
    "check": ("--n", "3"),
}


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_negative_seed_exits_two_and_names_the_flag(tmp_path, monkeypatch, capsys, command):
    # the seed is checked before any file is read or written
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, *SEEDED_COMMANDS[command], "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed must be at least 0, got -1" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_data_writes_rows_and_sidecar(tmp_path, capsys):
    data = tmp_path / "d.csv"
    schema = tmp_path / "s.json"
    code, _, _ = run(
        capsys,
        "gen-data", "--n", "8", "--samples", "100", "--seed", "3",
        "--out", str(data), "--schema", str(schema),
    )
    assert code == 0
    ds = load_dataset(data)
    assert len(ds) == 100
    assert json.loads(schema.read_text())["format_version"] == 1


def test_train_writes_model_and_progress_lines(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "200", "--seed", "4", "--out", str(data))
    model_path = tmp_path / "m.model"
    code, _, err = run(
        capsys,
        "train", "--data", str(data), "--out", str(model_path),
        "--variant", "plain", "--iters", "3", "--workers", "1",
    )
    assert code == 0
    assert model_path.exists()
    assert "iter=0 ll=" in err
    assert "iter=3 ll=" in err
    model = load_model(model_path)
    assert model.variant is Variant.PLAIN


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_train_rejects_workers_below_one(tmp_path, capsys, workers):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "50", "--seed", "4", "--out", str(data))
    model_path = tmp_path / "m.model"
    code, _, err = run(
        capsys,
        "train", "--data", str(data), "--out", str(model_path), "--iters", "1",
        "--workers", workers,
    )
    assert code == 2
    assert f"--workers must be at least 1, got {workers}" in err
    assert not model_path.exists()


def test_train_stop_variant(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "150", "--seed", "4", "--out", str(data))
    model_path = tmp_path / "m.model"
    code, _, _ = run(
        capsys,
        "train", "--data", str(data), "--out", str(model_path),
        "--variant", "stop", "--iters", "2",
    )
    assert code == 0
    assert load_model(model_path).variant is Variant.STOP_AUGMENTED


def test_train_is_reproducible_bytes(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "150", "--seed", "6", "--out", str(data))
    m1, m2 = tmp_path / "m1.model", tmp_path / "m2.model"
    run(capsys, "train", "--data", str(data), "--out", str(m1), "--iters", "3")
    run(capsys, "train", "--data", str(data), "--out", str(m2), "--iters", "3")
    assert m1.read_bytes() == m2.read_bytes()


def test_eval_reports_fields(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "120", "--seed", "8", "--out", str(data))
    model_path = tmp_path / "m.model"
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "2")
    report_path = tmp_path / "report.txt"
    code, out, _ = run(
        capsys,
        "eval", "--model", str(model_path), "--data", str(data),
        "--q-frac", "0.4", "--e-frac", "0.3", "--instances", "4",
        "--sampler", "tree", "--samples", "150", "--seed", "12",
        "--out", str(report_path),
    )
    assert code == 0
    for field in ("instances: 4", "q_frac: 0.4", "mean_cll:", "mean_max:", "seconds_infer:"):
        assert field in out
    assert report_path.read_text() == out


def test_query_prints_probability(tmp_path, capsys):
    data = tmp_path / "d.csv"
    sidecar = tmp_path / "s.json"
    run(
        capsys,
        "gen-data", "--n", "8", "--samples", "120", "--seed", "2",
        "--out", str(data), "--schema", str(sidecar),
    )
    model_path = tmp_path / "m.model"
    run(
        capsys,
        "train", "--data", str(data), "--schema", str(sidecar),
        "--out", str(model_path), "--iters", "2",
    )
    code, out, _ = run(
        capsys,
        "query", "--model", str(model_path),
        "--query", "V1=yes", "--evidence", "V0=no",
        "--sampler", "tree", "--samples", "300", "--seed", "5",
    )
    assert code == 0
    prob = float(out.split(":")[1])
    assert 0.0 < prob < 1.0


def test_sample_writes_dataset(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "120", "--seed", "2", "--out", str(data))
    model_path = tmp_path / "m.model"
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "2")
    out_path = tmp_path / "samples.csv"
    code, _, _ = run(
        capsys,
        "sample", "--model", str(model_path), "--samples", "40",
        "--seed", "13", "--out", str(out_path),
    )
    assert code == 0
    ds = load_dataset(out_path)
    assert len(ds) == 40


# Seeded outputs of the one-chain-at-a-time sampler (numpy 2.4 with OpenBLAS
# 0.3.31); running every chain of a block together must reproduce them byte
# for byte.  Another LAPACK build may round a log joint differently and flip
# a Gibbs draw.
PINNED_EVAL = {
    ("gibbs", "plain", "1"): ("-0.084925", "-0.097284", "-0.084844"),
    ("gibbs", "stop", "3"): ("-0.080272", "-0.084745", "-0.079853"),
    ("tree", "plain", "2"): ("-0.080451", "-0.090893", "-0.080040"),
    ("tree", "stop", "2"): ("-0.065517", "-0.071979", "-0.065306"),
}
PINNED_SAMPLE_SHA256 = "912022e01f10f40777f7d46bb4c082a71ed1b02d833a54feb5a7bde7fd4480d6"
# The same pins on the mixed-cardinality (2-6 values) n=20 network, the one
# built-in network where a value grid padded to the largest domain has cells
# outside some variable's domain.
PINNED_EVAL_N20 = ("-0.550840", "-0.760937", "-0.550840")
PINNED_SAMPLE_N20_SHA256 = "5fd04695d0a93192b4f77b4e586dcd36265077509ba516db57ac6d12fc4e9c8d"


def test_seeded_eval_and_sample_outputs_are_pinned(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "120", "--seed", "8", "--out", str(data))
    for variant in ("plain", "stop"):
        run(
            capsys, "train", "--data", str(data), "--out", str(tmp_path / f"{variant}.model"),
            "--iters", "2", "--variant", variant,
        )
    for (sampler, variant, chains), (cll, cmll, mx) in PINNED_EVAL.items():
        code, out, _ = run(
            capsys,
            "eval", "--model", str(tmp_path / f"{variant}.model"), "--data", str(data),
            "--instances", "5", "--sampler", sampler, "--samples", "40", "--burn-in", "10",
            "--thin", "2", "--chains", chains, "--seed", "12",
        )
        assert code == 0
        kept = "".join(line for line in out.splitlines(True) if not line.startswith("seconds_"))
        assert kept == (
            "instances: 5\nq_frac: 0.4\ne_frac: 0.3\n"
            f"mean_cll: {cll}\nmean_cmll: {cmll}\nmean_max: {mx}\n"
        ), (sampler, variant, chains)
    out_path = tmp_path / "samples.csv"
    code, _, _ = run(
        capsys,
        "sample", "--model", str(tmp_path / "stop.model"), "--samples", "40",
        "--chains", "3", "--thin", "2", "--seed", "13", "--out", str(out_path),
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == PINNED_SAMPLE_SHA256

    data, schema, model = tmp_path / "d20.csv", tmp_path / "s20.json", tmp_path / "m20.model"
    run(capsys, "gen-data", "--n", "20", "--samples", "120", "--seed", "20",
        "--out", str(data), "--schema", str(schema))
    run(capsys, "train", "--data", str(data), "--schema", str(schema), "--out", str(model),
        "--iters", "2")
    assert sorted(set(load_model(model).schema.cards)) == [2, 3, 4, 6]
    code, out, _ = run(
        capsys,
        "eval", "--model", str(model), "--data", str(data), "--instances", "4",
        "--sampler", "tree", "--samples", "40", "--burn-in", "40", "--thin", "2",
        "--chains", "2", "--seed", "21",
    )
    assert code == 0
    kept = "".join(line for line in out.splitlines(True) if not line.startswith("seconds_"))
    cll, cmll, mx = PINNED_EVAL_N20
    assert kept == (
        "instances: 4\nq_frac: 0.4\ne_frac: 0.3\n"
        f"mean_cll: {cll}\nmean_cmll: {cmll}\nmean_max: {mx}\n"
    )
    code, _, _ = run(
        capsys,
        "sample", "--model", str(model), "--samples", "30", "--chains", "2", "--thin", "2",
        "--burn-in", "40", "--seed", "22", "--out", str(out_path),
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == PINNED_SAMPLE_N20_SHA256


def test_log_level_env_var_silences_progress(tmp_path, capsys, monkeypatch):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "100", "--seed", "4", "--out", str(data))
    monkeypatch.setenv("LDFM_LOG", "error")
    code, _, err = run(
        capsys, "train", "--data", str(data), "--out", str(tmp_path / "m.model"), "--iters", "2"
    )
    assert code == 0
    assert "iter=" not in err


def test_train_warns_about_one_valued_inferred_domains(tmp_path, capsys, monkeypatch):
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    run(
        capsys, "gen-data", "--n", "8", "--samples", "300", "--seed", "8",
        "--out", str(data), "--schema", str(schema),
    )
    train = ("train", "--data", str(data), "--out", str(tmp_path / "m.model"), "--iters", "2")
    code, _, err = run(capsys, *train)
    assert code == 0
    warnings = [line for line in err.splitlines() if "takes only the value" in line]
    assert len(warnings) == 1
    assert "variable V2 takes only the value 'yes'" in warnings[0]
    assert "--schema" in warnings[0]

    code, _, err = run(capsys, *train, "--schema", str(schema))
    assert code == 0
    assert "takes only the value" not in err

    monkeypatch.setenv("LDFM_LOG", "error")
    code, _, err = run(capsys, *train)
    assert code == 0
    assert err == ""


def test_debug_log_reports_distinct_e_step_rows(tmp_path, capsys, monkeypatch):
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    run(
        capsys, "gen-data", "--n", "8", "--samples", "300", "--seed", "8",
        "--out", str(data), "--schema", str(schema),
    )
    train = (
        "train", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp_path / "m.model"), "--iters", "2",
    )
    _, _, err = run(capsys, *train)
    assert "distinct rows" not in err
    monkeypatch.setenv("LDFM_LOG", "debug")
    _, _, err = run(capsys, *train)
    assert "e-step over 14 distinct rows of 300\n" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope.csv"), "--out", "x")
    assert code == 2
    assert "error" in err


def forbid_work(monkeypatch):
    """Make training, evaluation and sampling fail the test if they start."""

    def ran(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(learning, "train_em", ran)
    monkeypatch.setattr(evaluation, "evaluate", ran)
    monkeypatch.setattr(sampling, "run_chains", ran)


@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--data", "{data}", "--out", "{dir}", "--iters", "1"),
        ("train", "--data", "{data}", "--schema", "{dir}", "--out", "{out}"),
        ("eval", "--model", "{model}", "--data", "{dir}", "--seed", "1"),
        (
            "eval", "--model", "{model}", "--data", "{data}", "--out", "{dir}",
            "--instances", "1", "--samples", "5", "--seed", "1",
        ),
        ("query", "--model", "{dir}", "--query", "V1=a", "--seed", "1"),
        ("gen-data", "--n", "8", "--samples", "5", "--out", "{dir}", "--seed", "1"),
        ("sample", "--model", "{model}", "--out", "{dir}", "--samples", "5", "--seed", "1"),
    ],
    ids=[
        "train-out", "train-schema", "eval-data", "eval-out", "query-model", "gen-data-out",
        "sample-out",
    ],
)
def test_directory_as_a_path_argument_exits_two(tmp_path, capsys, monkeypatch, argv):
    data, model_path = tmp_path / "d.csv", tmp_path / "m.model"
    run(capsys, "gen-data", "--n", "8", "--samples", "40", "--seed", "3", "--out", str(data))
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "1")
    forbid_work(monkeypatch)
    paths = {"data": data, "model": model_path, "dir": tmp_path, "out": tmp_path / "o.model"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert "error: [Errno" in err and str(tmp_path) in err
    # the path is checked before the work: no EM iteration, no eval report
    assert "iter=" not in err and "trained" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("train", "--data", "{data}", "--out", "{out}", "--iters", "1"),
        ("eval", "--model", "{model}", "--data", "{data}", "--out", "{out}", "--seed", "1"),
        ("sample", "--model", "{model}", "--out", "{out}", "--seed", "1"),
    ],
    ids=["train", "eval", "sample"],
)
def test_out_in_a_missing_directory_exits_two_before_the_work(tmp_path, capsys, monkeypatch, argv):
    data, model_path = tmp_path / "d.csv", tmp_path / "m.model"
    run(capsys, "gen-data", "--n", "8", "--samples", "40", "--seed", "3", "--out", str(data))
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "1")
    forbid_work(monkeypatch)
    out_path = tmp_path / "missing" / "o"
    paths = {"data": data, "model": model_path, "out": out_path}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"
    assert out == ""


def test_failed_train_leaves_an_existing_out_file_untouched(tmp_path, capsys):
    data, out_path = tmp_path / "d.csv", tmp_path / "m.model"
    data.write_text("A,B\nx,y\nx\n", encoding="utf-8")
    out_path.write_text("keep\n", encoding="utf-8")
    code, _, err = run(capsys, "train", "--data", str(data), "--out", str(out_path))
    assert code == 2 and "expected 2 fields" in err
    assert out_path.read_text(encoding="utf-8") == "keep\n"


# sha256 of `gen-data --samples 500 --seed 31` at each fixture size
GEN_DATA_SHA256 = {
    8: "750a2abf3c4149b4c753ad6bc9237c60dd56df222b630538b16272ecb0281085",
    11: "bf3d3668c0142eef8dc76d77b13f8f0f4f1c765b9a8ead353c12fc3b7069b5ec",
    20: "0c2d9aeb7349d75c30401d6d704950a5724ec7e0e9c0559ec32b23220c84a49c",
}


@pytest.mark.parametrize("n", sorted(GEN_DATA_SHA256))
def test_gen_data_bytes_are_pinned(tmp_path, capsys, n):
    data = tmp_path / "d.csv"
    code, _, _ = run(capsys, "gen-data", "--n", str(n), "--samples", "500", "--seed", "31",
                     "--out", str(data))
    assert code == 0
    assert hashlib.sha256(data.read_bytes()).hexdigest() == GEN_DATA_SHA256[n]


def test_bad_query_binding_exits_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "100", "--seed", "2", "--out", str(data))
    model_path = tmp_path / "m.model"
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "1")
    code, _, _ = run(
        capsys,
        "query", "--model", str(model_path), "--query", "NOPE=yes", "--seed", "1",
    )
    assert code == 2


def two_binary_model_file(tmp_path):
    path = tmp_path / "m.model"
    save_model(make_uniform_model(VariableSchema((("X1", ("T", "F")), ("X2", ("T", "F"))))), path)
    return path


@pytest.mark.parametrize(
    "bindings, bad",
    [(("--query", "X1"), "X1"), (("--query", "X1=T", "--evidence", "X2=F,X2"), "X2")],
    ids=["query", "evidence"],
)
def test_binding_without_an_equals_sign_exits_two(tmp_path, capsys, bindings, bad):
    model_path = two_binary_model_file(tmp_path)
    code, out, err = run(capsys, "query", "--model", str(model_path), *bindings, "--seed", "1")
    assert code == 2
    assert out == ""
    assert f"binding {bad!r} is not VAR=VALUE" in err


@pytest.mark.parametrize(
    "bindings, message",
    [
        (("--query", "X9=T"), "unknown variable 'X9'"),
        (("--query", "X1=T", "--evidence", "X2=maybe"), "unknown value 'maybe' for variable 'X2'"),
    ],
    ids=["query-variable", "evidence-value"],
)
def test_unknown_binding_prints_its_message_unquoted(tmp_path, capsys, bindings, message):
    model_path = two_binary_model_file(tmp_path)
    code, out, err = run(capsys, "query", "--model", str(model_path), *bindings, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_query_without_evidence_estimates_the_marginal(tmp_path, capsys):
    # on the uniform model every assignment is equally likely
    model_path = two_binary_model_file(tmp_path)
    code, out, _ = run(
        capsys, "query", "--model", str(model_path), "--query", "X1=T",
        "--samples", "400", "--seed", "3",
    )
    assert code == 0
    assert abs(float(out.split(":")[1]) - 0.5) < 0.1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sample", "--out", "s.csv", "--samples", "0"), "samples must be at least 1, got 0"),
        (("eval", "--data", "d.csv", "--chains", "0"), "chains must be at least 1, got 0"),
        (("query", "--query", "X1=T", "--thin", "0"), "thin must be at least 1, got 0"),
        (("eval", "--data", "d.csv", "--burn-in", "-1"), "burn_in must be at least 0, got -1"),
    ],
    ids=["sample-samples", "eval-chains", "query-thin", "eval-burn-in"],
)
def test_sampler_setting_out_of_range_exits_two_naming_it(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    two_binary_model_file(tmp_path)
    (tmp_path / "d.csv").write_text("X1,X2\nT,F\n")
    command, *flags = argv
    code, out, err = run(capsys, command, "--model", "m.model", *flags, "--seed", "1")
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "bindings",
    [("--query", "X1=T,X1=F"), ("--query", "X1=T", "--evidence", "X2=F, X2=T")],
)
def test_variable_bound_twice_exits_two(tmp_path, capsys, bindings):
    schema = VariableSchema((("X1", ("T", "F")), ("X2", ("T", "F"))))
    model_path = tmp_path / "m.model"
    save_model(make_uniform_model(schema), model_path)
    code, out, err = run(capsys, "query", "--model", str(model_path), *bindings, "--seed", "1")
    assert code == 2
    assert out == ""
    twice = "X1" if len(bindings) == 2 else "X2"
    assert f"variable {twice} is bound more than once" in err


def test_impossible_evidence_exits_three(tmp_path, capsys):
    # model in which X1 can only ever take its first value: evidence X1=F
    # leaves every candidate assignment with zero weight
    schema = VariableSchema((("X1", ("T", "F")), ("X2", ("T", "F"))))
    base = make_uniform_model(schema)
    dep = base.dep.copy()
    col_f = schema.col_of(0, 1)
    dep[:, col_f] = 0.0
    model = LdfmModel(schema, Variant.PLAIN, dep)
    model_path = tmp_path / "m.model"
    save_model(model, model_path)
    with pytest.warns(RuntimeWarning):
        code = dispatch(
            [
                "query", "--model", str(model_path),
                "--query", "X2=T", "--evidence", "X1=F",
                "--sampler", "gibbs", "--samples", "50", "--seed", "1",
            ]
        )
    assert code == 3


def test_query_on_nan_model_exits_two(tmp_path, capsys):
    schema = VariableSchema((("X1", ("T", "F")), ("X2", ("T", "F"))))
    model_path = tmp_path / "m.model"
    save_model(make_uniform_model(schema), model_path)
    doc = json.loads(model_path.read_text())
    doc["payload"]["weights"]["X1"]["T"]["X2"]["F"] = float("nan")
    doc["checksum"] = _payload_checksum(doc["payload"])
    model_path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "query", "--model", str(model_path), "--query", "X2=T", "--evidence", "X1=T",
        "--sampler", "gibbs", "--samples", "50", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def _root_weights_as_list(payload):
    payload["root_weights"] = list(payload["root_weights"].values())


def _list_valued_weight(payload):
    by_label = next(iter(next(iter(next(iter(payload["weights"].values())).values())).values()))
    label = next(iter(by_label))
    by_label[label] = [by_label[label]]


@pytest.mark.parametrize(
    "edit",
    [_root_weights_as_list, _list_valued_weight, lambda payload: payload.pop("variables")],
    ids=["root-weights-list", "list-weight", "no-variables"],
)
def test_query_on_malformed_model_payload_exits_two(tmp_path, capsys, edit):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "120", "--seed", "8", "--out", str(data))
    model_path = tmp_path / "m.model"
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "1")
    doc = json.loads(model_path.read_text())
    first = doc["payload"]["variables"][0]
    binding = f"{first['name']}={first['domain'][0]}"
    edit(doc["payload"])
    doc["checksum"] = _payload_checksum(doc["payload"])
    model_path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "query", "--model", str(model_path), "--query", binding,
        "--sampler", "gibbs", "--samples", "20", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert str(model_path) in err


@pytest.mark.parametrize(
    "doc",
    [
        [{"name": "A", "domain": ["x", "y"]}],
        {"format_version": 1},
        {"format_version": 1, "variables": [{"name": "A", "domain": "xz"}]},
        {"format_version": 1, "variables": [{"name": "A", "domain": ["x", "x"]}]},
    ],
    ids=["top-level-list", "no-variables", "string-domain", "duplicate-labels"],
)
def test_train_on_malformed_schema_sidecar_exits_two(tmp_path, capsys, doc):
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    data.write_text("A\nx\nz\n")
    schema.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "train", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp_path / "m.model"), "--iters", "1",
    )
    assert code == 2
    assert out == ""
    assert str(schema) in err
    assert "Traceback" not in err


def test_eval_with_zero_instances_exits_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "60", "--seed", "8", "--out", str(data))
    model_path = tmp_path / "m.model"
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "1")
    code, out, err = run(
        capsys,
        "eval", "--model", str(model_path), "--data", str(data), "--instances", "0",
        "--sampler", "gibbs", "--samples", "20", "--seed", "1",
    )
    assert code == 2
    assert "nan" not in out
    assert "instance count" in err


@pytest.mark.parametrize(
    "flags",
    [("--q-frac", "nan"), ("--e-frac", "nan"), ("--q-frac", "inf")],
    ids=["q-nan", "e-nan", "q-inf"],
)
def test_eval_rejects_non_finite_fractions(tmp_path, capsys, flags):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "40", "--seed", "4", "--out", str(data))
    model_path = tmp_path / "m.model"
    run(capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "1")
    code, out, err = run(
        capsys,
        "eval", "--model", str(model_path), "--data", str(data), "--instances", "2",
        "--samples", "5", "--seed", "1", *flags,
    )
    assert code == 2
    assert out == ""
    assert "q_frac and e_frac must be finite" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--eps", "nan"), "eps must be finite, got nan"),
        (("--eps", "inf"), "eps must be finite, got inf"),
        (("--kappa", "nan", "--smoothing", "sparsity"), "kappa must be finite, got nan"),
        (("--tol", "nan"), "rel_tol must be finite, got nan"),
    ],
    ids=["eps-nan", "eps-inf", "kappa-nan", "tol-nan"],
)
def test_train_rejects_non_finite_hyperparameters(tmp_path, capsys, flags, message):
    data = tmp_path / "d.csv"
    run(capsys, "gen-data", "--n", "8", "--samples", "50", "--seed", "4", "--out", str(data))
    model_path = tmp_path / "m.model"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--out", str(model_path), "--iters", "2", *flags
    )
    assert code == 2
    assert message in err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--iters", "0"), "max_iters must be at least 1, got 0"),
        (("--eps", "-1"), "eps must be at least 0, got -1.0"),
        (("--kappa", "-1"), "kappa must be at least 0, got -1.0"),
        (("--tol", "nan"), "rel_tol must be finite, got nan"),
    ],
    ids=["iters", "eps", "kappa", "tol"],
)
def test_train_setting_out_of_range_exits_two_naming_it(tmp_path, capsys, flags, message):
    data, model_path = tmp_path / "d.csv", tmp_path / "m.model"
    data.write_text("X1,X2\nT,F\nF,T\n")
    code, out, err = run(capsys, "train", "--data", str(data), "--out", str(model_path), *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("label", ["y,z", "y\nz", "y\rz"], ids=["comma", "lf", "cr"])
def test_separator_in_a_schema_label_exits_two(tmp_path, capsys, label):
    # sample would write rows that no reader can split back into fields
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    data.write_text("A,B\nx,u\ny,v\n")
    doc = {
        "format_version": 1,
        "variables": [{"name": "A", "domain": ["x", label]}, {"name": "B", "domain": ["u", "v"]}],
    }
    schema.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "train", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp_path / "m.model"), "--iters", "1",
    )
    assert (code, out) == (2, "")
    assert str(schema) in err
    assert not (tmp_path / "m.model").exists()

    model_path = tmp_path / "m2.model"
    plain_schema = VariableSchema((("A", ("x", "y")), ("B", ("u", "v"))))
    save_model(make_uniform_model(plain_schema), model_path)
    doc = json.loads(model_path.read_text())
    payload = json.loads(json.dumps(doc["payload"]).replace('"y"', json.dumps(label)))
    doc["payload"], doc["checksum"] = payload, _payload_checksum(payload)
    model_path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "sample", "--model", str(model_path), "--out", str(tmp_path / "s.csv"),
        "--samples", "5", "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert str(model_path) in err
    assert not (tmp_path / "s.csv").exists()


def test_padded_label_exits_two(tmp_path, capsys):
    # `query` strips its bindings, so a label " y" could be trained but never queried
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    data.write_text("A,B\nx,u\nx,v\n")
    doc = {
        "format_version": 1,
        "variables": [{"name": "A", "domain": ["x", " y"]}, {"name": "B", "domain": ["u", "v"]}],
    }
    schema.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "train", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp_path / "m.model"), "--iters", "1",
    )
    assert (code, out) == (2, "")
    assert str(schema) in err and "whitespace" in err
    assert not (tmp_path / "m.model").exists()

    data.write_text("A,B\nx,u\n y,v\n")
    code, out, err = run(
        capsys, "train", "--data", str(data), "--out", str(tmp_path / "m.model"), "--iters", "1",
    )
    assert (code, out) == (2, "")
    assert str(data) in err and "whitespace" in err
    assert not (tmp_path / "m.model").exists()
