"""The benchmark's workloads, each driving the ldfm CLI in-process through
``ldfm.cli.dispatch`` with the CLI's default worker count (no --workers).

A run of one workload sets up its inputs several times (setup_s is the
median), runs one untimed warm-up command, then repeats the timed command
until the run length is spent and reports the median rate.  Every CLI
command and every output check is one operation; a nonzero exit, an
exception or a failed check counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import estimators
import tracing
from ldfm import dataio, evaluation, model as ldfm_model, sampling
from ldfm.cli import dispatch

TRAIN_ROWS = 5000
TEST_ROWS = 1000
Q_FRAC = 0.4
E_FRAC = 0.3
EVAL_TRAIN_ITERS = 30
# Acceptance criterion 8 asks mean_max to beat the independence baseline by
# 0.01 nats on its pinned seeds and 120 instances.  Here the margin is
# reported with its paired standard error but not counted as a check: on 5
# of 12 data seeds tried, even the exact conditional beat the baseline by
# less than 0.01 nats over 60 instances, so a miss says nothing about
# whether the program's outputs are correct.
BASELINE_MARGIN = 0.01
PRINTED_DIGITS_TOL = 5e-7  # eval prints its means with six decimals
WARMUP_DRAWS = 20  # the eval warm-up's chains: enough to run every code path once
REFERENCE_FILE = Path(__file__).with_name("reference_ll.json")

ITER_LINE = re.compile(r"^iter=(\d+) ll=(\S+) dll=\S+$", re.M)


def derive_seed(seed: int, *tags: int) -> int:
    """A CLI seed (non-negative int) derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class CommandFailed(RuntimeError):
    pass


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    log: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.failed += not ok
        self.log.append({"op": name, "ok": bool(ok), "detail": detail})
        return ok


@dataclass(frozen=True)
class CliRun:
    stdout: str
    stderr: str
    wall_s: float


@dataclass
class Cli:
    ops: Ops
    tracer: tracing.Tracer | None = None

    def __call__(self, *argv) -> CliRun:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(tracing.DISPATCH) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                code = dispatch(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        ok = self.ops.check("ldfm " + argv[0], code == 0, f"exit {code}")
        if not ok:
            raise CommandFailed(f"ldfm {' '.join(argv)} exited {code}:\n{err.getvalue()[-2000:]}")
        return CliRun(out.getvalue(), err.getvalue(), wall)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class TrainWorkload:
    """gen-data, then a fixed EM budget timed as one `ldfm train`."""

    name: str
    n: int
    iters: int
    setup_reps: int
    quality_reps: int = 1  # every repetition trains the same model

    def setup(self, cli: Cli, work: Path, seed: int) -> list[Path]:
        work.mkdir(parents=True, exist_ok=True)
        cli("gen-data", "--n", self.n, "--samples", TRAIN_ROWS, "--seed", derive_seed(seed, 1),
            "--out", work / "train.csv", "--schema", work / "schema.json")
        return [work / "train.csv", work / "schema.json"]

    def timed(self, cli: Cli, work: Path, seed: int, rep: int) -> CliRun:
        return cli("train", "--data", work / "train.csv", "--schema", work / "schema.json",
                   "--out", work / "model.json", "--variant", "plain", "--smoothing", "additive",
                   "--tol", 0, "--iters", self.iters)

    def warmup(self, cli: Cli, work: Path, seed: int) -> None:
        cli("train", "--data", work / "train.csv", "--schema", work / "schema.json",
            "--out", work / "warmup-model.json", "--variant", "plain", "--smoothing", "additive",
            "--tol", 0, "--iters", 1)

    def replay(self, work: Path, seed: int, reps: int) -> None:
        return None

    def score(self, ops: Ops, work: Path, seed: int, runs: list[CliRun], replayed) -> dict:
        iters = [ITER_LINE.findall(r.stderr) for r in runs]
        passes = len(iters[0])
        em_iters = int(iters[0][-1][0]) if passes else -1
        final_ll = float(iters[0][-1][1]) if passes else float("nan")
        ops.check("train: em_iters equals the budget", em_iters == self.iters,
                  f"{em_iters} vs {self.iters}")
        ops.check("train: every run prints the same EM trace", all(i == iters[0] for i in iters))
        ok, detail = check_reference_ll(seed, self.n, self.iters, final_ll)
        ops.check("train: final ll matches the seed-commit reference", ok, detail)
        try:
            model = dataio.load_model(work / "model.json")
        except (dataio.ModelFormatError, OSError) as exc:
            ops.check("train: saved model loads", False, str(exc))
        else:
            ops.check("train: saved model loads", True)
            issues = ldfm_model.validate_model(model)
            ops.check("train: validate_model reports no issues", not issues, "; ".join(issues))
        items = TRAIN_ROWS * passes
        return {"train_rows_per_s": items / statistics.median([r.wall_s for r in runs]),
                "items_per_command": items}


def check_reference_ll(seed: int, n: int, iters: int, ll: float) -> tuple[bool, str]:
    """Seeds in the table must match their entry within the table's rel_tol;
    other seeds must fall in the per-row band the table's seeds span, widened
    on each side by band_slack times its width."""
    ref = json.loads(REFERENCE_FILE.read_text())
    if (ref["n"], ref["rows"], ref["iters"]) != (n, TRAIN_ROWS, iters):
        return False, "reference table was recorded for another workload shape"
    if str(seed) in ref["final_ll"]:
        want = ref["final_ll"][str(seed)]
        rel = abs(ll - want) / abs(want)
        return rel <= ref["rel_tol"], f"ll {ll:.6f} vs {want:.6f} (rel {rel:.1e}, tol {ref['rel_tol']})"
    per_row = np.array(list(ref["final_ll"].values())) / TRAIN_ROWS
    lo, hi = per_row.min(), per_row.max()
    pad = ref["band_slack"] * (hi - lo)
    got = ll / TRAIN_ROWS
    return lo - pad <= got <= hi + pad, (
        f"seed not in table: ll/row {got:.5f} vs band [{lo - pad:.5f}, {hi + pad:.5f}]"
    )


@dataclass(frozen=True)
class EvalWorkload:
    """gen-data and train (set-up), then `ldfm eval` timed per repetition.

    Repetition r draws its own query instances and chains from its own seed.
    The first ``quality_reps`` repetitions are replayed outside the timed
    phase to score the draws (ESS, exact CLL) and to check the report.
    """

    name: str
    n: int
    sampler: str
    instances: int
    draws: int
    quality_reps: int
    setup_reps: int

    def eval_seed(self, seed: int, rep: int) -> int:
        return derive_seed(seed, 3, rep)

    def warmup(self, cli: Cli, work: Path, seed: int) -> None:
        cli("eval", "--model", work / "model.json", "--data", work / "test.csv",
            "--q-frac", Q_FRAC, "--e-frac", E_FRAC, "--instances", 2,
            "--sampler", self.sampler, "--samples", WARMUP_DRAWS, "--seed", derive_seed(seed, 4))

    def setup(self, cli: Cli, work: Path, seed: int) -> list[Path]:
        work.mkdir(parents=True, exist_ok=True)
        cli("gen-data", "--n", self.n, "--samples", TRAIN_ROWS, "--seed", derive_seed(seed, 1),
            "--out", work / "train.csv", "--schema", work / "schema.json")
        cli("gen-data", "--n", self.n, "--samples", TEST_ROWS, "--seed", derive_seed(seed, 2),
            "--out", work / "test.csv")
        cli("train", "--data", work / "train.csv", "--schema", work / "schema.json",
            "--out", work / "model.json", "--variant", "plain", "--smoothing", "additive",
            "--iters", EVAL_TRAIN_ITERS)
        return [work / "train.csv", work / "schema.json", work / "test.csv", work / "model.json"]

    def timed(self, cli: Cli, work: Path, seed: int, rep: int) -> CliRun:
        return cli("eval", "--model", work / "model.json", "--data", work / "test.csv",
                   "--q-frac", Q_FRAC, "--e-frac", E_FRAC, "--instances", self.instances,
                   "--sampler", self.sampler, "--samples", self.draws,
                   "--seed", self.eval_seed(seed, rep))

    def replay(self, work: Path, seed: int, reps: int) -> list[list[dict]]:
        """Per repetition, per instance: the chain's scored draws, recomputed
        with the per-instance seeds [seed, idx] that ``evaluate`` uses."""
        model = dataio.load_model(work / "model.json")
        test = dataio.load_dataset(work / "test.csv", schema=model.schema)
        kind = sampling.SamplerKind.GIBBS if self.sampler == "gibbs" else sampling.SamplerKind.TREE_AUGMENTED
        out = []
        for rep in range(reps):
            eval_seed = self.eval_seed(seed, rep)
            config = sampling.SamplerConfig(sampler=kind, samples=self.draws, seed=eval_seed)
            rows = []
            for idx, inst in enumerate(evaluation.make_query_instances(
                    test, Q_FRAC, E_FRAC, self.instances, eval_seed)):
                draws = sampling.run_chain(model, inst, config, seed=[eval_seed, idx])
                cll = sampling.estimate_cll(draws, inst, normalize=True)
                cmll = sampling.estimate_cmll(draws, inst, model.schema.cards, normalize=True)
                rows.append({
                    "instance": inst,
                    "mean_cll": cll,
                    "mean_max": max(cll, cmll),
                    "ess": estimators.ess(estimators.match_indicator(draws, inst)),
                    "exact_cll": estimators.exact_log_conditional(model, inst) / inst.query_vars.size,
                })
            out.append(rows)
        return out

    def score(self, ops: Ops, work: Path, seed: int, runs: list[CliRun], replayed) -> dict:
        reps = self.quality_reps
        reports = [_parse_report(r.stdout) for r in runs[:reps]]
        for rep, (report, rows) in enumerate(zip(reports, replayed)):
            for key in ("mean_cll", "mean_max"):
                mine = float(np.mean([row[key] for row in rows]))
                ops.check(f"eval rep {rep}: replayed draws reproduce the printed {key}",
                          abs(mine - report[key]) <= PRINTED_DIGITS_TOL,
                          f"{mine:.7f} vs printed {report[key]:.6f}")

        flat = [row for rows in replayed for row in rows]
        train = dataio.load_dataset(work / "train.csv", schema=dataio.load_schema(work / "schema.json"))
        base = evaluation.evaluate_baseline(
            evaluation.fit_independence_baseline(train), [row["instance"] for row in flat],
            Q_FRAC, E_FRAC,
        )
        margin = float(np.mean([r["mean_max"] for r in reports])) - base.mean_max
        paired = np.array([row["mean_max"] for row in flat]) - np.array(base.per_max)
        stderr = float(paired.std(ddof=1) / np.sqrt(len(paired)))

        ess_total = sum(row["ess"] for row in flat)
        return {
            "queries_per_s": self.instances / statistics.median([r.wall_s for r in runs]),
            "items_per_command": self.instances,
            "ess_per_s": ess_total / sum(r.wall_s for r in runs[:reps]),
            "cll_abs_err": float(np.mean([abs(row["mean_cll"] - row["exact_cll"]) for row in flat])),
            "ess_per_draw": ess_total / (len(flat) * self.draws),
            "baseline_margin": margin,
            "baseline_margin_stderr": stderr,
        }


def _parse_report(text: str) -> dict:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return {k: float(v) for k, v in fields.items()}


# Sizes: one timed eval repetition takes ~1.5-3 s on 2 CPUs and a train
# repetition ~3.5-5 s, so a run's median covers ten or more evals and six
# or more trainings; each workload's reason is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(name="train-n20", n=20, iters=20, setup_reps=15),
        EvalWorkload(name="eval-gibbs-n8", n=8, sampler="gibbs", instances=4, draws=200,
                     quality_reps=3, setup_reps=3),
        EvalWorkload(name="eval-tree-n11", n=11, sampler="tree", instances=8, draws=500,
                     quality_reps=3, setup_reps=3),
    )
}
