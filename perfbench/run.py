"""ldfm benchmark: train, Gibbs-eval and tree-eval workloads through the CLI.

    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload eval-gibbs-n8 --seed 1 --seconds 20 --trace 1

Run from anywhere inside a checkout that holds ``src/ldfm``; the package is
imported from that checkout, never from an installed copy.  With
``--workload all`` each workload runs in a fresh Python process of its own.
The untraced run (``--trace 0``) gives the end-to-end metrics; the traced
run (``--trace 1``) alternates untraced and traced pipeline passes and gives
the per-layer metrics and the tracing overhead.  Records and spans go to
``.bench_out/`` in the checkout.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
# peak_rss_mb is read after this many timed commands.  The thread pools'
# freed memory stays in per-thread malloc arenas, so the high-water mark
# creeps up with every command; a fixed count keeps it independent of how
# many commands fit in a run.
RSS_REPS = 3

# The metrics printed by name for each workload they apply to.
PRINTED = {
    "setup_s": "s",
    "cpu_ms_per_item": "ms",
    "train_rows_per_s": "rows/s",
    "queries_per_s": "instances/s",
    "ess_per_s": "draws/s",
    "cll_abs_err": "nats/query-var",
    "peak_rss_mb": "MiB",
    "error_rate": "fraction",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload_names() -> list[str]:
    return [w["name"] for w in _spec()["workloads"]]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*_workload_names(), "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_checkout_ldfm():
    src = ROOT / "src"
    if not (src / "ldfm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ldfm sources under {src}")
    sys.path.insert(0, str(src))
    import ldfm

    if not Path(ldfm.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported ldfm from {ldfm.__file__}, not from {src}")


# ``workloads`` and ``estimators`` import ldfm, so they are imported inside
# functions that run after _import_checkout_ldfm has put src/ on the path.


def _untraced(w, seed, seconds, out, ops):
    import workloads

    cli = workloads.Cli(ops)
    setup_walls, setup_cpus, setup_scaled, digests = [], [], [], []

    def set_up():
        start = time.perf_counter()
        files, cpu, scaled = clock.measure(lambda: w.setup(cli, out / f"setup{len(setup_walls)}", seed))
        setup_walls.append(time.perf_counter() - start)
        setup_cpus.append(cpu)
        setup_scaled.append(scaled)
        digests.append(workloads.digest(files))

    clock = environment.ReferenceClock()
    set_up()
    work = out / "setup0"
    w.warmup(cli, work, seed)
    gc.collect()
    # The other set-ups are spread over the timed phase, so that setup_s
    # samples the machine at the same moments as the timed command does.
    # Only the timed commands count towards the run length.
    runs, timed_cpus, timed_scaled, timed_s = [], [], [], 0.0
    jiffies = environment.cpu_jiffies()
    while len(runs) < max(w.quality_reps, RSS_REPS) or timed_s < seconds:
        while len(setup_walls) < w.setup_reps and timed_s >= len(setup_walls) / w.setup_reps * seconds:
            set_up()
        run, cpu, scaled = clock.measure(lambda: w.timed(cli, work, seed, len(runs)))
        runs.append(run)
        timed_cpus.append(cpu)
        timed_scaled.append(scaled)
        timed_s += runs[-1].wall_s
        if len(runs) == RSS_REPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_walls) < w.setup_reps:
        set_up()
    ops.check("set-up writes identical files on every repetition", len(set(digests)) == 1)
    steal = environment.steal_share(jiffies, environment.cpu_jiffies())

    metrics = w.score(ops, work, seed, runs, w.replay(work, seed, w.quality_reps))
    # The gated times are the process's CPU time, summed over its threads
    # and scaled by the reference kernel (environment.ReferenceClock).  On a
    # shared virtual machine the wall time also counts the time the
    # hypervisor gives to other guests, and the speed of a CPU follows what
    # the host's other tenants run; both swing from one run to the next.
    # train_rows_per_s, queries_per_s and ess_per_s stay on wall time.
    metrics["cpu_ms_per_item"] = 1e3 * statistics.median(timed_scaled) / metrics.pop("items_per_command")
    metrics["setup_s"] = statistics.median(setup_scaled)
    metrics["peak_rss_mb"] = peak_rss_mb
    timings = {"setup_walls_s": setup_walls, "setup_cpu_s": setup_cpus, "setup_scaled_s": setup_scaled,
               "timed_walls_s": [r.wall_s for r in runs], "timed_cpu_s": timed_cpus,
               "timed_scaled_s": timed_scaled, "reference_kernel_s": clock.kernel_s,
               "steal_share": steal}
    return metrics, timings


def _pipeline_pass(w, ops, work, seed, traced: bool):
    """Set-up plus the first quality_reps timed commands; when traced, each
    phase gets its own tracer so layer metrics can tell them apart."""
    import workloads

    tracers = (tracing.Tracer(), tracing.Tracer()) if traced else (None, None)

    def hooks(tracer):
        return tracer.installed() if tracer else contextlib.nullcontext()

    start = time.perf_counter()
    with hooks(tracers[0]):
        w.setup(workloads.Cli(ops, tracers[0]), work, seed)
    with hooks(tracers[1]):
        cli = workloads.Cli(ops, tracers[1])
        runs = [w.timed(cli, work, seed, rep) for rep in range(w.quality_reps)]
    return time.perf_counter() - start, runs, tracers


def _traced(w, seed, seconds, out, ops):
    plain_walls, traced_walls, per_pass, dumps = [], [], [], []
    first_runs = None
    jiffies = environment.cpu_jiffies()
    start = time.perf_counter()
    while not plain_walls or time.perf_counter() - start < seconds:
        k = len(plain_walls)
        wall, runs, _ = _pipeline_pass(w, ops, out / f"pass{k}-plain", seed, traced=False)
        plain_walls.append(wall)
        first_runs = first_runs or runs
        wall, _, (setup_t, timed_t) = _pipeline_pass(w, ops, out / f"pass{k}-traced", seed, traced=True)
        traced_walls.append(wall)
        per_pass.append(tracing.layer_metrics(setup_t.spans, timed_t.spans))
        dumps.append({"setup": setup_t.dump(), "timed": timed_t.dump()})
    steal = environment.steal_share(jiffies, environment.cpu_jiffies())

    work = out / "pass0-plain"
    scored = w.score(ops, work, seed, first_runs, w.replay(work, seed, w.quality_reps))
    metrics = {name: statistics.median([p[name] for p in per_pass]) for name in per_pass[0]}
    metrics["sampling.ess_per_draw"] = scored.get("ess_per_draw", 0.0)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(plain_walls)
    for name, value in per_pass[0].items():
        if name.endswith((".calls", ".items")):
            ops.check(f"trace: {name} repeats exactly on every pass",
                      all(p[name] == value for p in per_pass))
    with open(out / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(dumps, fh)
    timings = {"plain_pass_walls_s": plain_walls, "traced_pass_walls_s": traced_walls,
               "steal_share": steal, "absent": sorted(set(setup_t.absent) | set(timed_t.absent))}
    return metrics, timings


def run_one(args) -> int:
    env = environment.collect(ROOT)
    if environment.oversubscribed(env):
        print(f"perfbench: os.cpu_count()={env['cpu_count']} exceeds the "
              f"{env['affinity_count']} CPUs this process may use; refusing to run",
              file=sys.stderr)
        return 2
    spec = _spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(x["why"] for x in spec["workloads"] if x["name"] == args.workload)
    _import_checkout_ldfm()
    os.environ["LDFM_LOG"] = "info"  # train's iter= lines are parsed
    import estimators
    import workloads

    w = workloads.WORKLOADS[args.workload]
    out = OUT_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workloads.Ops()
    ops.check("self-check: Geyer ESS on a seeded AR(1) sequence", *estimators.self_check_ess(args.seed))
    ops.check("self-check: enumeration CLL equals oracle.exact_conditional",
              *estimators.self_check_exact(args.seed))

    print(f"[{w.name}] seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    metrics, timings, error = {}, {}, None
    try:
        run = _traced if args.trace else _untraced
        metrics, timings = run(w, args.seed, args.seconds, out, ops)
    except workloads.CommandFailed as exc:
        error = str(exc)
        print(error, file=sys.stderr)
    metrics["error_rate"] = ops.failed / ops.attempted

    for entry in ops.log:
        if not entry["ok"]:
            print(f"FAILED {entry['op']}: {entry['detail']}")
    if timings.get("steal_share") is not None:
        print(f"cpu steal while measuring: {timings['steal_share']:.1%} (not a metric; "
              "time the hypervisor gave to other guests)")
    if "setup_walls_s" in timings:
        print(f"wall medians: set-up {statistics.median(timings['setup_walls_s']):.6g} s, "
              f"timed command {statistics.median(timings['timed_walls_s']):.6g} s "
              "(setup_s and cpu_ms_per_item are scaled CPU time)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {wanted.get(name) or PRINTED.get(name, '')}".rstrip())
    else:
        for name, unit in PRINTED.items():
            if name in metrics:
                print(f"{name} = {metrics[name]:.6g} {unit}")
        if "baseline_margin" in metrics:
            met = metrics["baseline_margin"] >= workloads.BASELINE_MARGIN
            print(f"baseline_margin = {metrics['baseline_margin']:.6g} nats/query-var "
                  f"(stderr {metrics['baseline_margin_stderr']:.3g}; criterion-8 rule "
                  f"{'met' if met else 'not met'})")

    result = {
        "correct": ops.failed == 0 and error is None,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted.items() if n in metrics},
    }
    record = {"workload": w.name, "why": why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics, "timings": timings,
              "operations": ops.log, "error": error, "result": result}
    (out / "record.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0 if error is None else 1


def run_all(args) -> int:
    results, code = {}, 0
    for name in _workload_names():
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    done = [r for r in results.values() if r]
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "workloads": results,
    }))
    return code


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
