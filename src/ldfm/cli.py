"""Command-line front end: train, eval, query, sample, gen-data, check.

Exit codes: 0 success, 1 usage error, 2 data/model error, 3 numeric
failure.  Every randomized subcommand requires an explicit --seed, and the
LDFM_LOG environment variable ({error|info|debug}, default info) controls
verbosity on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import logging
import os
import sys
import time

import numpy as np

from . import evaluation, learning, sampling
from .dataio import (
    FIXTURE_SIZES,
    Dataset,
    DatasetFormatError,
    ModelFormatError,
    fixture_net,
    forward_sample,
    load_dataset,
    load_model,
    load_schema,
    save_dataset,
    save_model,
    save_schema,
)
from .matrix_tree import (
    NumericConsistencyError,
    SingularLaplacianError,
    partition_and_posteriors_many,
)
from .model import MISSING, Variant
from .oracle import MAX_TREE_N, brute_partition_and_posteriors
from .rng import make_rng

CHECK_TOL = 1e-9

logger = logging.getLogger("ldfm.cli")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever sys.stderr is at emit time (survives redirection)."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LDFM_LOG", "info").lower(), logging.INFO
    )
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    root = logging.getLogger("ldfm")
    root.handlers[:] = [handler]
    root.setLevel(level)


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The command-line parser, built on first use and reused by every
    ``dispatch`` in the process (parsing leaves it unchanged)."""
    parser = _Parser(prog="ldfm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="fit a model to a dataset with EM")
    train.add_argument("--data", required=True)
    train.add_argument("--schema")
    train.add_argument("--out", required=True)
    train.add_argument("--variant", choices=_values(Variant))
    train.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int)
    train.add_argument("--tol", dest="rel_tol", metavar="TOL", type=float)
    train.add_argument("--smoothing", choices=_values(learning.Smoothing))
    train.add_argument("--eps", type=float)
    train.add_argument("--kappa", type=float)
    train.add_argument("--workers", type=int, default=os.cpu_count(), help="E-step threads")
    train.set_defaults(**dataclasses.asdict(learning.TrainConfig()))

    ev = sub.add_parser("eval", help="estimate query metrics on a test dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--q-frac", type=float, default=0.4)
    ev.add_argument("--e-frac", type=float, default=0.3)
    ev.add_argument("--instances", type=int, default=1000)
    _add_sampler_flags(ev)
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--out")

    query = sub.add_parser("query", help="estimate one conditional probability")
    query.add_argument("--model", required=True)
    query.add_argument("--query", required=True, help="VAR=VALUE[,VAR=VALUE...]")
    query.add_argument("--evidence", default="", help="VAR=VALUE[,VAR=VALUE...]")
    _add_sampler_flags(query)
    query.add_argument("--seed", type=int, required=True)

    sample = sub.add_parser("sample", help="draw unconditional samples from a model")
    sample.add_argument("--model", required=True)
    sample.add_argument("--out", required=True)
    _add_sampler_flags(sample, kinds=False)
    sample.add_argument("--seed", type=int, required=True)
    sample.set_defaults(sampler=sampling.SamplerKind.TREE_AUGMENTED)

    gen = sub.add_parser("gen-data", help="sample a dataset from a built-in network")
    gen.add_argument("--n", type=int, required=True, choices=FIXTURE_SIZES)
    gen.add_argument("--samples", type=int, default=5000)
    gen.add_argument("--out", required=True)
    gen.add_argument("--schema", help="also write the schema sidecar here")
    gen.add_argument("--seed", type=int, required=True)

    check = sub.add_parser("check", help="compare fast numerics against enumeration")
    check.add_argument("--n", type=int, default=4)
    check.add_argument("--trials", type=int, default=100)
    check.add_argument("--seed", type=int, required=True)
    return parser


def _add_sampler_flags(p: argparse.ArgumentParser, kinds: bool = True) -> None:
    """The chain flags (``--sampler`` if ``kinds``), defaulting to ``SamplerConfig()``."""
    if kinds:
        p.add_argument("--sampler", choices=_values(sampling.SamplerKind))
    p.add_argument("--samples", type=int)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--chains", type=int)
    p.set_defaults(**dataclasses.asdict(sampling.SamplerConfig()))


def _values(kind) -> list[str]:
    """The values of the enum ``kind``, in order: a flag's choices."""
    return [member.value for member in kind]


def _config(cls, args):
    """The config class ``cls`` built from the parsed flags named after its fields."""
    return cls(**{field.name: getattr(args, field.name) for field in dataclasses.fields(cls)})


def _parse_bindings(schema, text: str) -> np.ndarray:
    out = np.full(schema.n, MISSING, dtype=np.int64)
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise DatasetFormatError(f"binding {item!r} is not VAR=VALUE")
        name, label = item.split("=", 1)
        var = schema.var_index(name.strip())
        if out[var] != MISSING:
            raise DatasetFormatError(f"variable {name.strip()} is bound more than once")
        out[var] = schema.value_index(var, label.strip())
    return out


def _check_out(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would raise if
    it is a directory or its directory is missing, without touching it, so
    that a command fails before its work rather than after."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        os.stat(os.path.join(os.path.dirname(path), "."))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _cmd_train(args) -> int:
    if args.workers is not None and args.workers < 1:  # None: os.cpu_count() unknown
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    _check_out(args.out)
    schema = load_schema(args.schema) if args.schema else None
    dataset = load_dataset(args.data, schema=schema)
    if schema is None:
        for name, dom in dataset.schema.variables:
            if len(dom) == 1:
                logger.warning(
                    "variable %s takes only the value %r in %s, so the model knows "
                    "no other value for it; pass --schema to declare its full domain",
                    name,
                    dom[0],
                    args.data,
                )
    config = _config(learning.TrainConfig, args)
    t0 = time.perf_counter()
    model, trace = learning.train_em(dataset.rows, dataset.schema, config, workers=args.workers)
    logger.info(
        "trained %d iterations in %.2fs (final ll %.6f)",
        len(trace) - 1,
        time.perf_counter() - t0,
        trace[-1].loglik,
    )
    save_model(model, args.out)
    return 0


def _cmd_eval(args) -> int:
    if args.out:
        _check_out(args.out)
    model = load_model(args.model)
    dataset = load_dataset(args.data, schema=model.schema)
    instances = evaluation.make_query_instances(
        dataset, args.q_frac, args.e_frac, args.instances, args.seed
    )
    report = evaluation.evaluate(
        model,
        instances,
        _config(sampling.SamplerConfig, args),
        q_frac=args.q_frac,
        e_frac=args.e_frac,
    )
    text = evaluation.format_report(report)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_query(args) -> int:
    model = load_model(args.model)
    schema = model.schema
    query = _parse_bindings(schema, args.query)
    evidence = _parse_bindings(schema, args.evidence)
    instance = sampling.QueryInstance(query=query, evidence=evidence)
    draws = sampling.run_chains(model, evidence, _config(sampling.SamplerConfig, args), [args.seed])
    prob = float(np.exp(sampling.estimate_cll(draws[0], instance)))
    sys.stdout.write(f"probability: {prob:.6f}\n")
    return 0


def _cmd_sample(args) -> int:
    _check_out(args.out)
    model = load_model(args.model)
    evidence = np.full(model.schema.n, MISSING)
    draws = sampling.run_chains(model, evidence, _config(sampling.SamplerConfig, args), [args.seed])
    save_dataset(Dataset(model.schema, draws[0]), args.out)
    return 0


def _cmd_gen_data(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    net = fixture_net(args.n)
    dataset = forward_sample(net, args.samples, args.seed)
    save_dataset(dataset, args.out)
    if args.schema:
        save_schema(dataset.schema, args.schema)
    return 0


def _cmd_check(args) -> int:
    if not 1 <= args.n <= MAX_TREE_N:
        raise ValueError(f"--n must be between 1 and {MAX_TREE_N}, got {args.n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = make_rng(args.seed)
    n = args.n
    worst_logz = 0.0
    worst_post = 0.0
    for _ in range(args.trials):
        w = rng.uniform(0.01, 1.0, size=(n + 1, n))
        logz, post = partition_and_posteriors_many(w[None])
        brute_logz, brute_post = brute_partition_and_posteriors(w)
        err = abs(float(logz[0]) - brute_logz) / max(abs(brute_logz), 1.0)
        worst_logz = max(worst_logz, err)
        worst_post = max(worst_post, float(np.abs(post[0] - brute_post).max()))
    ok = worst_logz < CHECK_TOL and worst_post < CHECK_TOL
    sys.stdout.write(
        f"check n={n} trials={args.trials} seed={args.seed} "
        f"max_rel_logz_err={worst_logz:.3e} max_abs_post_err={worst_post:.3e} "
        f"{'PASS' if ok else 'FAIL'} (tolerance {CHECK_TOL:g})\n"
    )
    return 0 if ok else 3


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "query": _cmd_query,
    "sample": _cmd_sample,
    "gen-data": _cmd_gen_data,
    "check": _cmd_check,
}


def dispatch(argv: list[str]) -> int:
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:  # train takes no seed
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (SingularLaplacianError, NumericConsistencyError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except KeyError as exc:  # str() would quote the message
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    except (DatasetFormatError, ModelFormatError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
