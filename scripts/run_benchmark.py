#!/usr/bin/env python3
"""Full evaluation loop on the built-in ground-truth networks.

For each network: synthesize train/test data, fit both model variants with
EM, then score query instances at several query/evidence splits with both
samplers, against the independence baseline.  Prints one table per
training-set size.  Sized to finish in minutes by default; raise --instances
and --samples for tighter estimates.
"""

import argparse
import sys
import time

from ldfm.dataio import fixture_net, forward_sample
from ldfm.evaluation import (
    evaluate,
    evaluate_baseline,
    fit_independence_baseline,
    make_query_instances,
)
from ldfm.learning import Smoothing, TrainConfig, train_em
from ldfm.model import Variant
from ldfm.sampling import SamplerConfig, SamplerKind

SPLITS = ((0.4, 0.3), (0.3, 0.2), (0.3, 0.4), (0.2, 0.3))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nets", type=int, nargs="+", default=[8, 11], choices=[8, 11, 20])
    parser.add_argument("--train-sizes", type=int, nargs="+", default=[5000, 500])
    parser.add_argument("--test-size", type=int, default=1000)
    parser.add_argument("--instances", type=int, default=60)
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--iters", type=int, default=30)
    parser.add_argument("--workers", type=int, default=4, help="E-step threads")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    for train_size in args.train_sizes:
        print(f"\n=== {train_size} training rows, {args.instances} instances/split ===")
        header = ["net", "split(q/e)", "baseline"]
        header += [f"{v}-{s}" for v in ("plain", "stop") for s in ("gibbs", "tree")]
        print("  ".join(f"{h:>12}" for h in header))
        for n in args.nets:
            net = fixture_net(n)
            train = forward_sample(net, train_size, seed=args.seed)
            test = forward_sample(net, args.test_size, seed=args.seed + 1)
            models = {}
            for variant in (Variant.PLAIN, Variant.STOP_AUGMENTED):
                t0 = time.time()
                models[variant], trace = train_em(
                    train.rows,
                    net.schema,
                    TrainConfig(
                        smoothing=Smoothing.ADDITIVE,
                        eps=0.1,
                        max_iters=args.iters,
                        variant=variant,
                    ),
                    workers=args.workers,
                )
                print(
                    f"# trained {variant.value} on net{n}: ll/row "
                    f"{trace[-1].loglik / train_size:.3f} in {time.time() - t0:.1f}s",
                    file=sys.stderr,
                )
            baseline = fit_independence_baseline(train)
            for q_frac, e_frac in SPLITS:
                instances = make_query_instances(
                    test, q_frac, e_frac, args.instances, seed=args.seed + 2
                )
                cells = [f"net{n}", f"{q_frac:.0%}/{e_frac:.0%}"]
                cells.append(
                    f"{evaluate_baseline(baseline, instances, q_frac, e_frac).mean_max:.3f}"
                )
                for variant in (Variant.PLAIN, Variant.STOP_AUGMENTED):
                    for kind in (SamplerKind.GIBBS, SamplerKind.TREE_AUGMENTED):
                        config = SamplerConfig(
                            sampler=kind, samples=args.samples, seed=args.seed + 3
                        )
                        rep = evaluate(models[variant], instances, config, q_frac, e_frac)
                        cells.append(f"{rep.mean_max:.3f}")
                print("  ".join(f"{c:>12}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
