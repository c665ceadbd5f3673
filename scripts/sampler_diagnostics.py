#!/usr/bin/env python3
"""Convergence study: sampler total-variation distance versus sample count.

Trains a small model, computes the exact posterior over the non-evidence
variables by enumeration, then tracks how fast each sampler's empirical
distribution approaches it.  Useful for picking burn-in and sample budgets.
"""

import argparse
import sys

import numpy as np

from ldfm.dataio import GroundTruthNet, forward_sample
from ldfm.learning import Smoothing, TrainConfig, train_em
from ldfm.model import MISSING, VariableSchema
from ldfm.oracle import exact_conditional
from ldfm.sampling import SamplerConfig, SamplerKind, run_chains


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vars", type=int, default=3)
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--budgets", type=int, nargs="+", default=[500, 2000, 8000, 32000])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    n = args.vars
    schema = VariableSchema(tuple((f"X{i}", ("a", "b")) for i in range(n)))
    cpt = np.array([[0.8, 0.2], [0.2, 0.8]])
    net = GroundTruthNet(
        schema,
        ((),) + tuple((i - 1,) for i in range(1, n)),
        (np.array([[0.5, 0.5]]),) + tuple(cpt.copy() for _ in range(1, n)),
    )
    data = forward_sample(net, args.rows, seed=args.seed)
    model, _ = train_em(
        data.rows,
        schema,
        TrainConfig(smoothing=Smoothing.ADDITIVE, eps=0.1, max_iters=25),
    )

    evidence = np.full(n, MISSING, dtype=np.int64)
    evidence[n - 1] = 0
    free = list(range(n - 1))
    states = [tuple(s) for s in np.ndindex(*(2,) * len(free))]
    exact = np.array(
        [
            exact_conditional(
                model,
                np.array([s[free.index(i)] if i in free else MISSING for i in range(n)]),
                evidence,
            )
            for s in states
        ]
    )
    seeds = [args.seed + seed for seed in range(args.seeds)]
    print(f"{'sampler':>8} {'samples':>8} {'mean TV':>9}")
    for kind in SamplerKind:
        for budget in args.budgets:
            tvs = []
            # one row per seed; a row's draws do not depend on the rows beside it
            config = SamplerConfig(sampler=kind, samples=budget)
            for samples in run_chains(model, np.tile(evidence, (len(seeds), 1)), config, seeds):
                emp = np.array(
                    [
                        np.mean(np.all(samples[:, free] == np.array(s)[None, :], axis=1))
                        for s in states
                    ]
                )
                tvs.append(0.5 * np.abs(emp - exact).sum())
            print(f"{kind.value:>8} {budget:>8} {np.mean(tvs):>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
