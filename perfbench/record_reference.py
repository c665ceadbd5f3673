"""Records the final EM log-likelihood of train-n20 for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0 40 > perfbench/reference_ll.json

The table pins the train-n20 output check to the commit it was recorded
at: seeds in the table must reproduce their value within ``rel_tol``, and
other seeds must land in the per-row band the table spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import environment
import run

run._import_checkout_ldfm()
import workloads  # noqa: E402  (needs the checkout's ldfm on sys.path)

REL_TOL = 1e-9
BAND_SLACK = 0.5  # of the band's width, on each side


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "END"), required=True)
    args = p.parse_args()
    os.environ["LDFM_LOG"] = "info"
    w = workloads.WORKLOADS["train-n20"]
    cli = workloads.Cli(workloads.Ops())
    table = {}
    for seed in range(*args.seeds):
        work = run.OUT_ROOT / "reference" / str(seed)
        w.setup(cli, work, seed)
        lines = workloads.ITER_LINE.findall(w.timed(cli, work, seed, 0).stderr)
        table[str(seed)] = float(lines[-1][1])
        print(seed, table[str(seed)], file=sys.stderr, flush=True)
    json.dump({"commit": environment.collect(run.ROOT)["git_commit"], "n": w.n,
               "rows": workloads.TRAIN_ROWS, "iters": w.iters, "rel_tol": REL_TOL,
               "band_slack": BAND_SLACK, "final_ll": table}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
