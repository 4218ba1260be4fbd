#!/usr/bin/env python3
"""Run the desk-scale benchmark: five pretraining methods over five seeds,
each evaluated with a stratified 5-fold patient-level linear probe.

Prints one row per method (mean +- std over seeds) and optionally writes the
per-seed table as CSV. A bad --seeds list is a usage error (exit 2).
"""

import argparse
import sys

import numpy as np

from wsp.benchmark import BENCHMARK_SEEDS, run_benchmark
from wsp.cli import parse_list, run_with_exit_code
from wsp.errors import write_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=",".join(str(s) for s in BENCHMARK_SEEDS),
                        help="comma-separated seeds (default 0,1,2,3,4)")
    parser.add_argument("--out", default=None, help="optional CSV path for per-seed AUCs")
    args = parser.parse_args(argv)
    seeds = parse_list(args.seeds, "--seeds", int)

    auc = run_benchmark(seeds=seeds, keep_checkpoints=())["auc"]
    print(f"{'method':<12} {'AUC mean':>9} {'std':>7}  per-seed")
    for (kind, _), by_seed in auc.items():
        values = [by_seed[s] for s in seeds]
        per_seed = " ".join(f"{v:.3f}" for v in values)
        print(f"{kind:<12} {np.mean(values):>9.3f} {np.std(values):>7.3f}  {per_seed}")

    if args.out:
        rows = [(kind, s, by_seed[s]) for (kind, _), by_seed in auc.items() for s in seeds]
        write_csv(args.out, ("method", "seed", "auc_patient"), rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run_with_exit_code(main))
