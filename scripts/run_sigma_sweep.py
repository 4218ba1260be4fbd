#!/usr/bin/env python3
"""Bandwidth robustness study: pretrain + probe the depth-weighted loss for
each sigma on the benchmark dataset, with shared seeds across cells. A bad
--sigmas or --seeds list is a usage error (exit 2)."""

import argparse
import sys

import numpy as np

from wsp.benchmark import BENCHMARK_SEEDS, run_benchmark
from wsp.cli import parse_list, run_with_exit_code
from wsp.errors import write_csv
from wsp.evaluation import DEFAULT_SWEEP_SIGMAS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigmas", default=",".join(str(s) for s in DEFAULT_SWEEP_SIGMAS))
    parser.add_argument("--seeds", default=",".join(str(s) for s in BENCHMARK_SEEDS))
    parser.add_argument("--out", default=None, help="optional CSV output path")
    args = parser.parse_args(argv)
    sigmas = parse_list(args.sigmas, "--sigmas", float)
    seeds = parse_list(args.seeds, "--seeds", int)

    auc = run_benchmark(seeds=seeds, cells=[("wsp", sigma) for sigma in sigmas], keep_checkpoints=())["auc"]
    rows = []
    for (_, sigma), by_seed in auc.items():
        aucs = [by_seed[s] for s in seeds]
        rows.append((sigma, float(np.mean(aucs)), float(np.std(aucs))))
    for sigma, mean, std in rows:
        print(f"sigma={sigma}: AUC {mean:.3f} +- {std:.3f}")

    if args.out:
        write_csv(args.out, ("sigma", "auc_mean", "auc_std"), rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run_with_exit_code(main))
