#!/usr/bin/env python3
"""Bandwidth robustness study: pretrain + probe the depth-weighted loss for
each sigma on the benchmark dataset, with shared seeds across cells."""

import argparse
import sys

import numpy as np

from wsp.benchmark import BENCHMARK_SEEDS, benchmark_dataset, benchmark_encoder, benchmark_optim
from wsp.evaluation import DEFAULT_SWEEP_SIGMAS, ProbeConfig, sigma_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigmas", default=",".join(str(s) for s in DEFAULT_SWEEP_SIGMAS))
    parser.add_argument("--seeds", default=",".join(str(s) for s in BENCHMARK_SEEDS))
    parser.add_argument("--out", default=None, help="optional CSV output path")
    args = parser.parse_args(argv)
    sigmas = [float(tok) for tok in args.sigmas.split(",") if tok.strip()]
    seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]

    # The probe seed follows the training seed, so each seed is its own sweep.
    per_seed = {sigma: [] for sigma in sigmas}
    for seed in seeds:
        for row in sigma_sweep(
            benchmark_dataset(seed),
            benchmark_encoder(seed),
            benchmark_optim("wsp", seed),
            ProbeConfig(seed=seed),
            sigmas=sigmas,
        ):
            per_seed[row.sigma].append(row.auc_mean)
    rows = [(sigma, float(np.mean(aucs)), float(np.std(aucs))) for sigma, aucs in per_seed.items()]
    for sigma, mean, std in rows:
        print(f"sigma={sigma}: AUC {mean:.3f} +- {std:.3f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("sigma,auc_mean,auc_std\n")
            for sigma, mean, std in rows:
                fh.write(f"{sigma!r},{mean!r},{std!r}\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
