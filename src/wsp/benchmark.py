"""Desk-scale benchmark recipe and its experiment grid.

One place defines the configuration used by the experiment scripts and the
acceptance suite, so "the synthetic benchmark" always means the same runs:
60 volumes x 24 slices at 32x32 with 10% label noise, 30 pretraining epochs
per method, and a stratified 5-fold patient-level probe, repeated over five
shared seeds. ``run_benchmark`` runs any grid of (method, sigma) cells over
those seeds.
"""

from __future__ import annotations

from dataclasses import replace

from .data import GeneratorConfig, central_view, generate_synthetic_dataset
from .encoders import EncoderConfig
from .errors import ConfigError
from .evaluation import ProbeConfig, pretrain_and_probe
from .losses import LossConfig
from .training import OptimConfig

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)
BENCHMARK_METHODS = ("random", "infonce", "supcon", "depth_aware", "wsp")
BENCHMARK_SIGMA = 0.1
BENCHMARK_TAU = 0.2
BENCHMARK_LR = 1e-3
BENCHMARK_EPOCHS = 30
BENCHMARK_BATCH = 32
BENCHMARK_CELLS = tuple((kind, BENCHMARK_SIGMA) for kind in BENCHMARK_METHODS)


def benchmark_generator(**overrides) -> GeneratorConfig:
    cfg = GeneratorConfig(n_volumes=60, slices_per_volume=24, height=32, width=32, noise_rate=0.1)
    return replace(cfg, **overrides) if overrides else cfg


def benchmark_dataset(seed: int, **generator_overrides):
    """Generated volumes with the central 70% of slices retained."""
    _, volumes = generate_synthetic_dataset(benchmark_generator(**generator_overrides), seed)
    return central_view(volumes)


def benchmark_encoder(seed: int) -> EncoderConfig:
    return EncoderConfig(seed=seed)


def benchmark_optim(kind: str, seed: int, sigma: float = BENCHMARK_SIGMA) -> OptimConfig:
    return OptimConfig(
        lr=BENCHMARK_LR,
        epochs=BENCHMARK_EPOCHS,
        batch_size=BENCHMARK_BATCH,
        loss=LossConfig(tau=BENCHMARK_TAU, sigma=sigma, loss_kind=kind),
        seed=seed,
    )


def run_benchmark(
    seeds=BENCHMARK_SEEDS, cells=BENCHMARK_CELLS, keep_checkpoints=("random", "wsp"), **generator_overrides
):
    """Pretrain + probe every (method, sigma) cell on each seed's dataset, generated once with ``generator_overrides``.

    A cell listed twice runs once; "random" probes the untrained encoder and ignores its sigma.
    Returns ``auc[cell][seed]`` (fold-mean patient AUC), ``volumes[seed]``, and
    ``checkpoints[cell][seed]`` for the cells whose method is in ``keep_checkpoints``.
    """
    if not seeds:
        raise ConfigError("seed list must not be empty")
    cells = list(dict.fromkeys(cells))
    for kind, sigma in cells:  # reject a bad cell before any run
        if kind != "random":
            benchmark_optim(kind, 0, sigma)
    results = {
        "auc": {cell: {} for cell in cells},
        "volumes": {},
        "checkpoints": {cell: {} for cell in cells if cell[0] in keep_checkpoints},
    }
    for seed in seeds:
        volumes = benchmark_dataset(seed, **generator_overrides)
        results["volumes"][seed] = volumes
        for kind, sigma in cells:
            optim = None if kind == "random" else benchmark_optim(kind, seed, sigma)
            ckpt, report = pretrain_and_probe(volumes, benchmark_encoder(seed), optim, ProbeConfig(seed=seed))
            results["auc"][(kind, sigma)][seed] = report.mean_auc_patient
            if kind in keep_checkpoints:
                results["checkpoints"][(kind, sigma)][seed] = ckpt
    return results
