"""Desk-scale benchmark recipe and its experiment grid.

One place defines the configuration used by the experiment scripts and the
acceptance suite, so "the synthetic benchmark" always means the same runs:
60 volumes x 24 slices at 32x32 with 10% label noise, 30 pretraining epochs
per method, and a stratified 5-fold patient-level probe, repeated over five
shared seeds. ``run_benchmark`` runs any grid of (method, sigma) cells over
those seeds through ``evaluation.run_grid``.
"""

from __future__ import annotations

from dataclasses import replace

from .data import GeneratorConfig, central_view, generate_synthetic_dataset
from .encoders import EncoderConfig
from .evaluation import ProbeConfig, run_grid
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


def benchmark_encoder(seed: int) -> EncoderConfig:
    return EncoderConfig(seed=seed)


def benchmark_optim(kind: str, seed: int) -> OptimConfig:
    return OptimConfig(
        lr=BENCHMARK_LR,
        epochs=BENCHMARK_EPOCHS,
        batch_size=BENCHMARK_BATCH,
        loss=LossConfig(tau=BENCHMARK_TAU, sigma=BENCHMARK_SIGMA, loss_kind=kind),
        seed=seed,
    )


def run_benchmark(
    seeds=BENCHMARK_SEEDS, cells=BENCHMARK_CELLS, keep_checkpoints=("random", "wsp"), **generator_overrides
):
    """``run_grid`` of the (method, sigma) cells over the benchmark recipe of each seed.

    Each seed's dataset is generated once, with ``generator_overrides``. Returns ``auc[cell][seed]``
    (fold-mean patient AUC), ``volumes[seed]``, and ``checkpoints[cell][seed]`` for the cells whose
    method is in ``keep_checkpoints``.
    """
    volumes = {}

    def recipe(seed):  # the generated volumes with the central 70% of slices retained
        _, generated = generate_synthetic_dataset(benchmark_generator(**generator_overrides), seed)
        volumes[seed] = central_view(generated)
        return volumes[seed], benchmark_encoder(seed), benchmark_optim("wsp", seed), ProbeConfig(seed=seed), None

    reports, checkpoints = run_grid(cells, seeds, recipe, keep_checkpoints)
    auc = {cell: {seed: rep.mean_auc_patient for seed, rep in by_seed.items()} for cell, by_seed in reports.items()}
    return {"auc": auc, "volumes": volumes, "checkpoints": checkpoints}
