"""The benchmark recipe: ``benchmark.json``, the run-config of ``wsp sweep`` that runs the method comparison.

The builders below give the recipe's configs to code that runs its pieces on
their own, such as the benchmark harness. They read the file with ``wsp
sweep``'s own reader, so the recipe's values have one copy.
"""

from __future__ import annotations

import os
from dataclasses import replace

from .cli import load_run_config, sweep_plan
from .data import GeneratorConfig
from .encoders import EncoderConfig
from .training import OptimConfig

BENCHMARK_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "benchmark.json")

_RECORD, _ = sweep_plan(load_run_config(BENCHMARK_CONFIG, "sweep"))
BENCHMARK_BATCH = _RECORD["optim"].batch_size


def benchmark_generator(**overrides) -> GeneratorConfig:
    return replace(_RECORD["data"], **overrides)


def benchmark_encoder(seed: int) -> EncoderConfig:
    return replace(_RECORD["encoder"], seed=seed)


def benchmark_optim(kind: str, seed: int) -> OptimConfig:
    """The optim config of the recipe's run of loss ``kind`` at its first sigma on ``seed``."""
    optim = _RECORD["optim"]
    return replace(optim, loss=replace(optim.loss, loss_kind=kind, sigma=_RECORD["sigmas"][0]), seed=seed)
