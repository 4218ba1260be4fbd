"""Replay-byte pins: the recipes whose checkpoints are hashed, the platform fingerprint and the recorded goldens.

Run as a script, ``python pins.py {prefetch,serial}`` pretrains every recipe of ``RECIPES`` and prints one JSON
line: ``{"spare_cpu": ..., "digests": {recipe: sha256 of its checkpoint}}``. ``serial`` first pins the process to
one CPU, so that ``pretrain`` makes every batch on the calling thread; ``prefetch`` leaves the affinity alone, so
that with a spare CPU it makes each next batch on its worker thread. Run it with ``OPENBLAS_NUM_THREADS=1``:
checkpoint bytes depend on the BLAS thread count.

GEMM kernels differ by CPU, numpy and BLAS, so each golden holds on the platform of its fingerprint only. To record
the goldens of a new platform, run ``pytest -s tests/test_byte_pins.py tests/test_acceptance.py``; on a platform
without goldens both modules print the fingerprint and the values to add to ``CHECKPOINT_GOLDENS`` and
``GRID_AUC_GOLDENS``.
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial

import numpy as np

from wsp.benchmark import BENCHMARK_CONFIG
from wsp.cli import load_run_config, sweep_plan
from wsp.data import GeneratorConfig, central_view, generate_synthetic_dataset
from wsp.encoders import EncoderConfig, save_checkpoint
from wsp.losses import DENOMINATOR_CONVENTIONS, LOSS_KINDS, LossConfig
from wsp.training import OptimConfig, _spare_cpu, pretrain

AUC_TOLERANCE = 1e-12


def fingerprint() -> str:
    """The platform that checkpoint bytes depend on: numpy's version, its BLAS and the CPU features numpy reports."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 keeps no BLAS record
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    cpu = " ".join(sorted(name for name, found in __cpu_features__.items() if found))
    return f"numpy {np.__version__}; blas {blas}; cpu {cpu}"


# The reference platform of the ROADMAP's measurements: numpy 2.4 on a 2-core x86-64 VM with AVX-512.
_REFERENCE = (
    "numpy 2.4.6; blas scipy-openblas 0.3.31.188.0; cpu AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD "
    "AVX512DQ AVX512F AVX512FP16 AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI AVX512VPOPCNTDQ AVX512_CLX "
    "AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT MMX MOVBE POPCNT SSE SSE2 "
    "SSE3 SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4"
)

# Fingerprint -> {recipe: sha256 of its checkpoint at one BLAS thread}.
CHECKPOINT_GOLDENS = {
    _REFERENCE: {
        "canonical": "3aa099cbe67d69761e2e1d95c3f56a78eb38a587cdf4e9b8564910871b3fc791",
        "wide": "bd4c188ffc71d097e7c368bfa891cb012cf54404ed156c21736a1324a4cdff3e",
        "wsp-exclude_anchor": "c9b6af91588e295a684651a0864751f9fc2f226a29b37b1f7cf0f31c2944f71c",
        "wsp-literal_paper": "6138905d1c8f4800879da66ecd3983107794a60cf230bff83fce6128cf591635",
        "supcon-exclude_anchor": "60489431fba709bc3a14e7a1068710978a373af454e29ce5f9a0aeb4cdb60745",
        "supcon-literal_paper": "01e67def80e5c7ba35ff69a2aed8bdc21a41e3fd5f1cc8e102ac3a1676ae7130",
        "depth_aware-exclude_anchor": "75c569cc76089da89f73ff240c9a79fa6d07ba79a5da270996983c41354d8d71",
        "depth_aware-literal_paper": "161135b4c1feef3cdd6f6555124c43d23e8675f68b5a79468164b233d89dbbb9",
        "infonce-exclude_anchor": "e53cebd5c800ab633f844b03c8ecbc9d90b9da82242b5006c2da94a1d7279305",
        "infonce-literal_paper": "5dfe3715350238c15368f1c36cd99f9a7817df77bd5aed96de46d828f68486c6",
        "sgd_momentum-no_decay": "8966248308c1fd736aba53fcee380b7ec078df0c0eebf0fb5e3070d01bc55b81",
        "fallback-batch_16": "8d50d8304986286e46da14b62652f24c58ceff66f33e7892d90b3aac0ae63bb4",
    },
}

# Fingerprint -> {(method, sigma): per-seed fold-mean patient AUCs of the acceptance grid, in seed order}. They were
# the same at one BLAS thread and at two.
GRID_AUC_GOLDENS = {
    _REFERENCE: {
        ("random", 0.1): [0.6838095238095239, 0.6809523809523809, 0.743968253968254, 0.5523809523809524,
                          0.5232142857142856],
        ("infonce", 0.1): [0.6780952380952381, 0.6095238095238096, 0.7547619047619047, 0.5190476190476191,
                           0.6592857142857143],
        ("supcon", 0.1): [0.6447619047619048, 0.776984126984127, 0.7442857142857141, 0.5857142857142857,
                          0.6694642857142858],
        ("depth_aware", 0.1): [0.8495238095238096, 0.7955555555555556, 0.8877777777777778, 0.8766666666666666,
                               0.9724999999999999],
        ("wsp", 0.1): [0.8790476190476191, 0.8004761904761905, 0.9133333333333333, 0.8655555555555555,
                       0.9785714285714284],
        ("wsp", 0.01): [0.8085714285714285, 0.7628571428571428, 0.8655555555555555, 0.838095238095238, 0.9125],
        ("wsp", 0.2): [0.7638095238095238, 0.7801587301587303, 0.9322222222222223, 0.882063492063492,
                       0.9803571428571429],
        ("wsp", 0.3): [0.7171428571428571, 0.7107936507936508, 0.7158730158730159, 0.508095238095238,
                       0.7067857142857144],
        ("wsp", 0.5): [0.7352380952380952, 0.8426984126984125, 0.7984126984126984, 0.6747619047619048,
                       0.7669642857142858],
    },
}


def _benchmark(**data):
    """The benchmark recipe's cohort of seed 0 (``data`` overrides its data section), encoder and wsp optim config."""
    record, _ = sweep_plan(load_run_config(BENCHMARK_CONFIG, "sweep"))
    volumes = generate_synthetic_dataset(replace(record["data"], **data), 0)[1]
    optim = replace(record["optim"], loss=replace(record["optim"].loss, sigma=record["sigmas"][0]))
    return central_view(volumes, record["central_fraction"]), record["encoder"], optim


def _wide():
    """The benchmark's wide_batch_mlp shape: mlp, 128 volumes, 6 epochs of batch 128 (256 views per step)."""
    volumes, _, optim = _benchmark(n_volumes=128)
    h, w = volumes[0].slices[0].pixels.shape
    return volumes, EncoderConfig(arch="mlp", input_shape=(h * w,)), replace(optim, batch_size=128, epochs=6)


def _small(batch_size=4, **optim):
    """12 volumes of 4 slices at 16x16, mlp, 2 epochs; ``optim`` overrides the optim config, ``loss`` included."""
    volumes = central_view(generate_synthetic_dataset(GeneratorConfig(12, 4, 16, 16), 0)[1])
    enc = EncoderConfig(arch="mlp", input_shape=(256,), mlp_hidden=(32,), repr_dim=16, proj_dim=8, proj_hidden=16)
    return volumes, enc, OptimConfig(lr=1e-3, epochs=2, batch_size=batch_size, **optim)


# Recipe name -> a function returning its (volumes, encoder config, optim config).
RECIPES = {
    "canonical": _benchmark,  # 60 volumes, 30 epochs of batch 32, tiny_cnn: 60 steps
    "wide": _wide,
    **{f"{kind}-{convention}": partial(_small, loss=LossConfig(loss_kind=kind, denominator_convention=convention))
       for kind in LOSS_KINDS for convention in DENOMINATOR_CONVENTIONS},
    "sgd_momentum-no_decay": partial(_small, optimizer="sgd_momentum", weight_decay=0.0),
    "fallback-batch_16": partial(_small, batch_size=16),  # 12 patients: the fallback sampler
}


def _digest(volumes, enc_cfg, optim_cfg) -> str:
    ckpt, _ = pretrain(volumes, enc_cfg, optim_cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pin.ckpt")
        save_checkpoint(ckpt, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main(path: str) -> None:
    if path == "serial":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    digests = {name: _digest(*recipe()) for name, recipe in RECIPES.items()}
    print(json.dumps({"spare_cpu": _spare_cpu(), "digests": digests}))


if __name__ == "__main__":
    main(*sys.argv[1:])
