"""Pretraining loop: optimizer, cosine schedule, epoch orchestration.

The whole run is a deterministic function of (dataset, encoder seed, trainer
seed): epoch partitions, slice draws and augmentation draws all derive their
randomness from explicit (seed, epoch, batch, position) keys.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import EncoderCheckpoint, EncoderConfig, init_encoder, input_batch
from .errors import ConfigError, ContractError, NonFiniteError, check_fields, size_rule
from .losses import BatchMeta, LossConfig, compute_loss
from .sampling import AugmentConfig, BatchSpec, SliceSample, augment_views, epoch_batches

OPTIMIZERS = ("adaptive_moments", "sgd_momentum")


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-4
    optimizer: str = "adaptive_moments"
    epochs: int = 30
    batch_size: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9

    def __post_init__(self):
        check_fields(
            self, lr="(0, inf)", weight_decay="[0, inf)", optimizer=OPTIMIZERS, epochs=size_rule(1),
            batch_size=size_rule(2), beta1="[0, 1)", beta2="[0, 1)", eps="(0, inf)", momentum="[0, 1)",
        )
        if not self.lr * self.weight_decay < 1:
            raise ConfigError("lr * weight_decay must be < 1, so that the decay factor stays positive")
        if self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even, got {self.batch_size}")


def cosine_lr(step: int, total_steps: int, lr: float) -> float:
    """Half-cosine decay from lr at step 0 to 0 at total_steps."""
    if total_steps < 1:
        raise ContractError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class OptimState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_optim_state(params: dict[str, Tensor]) -> OptimState:
    state = OptimState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def optimizer_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimState,
    cfg: OptimConfig,
    lr_t: float,
) -> None:
    """One in-place update with decoupled weight decay.

    Decay multiplies each parameter by (1 - lr_t * weight_decay) before the
    gradient update, so zero-gradient steps shrink parameters geometrically.
    """
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    t = state.step + 1
    decay = 1.0 - lr_t * cfg.weight_decay
    for name, p in params.items():
        g = grads[name]
        p.data *= decay  # exactly 1.0 at weight_decay 0
        if cfg.optimizer == "adaptive_moments":
            m = state.m[name]
            v = state.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            p.data -= lr_t * m_hat / (np.sqrt(v_hat) + cfg.eps)
        else:
            vel = state.m[name]
            vel *= cfg.momentum
            vel += g
            p.data -= lr_t * vel
    state.step = t


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    lr: float


def _assemble_batch(batch: list[SliceSample], aug_cfg: AugmentConfig, key, enc_cfg: EncoderConfig):
    """Two views per slice, augmented as one stack, in the encoder's input layout, with matching metadata."""
    samples = [sample for sample in batch for _ in range(2)]
    seeds = [(*key, pos, view) for pos in range(len(batch)) for view in range(2)]
    views = augment_views([s.pixels for s in samples], aug_cfg, seeds)
    meta = BatchMeta(
        [s.y for s in samples],
        [s.d for s in samples],
        [s.slice_id for s in samples],
        [s.patient_id for s in samples],
    )
    return input_batch(enc_cfg, views), meta


def _diverged(what: str, epoch: int, b_idx: int, meta: BatchMeta) -> NonFiniteError:
    """The error of a run that reached ``what`` (a non-finite value), with the batch it reached it on as ``details``."""
    err = NonFiniteError(f"{what} at epoch {epoch}, batch {b_idx}")
    err.details = {"epoch": epoch, "batch": b_idx, "slice_ids": list(meta.slice_ids),
                   "patient_ids": list(meta.patient_ids), "y": [int(v) for v in meta.y], "d": [float(v) for v in meta.d]}
    return err


def _spare_cpu() -> bool:
    """True when this process may use more CPUs than BLAS runs threads, so that a prefetch thread has a core.

    The BLAS thread count is read as OpenBLAS reads it at start-up: the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that holds a positive integer; with none, BLAS uses every usable CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return cpus > threads
    return False


def _step_inputs(volumes, enc_cfg: EncoderConfig, optim_cfg: OptimConfig, aug_cfg: AugmentConfig, mode: str):
    """Every step's ``(epoch, b_idx, x, meta)``, in order."""
    for epoch in range(optim_cfg.epochs):
        batches = epoch_batches(volumes, BatchSpec(optim_cfg.batch_size, mode, optim_cfg.seed, epoch))
        for b_idx, batch in enumerate(batches):
            yield (epoch, b_idx, *_assemble_batch(batch, aug_cfg, (optim_cfg.seed, epoch, b_idx), enc_cfg))


def _prefetch(items):
    """``items``, each made on one worker thread while the caller works on the one before.

    The first item is started by the first ``next``. An item's error is raised by the ``next`` that asks for it, as
    a serial loop would raise it. ``close`` waits for the item in flight, drops it, and closes ``items``. The worker
    runs under the caller's numpy error state.
    """
    try:
        with ThreadPoolExecutor(1, "wsp-prefetch", functools.partial(np.seterr, **np.geterr())) as pool:
            ahead = pool.submit(next, items, None)
            while (item := ahead.result()) is not None:
                ahead = pool.submit(next, items, None)
                yield item
    finally:
        items.close()


def pretrain(
    volumes,
    enc_cfg: EncoderConfig,
    optim_cfg: OptimConfig,
    aug_cfg: AugmentConfig | None = None,
):
    """Train an encoder on the given (already slice-selected) volumes.

    Returns (EncoderCheckpoint, list of per-epoch records). When a CPU is free of BLAS threads (``_spare_cpu``), each
    step's views are made on a worker thread during the step before; they depend only on their keys, so the result is
    the same bytes either way.
    """
    if aug_cfg is None:
        aug_cfg = AugmentConfig(seed=optim_cfg.seed)
    n_patients = len({v.patient_id for v in volumes})
    # With fewer patients than the batch, each epoch is one balanced batch in which patients repeat.
    mode = "one_slice_per_patient" if n_patients >= optim_cfg.batch_size else "fallback_balanced"
    steps_per_epoch = math.ceil(n_patients / optim_cfg.batch_size)
    total_iters = optim_cfg.epochs * steps_per_epoch
    inputs = _step_inputs(volumes, enc_cfg, optim_cfg, aug_cfg, mode)
    losses = []  # each step's loss, in step order
    with contextlib.closing(_prefetch(inputs) if _spare_cpu() else inputs) as stream:
        enc = init_encoder(enc_cfg)
        state = init_optim_state(enc.params)
        for global_step, (epoch, b_idx, x, meta) in enumerate(stream):
            try:
                z = enc.project(enc.encode(x))
            except NonFiniteError as exc:  # diverged parameters
                raise _diverged("non-finite projections", epoch, b_idx, meta) from exc
            loss = compute_loss(z, meta, optim_cfg.loss)
            # The previous step's gradients go now, before the backward pass, where a step peaks. Freed
            # with the rest of their step, they would let glibc's malloc hand the whole heap top back to
            # the system at every step boundary, and each step would then fault it in again.
            grads = None
            value = loss.item()
            if not math.isfinite(value):
                raise _diverged(f"non-finite loss {value}", epoch, b_idx, meta)
            lr_t = cosine_lr(global_step, total_iters, optim_cfg.lr)
            grad_map = ad.backward(loss)
            grads = {name: grad_map.wrt(p) for name, p in enc.params.items()}
            try:
                optimizer_step(enc.params, grads, state, optim_cfg, lr_t)
            except NonFiniteError as exc:  # a non-finite gradient; the message names its parameter
                raise _diverged(str(exc), epoch, b_idx, meta) from exc
            # Drop the spent step graph before the next forward pass.
            del x, z, loss, grad_map
            losses.append(value)
    # No forward pass follows the last step to catch parameters that it made non-finite.
    for name, p in enc.params.items():
        if not np.isfinite(p.data).all():
            raise _diverged(f"non-finite parameter {name!r}", epoch, b_idx, meta)
    starts = range(0, total_iters, steps_per_epoch)  # each epoch's first step
    curve = [EpochRecord(e, float(np.mean(losses[s : s + steps_per_epoch])), cosine_lr(s, total_iters, optim_cfg.lr))
             for e, s in enumerate(starts)]
    ckpt = EncoderCheckpoint.from_encoder(
        enc, step=len(losses), loss_kind=optim_cfg.loss.loss_kind, loss_sigma=optim_cfg.loss.sigma
    )
    return ckpt, curve
