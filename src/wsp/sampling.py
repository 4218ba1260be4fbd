"""Patient-balanced batch construction and the two-view augmentation pipeline.

Strict mode draws one slice per patient with class counts balanced within one;
an epoch is a shuffled partition of the cohort so every patient appears exactly
once before any repeats. The fallback sampler keeps class balance but lets
patients repeat, for cohorts smaller than the batch size.

All randomness is derived from explicit integer keys via SeedSequence, so any
draw is reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FallbackRequired, check_seed

SAMPLER_MODES = ("one_slice_per_patient", "fallback_balanced")


@dataclass(frozen=True)
class BatchSpec:
    batch_size: int = 32
    mode: str = "one_slice_per_patient"
    seed: int = 0
    epoch: int = 0

    def __post_init__(self):
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.mode not in SAMPLER_MODES:
            raise ConfigError(f"mode must be one of {SAMPLER_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class AugmentConfig:
    rotation_degrees: float = 15.0
    crop_scale: tuple = (0.7, 1.0)
    flip_prob: float = 0.5
    seed: int = 0
    enabled: bool = True

    def __post_init__(self):
        check_seed(self.seed)
        object.__setattr__(self, "crop_scale", tuple(self.crop_scale))
        if self.rotation_degrees < 0:
            raise ConfigError("rotation range must be >= 0")
        lo, hi = self.crop_scale
        if not (0 < lo <= hi <= 1):
            raise ConfigError(f"crop_scale must satisfy 0 < lo <= hi <= 1, got {self.crop_scale}")
        if not 0 <= self.flip_prob <= 1:
            raise ConfigError("flip_prob must lie in [0, 1]")


@dataclass(frozen=True)
class SliceSample:
    """One drawn slice with the metadata shared by its augmented views."""

    pixels: np.ndarray
    y: int
    d: float
    slice_id: str
    patient_id: str


def _patients_by_class(volumes, label: str):
    """Sorted map class -> sorted patient ids, plus patient -> volumes."""
    patient_volumes: dict[str, list] = {}
    for v in volumes:
        patient_volumes.setdefault(v.patient_id, []).append(v)
    classes: dict[int, list[str]] = {}
    for pid in sorted(patient_volumes):
        vol = patient_volumes[pid][0]
        value = vol.y_weak if label == "weak" else vol.y_strong
        if value is None:
            raise ContractError(f"patient {pid} lacks a {label} label")
        classes.setdefault(int(value), []).append(pid)
    return dict(sorted(classes.items())), patient_volumes


def _draw_slice(patient_volumes, pid: str, rng) -> SliceSample:
    vols = patient_volumes[pid]
    vol = vols[int(rng.integers(len(vols)))] if len(vols) > 1 else vols[0]
    if not vol.slices:
        raise ContractError(f"volume {vol.volume_id} has no retained slices")
    s = vol.slices[int(rng.integers(len(vol.slices)))]
    return SliceSample(
        pixels=s.pixels,
        y=vol.y_weak,
        d=s.d,
        slice_id=f"{vol.volume_id}/{s.p}",
        patient_id=vol.patient_id,
    )


def _balanced_quota(class_sizes: dict[int, int], n: int, rng, capped: bool) -> dict[int, int]:
    """Per-class counts summing to n, as equal as the cohort allows.

    With ``capped`` the quota may not exceed a class's size; infeasible
    balanced draws raise FallbackRequired.
    """
    labels = list(class_sizes)
    k = len(labels)
    base, extras = divmod(n, k)
    quota = {c: base for c in labels}
    if extras:
        eligible = [c for c in labels if not capped or class_sizes[c] > base]
        if len(eligible) < extras:
            raise FallbackRequired("not enough patients per class for a balanced batch")
        for idx in rng.permutation(len(eligible))[:extras]:
            quota[eligible[int(idx)]] += 1
    if capped:
        for c in labels:
            if quota[c] > class_sizes[c]:
                raise FallbackRequired(f"class {c} has only {class_sizes[c]} patients")
    return quota


def sample_batch(volumes, spec: BatchSpec, label: str = "weak") -> list[SliceSample]:
    """One strict batch: N distinct patients, class counts within one of equal."""
    classes, patient_volumes = _patients_by_class(volumes, label)
    if not classes:
        raise ContractError("dataset is empty")
    n_patients = sum(len(v) for v in classes.values())
    if spec.mode != "one_slice_per_patient":
        raise ContractError("sample_batch is the strict sampler; use sample_batch_fallback")
    if n_patients < spec.batch_size:
        raise FallbackRequired(
            f"{n_patients} patients < batch size {spec.batch_size}; use the fallback sampler"
        )
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.epoch]))
    quota = _balanced_quota({c: len(p) for c, p in classes.items()}, spec.batch_size, rng, capped=True)
    batch: list[SliceSample] = []
    for c, pids in classes.items():
        chosen = rng.choice(len(pids), size=quota[c], replace=False)
        for idx in chosen:
            batch.append(_draw_slice(patient_volumes, pids[int(idx)], rng))
    order = rng.permutation(len(batch))
    return [batch[int(i)] for i in order]


def sample_batch_fallback(volumes, spec: BatchSpec, label: str = "weak") -> list[SliceSample]:
    """Class-balanced draws with patients allowed to repeat."""
    classes, patient_volumes = _patients_by_class(volumes, label)
    if not classes:
        raise ContractError("dataset is empty")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.epoch]))
    quota = _balanced_quota({c: len(p) for c, p in classes.items()}, spec.batch_size, rng, capped=False)
    batch: list[SliceSample] = []
    for c, pids in classes.items():
        for _ in range(quota[c]):
            pid = pids[int(rng.integers(len(pids)))]
            batch.append(_draw_slice(patient_volumes, pid, rng))
    order = rng.permutation(len(batch))
    return [batch[int(i)] for i in order]


def epoch_batches(volumes, spec: BatchSpec, label: str = "weak") -> list[list[SliceSample]]:
    """Shuffled partition of all patients into batches of at most N.

    Every patient appears exactly once per epoch; per-batch class counts are
    kept as even as the remaining queue allows (exactly within one when class
    sizes are equal and N is a multiple of the class count).
    """
    classes, patient_volumes = _patients_by_class(volumes, label)
    if not classes:
        raise ContractError("dataset is empty")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.epoch]))
    queues = {c: [pids[int(i)] for i in rng.permutation(len(pids))] for c, pids in classes.items()}
    batches: list[list[SliceSample]] = []
    remaining = sum(len(q) for q in queues.values())
    while remaining:
        n_this = min(spec.batch_size, remaining)
        present = [c for c in queues if queues[c]]
        base, extras = divmod(n_this, len(present))
        quota = {c: base for c in present}
        if extras:
            eligible = [c for c in present if len(queues[c]) > base]
            if len(eligible) >= extras:
                picks = [eligible[int(i)] for i in rng.permutation(len(eligible))[:extras]]
            else:
                picks = [present[int(i)] for i in rng.permutation(len(present))[:extras]]
            for c in picks:
                quota[c] += 1
        for c in present:
            quota[c] = min(quota[c], len(queues[c]))
        deficit = n_this - sum(quota.values())
        while deficit > 0:
            slack = {c: len(queues[c]) - quota[c] for c in present}
            c_star = max(present, key=lambda c: (slack[c], -c))
            if slack[c_star] == 0:
                raise ContractError("partition bookkeeping failed")  # unreachable
            quota[c_star] += 1
            deficit -= 1
        batch = []
        for c in present:
            for _ in range(quota[c]):
                batch.append(_draw_slice(patient_volumes, queues[c].pop(0), rng))
        order = rng.permutation(len(batch))
        batches.append([batch[int(i)] for i in order])
        remaining -= n_this
    return batches


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


# Views are augmented in chunks of about this many pixels, so that each
# float64 or int64 temporary of a chunk stays in L2.
_CHUNK_PIXELS = 1 << 14


def _bilinear_stack(imgs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample each image of a k,h,w stack at fractional coordinates with edge clamping.

    ``rows`` and ``cols`` broadcast to k,h,w and are overwritten. Pixels are
    gathered with flat indices into a copy of the stack padded by its last row
    and column, so the clamped neighbour of an edge pixel is the one after it.
    The arithmetic is done in place to keep the number of temporaries down.
    """
    k, h, w = imgs.shape
    padded = np.empty((k, h + 1, w + 1))
    padded[:, :h, :w] = imgs
    padded[:, h, :w] = imgs[:, h - 1]
    padded[:, :, w] = padded[:, :, w - 1]
    fr = np.clip(rows, 0.0, h - 1.0, out=rows)
    fc = np.clip(cols, 0.0, w - 1.0, out=cols)
    r0 = fr.astype(np.int64)  # floor, as the coordinates are non-negative
    c0 = fc.astype(np.int64)
    fr -= r0
    fc -= c0
    i00 = r0 * (w + 1) + c0
    i00 += (np.arange(k) * ((h + 1) * (w + 1)))[:, None, None]
    flat = padded.reshape(-1)
    gc = 1.0 - fc
    top = flat.take(i00)
    top *= gc
    i00 += 1
    right = flat.take(i00)
    right *= fc
    top += right
    i00 += w
    bottom = flat.take(i00)
    bottom *= gc
    i00 += 1
    right = flat.take(i00, out=right)
    right *= fc
    bottom += right
    top *= 1.0 - fr
    bottom *= fr
    top += bottom
    return top


def _draw_key(cfg: AugmentConfig, draw_seed) -> list[int]:
    key = [int(cfg.seed)]
    if isinstance(draw_seed, (tuple, list)):
        key.extend(int(k) for k in draw_seed)
    else:
        key.append(int(draw_seed))
    return key


def augment_views(pixels, cfg: AugmentConfig, draw_seeds) -> np.ndarray:
    """Flip, rotate, then crop-and-resize each of n equal square images.

    View j is deterministic in (cfg, draw_seeds[j]): it consumes the same five
    draws from its own key whether or not each transform ends up active, and
    goes through the same per-pixel arithmetic whatever the other views are.
    Returns a float64 n,h,w array.
    """
    imgs = [np.asarray(p) for p in pixels]
    if not imgs or len(imgs) != len(draw_seeds):
        raise ContractError(f"augment_views needs one draw seed per view, got {len(imgs)} views")
    shape = imgs[0].shape
    for img in imgs:
        if img.shape != shape or len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
            raise ContractError(f"augment expects equal non-empty square images, got {shape} and {img.shape}")
    out = np.array(imgs, dtype=np.float64)
    if not cfg.enabled:
        return out
    h = w = shape[0]
    draws = []
    for draw_seed in draw_seeds:
        rng = np.random.default_rng(np.random.SeedSequence(_draw_key(cfg, draw_seed)))
        u_flip = rng.random()
        angle = rng.uniform(-cfg.rotation_degrees, cfg.rotation_degrees)
        scale = rng.uniform(cfg.crop_scale[0], cfg.crop_scale[1])
        u_top = rng.random()
        u_left = rng.random()
        theta = math.radians(angle)
        side = h * math.sqrt(scale)
        draws.append(
            (u_flip, angle, math.cos(theta), math.sin(theta), side, (h - side) * u_top, (w - side) * u_left)
        )
    u_flip, angle, cos, sin, side, top, left = np.array(draws).T
    flip = u_flip < cfg.flip_prob
    rotate = angle != 0.0
    crop = side != h
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.mgrid[0:h, 0:w].astype(np.float64)
    dy = rr - cy
    dx = cc - cx
    centers = np.arange(h, dtype=np.float64) + 0.5
    chunk = max(1, _CHUNK_PIXELS // (h * w))
    for lo in range(0, len(imgs), chunk):
        part = slice(lo, lo + chunk)
        view = out[part]
        sel = flip[part]
        if sel.any():
            view[sel] = view[sel][:, :, ::-1]
        sel = rotate[part]
        if sel.any():
            c = cos[part][sel][:, None, None]
            s = sin[part][sel][:, None, None]
            view[sel] = _bilinear_stack(view[sel], cy + c * dy + s * dx, cx - s * dy + c * dx)
        sel = crop[part]
        if sel.any():
            sd = side[part][sel][:, None]
            rows = top[part][sel][:, None] + centers * sd / h - 0.5
            cols = left[part][sel][:, None] + centers * sd / w - 0.5
            view[sel] = _bilinear_stack(view[sel], rows[:, :, None], cols[:, None, :])
    return out


def augment(pixels: np.ndarray, cfg: AugmentConfig, draw_seed) -> np.ndarray:
    """One view of one square image: ``augment_views`` on a batch of one."""
    return augment_views([pixels], cfg, [draw_seed])[0]


def make_views(sample: SliceSample, cfg: AugmentConfig, seed):
    """Two independent augmentations of one slice, sharing its metadata."""
    key = seed if isinstance(seed, (tuple, list)) else (seed,)
    view_a, view_b = augment_views([sample.pixels] * 2, cfg, [(*key, 0), (*key, 1)])
    return view_a, view_b, sample
