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


def _bilinear_sample(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample at fractional coordinates with edge clamping."""
    h, w = img.shape
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    top = img[r0, c0] * (1.0 - fc) + img[r0, c1] * fc
    bottom = img[r1, c0] * (1.0 - fc) + img[r1, c1] * fc
    return top * (1.0 - fr) + bottom * fr


def _rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    h, w = img.shape
    theta = math.radians(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.mgrid[0:h, 0:w].astype(np.float64)
    dy = rr - cy
    dx = cc - cx
    src_r = cy + math.cos(theta) * dy + math.sin(theta) * dx
    src_c = cx - math.sin(theta) * dy + math.cos(theta) * dx
    return _bilinear_sample(img, src_r, src_c)


def _crop_resize(img: np.ndarray, top: float, left: float, side: float) -> np.ndarray:
    h, w = img.shape
    rr = top + (np.arange(h, dtype=np.float64) + 0.5) * side / h - 0.5
    cc = left + (np.arange(w, dtype=np.float64) + 0.5) * side / w - 0.5
    return _bilinear_sample(img, rr[:, None], cc[None, :])


def _draw_key(cfg: AugmentConfig, draw_seed) -> list[int]:
    key = [int(cfg.seed)]
    if isinstance(draw_seed, (tuple, list)):
        key.extend(int(k) for k in draw_seed)
    else:
        key.append(int(draw_seed))
    return key


def augment(pixels: np.ndarray, cfg: AugmentConfig, draw_seed) -> np.ndarray:
    """Flip, rotate, then crop-and-resize one square image.

    Deterministic in (cfg, draw_seed); the same five draws are consumed
    whether or not each transform ends up active. Returns float64.
    """
    img = np.asarray(pixels, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ContractError(f"augment expects a square image, got {img.shape}")
    if not cfg.enabled:
        return img.copy()
    rng = np.random.default_rng(np.random.SeedSequence(_draw_key(cfg, draw_seed)))
    u_flip = rng.random()
    angle = rng.uniform(-cfg.rotation_degrees, cfg.rotation_degrees)
    scale = rng.uniform(cfg.crop_scale[0], cfg.crop_scale[1])
    u_top = rng.random()
    u_left = rng.random()
    if u_flip < cfg.flip_prob:
        img = img[:, ::-1].copy()
    if angle != 0.0:
        img = _rotate(img, angle)
    side = img.shape[0] * math.sqrt(scale)
    if side != img.shape[0]:
        top = (img.shape[0] - side) * u_top
        left = (img.shape[1] - side) * u_left
        img = _crop_resize(img, top, left, side)
    return img


def make_views(sample: SliceSample, cfg: AugmentConfig, seed):
    """Two independent augmentations of one slice, sharing its metadata."""
    key = seed if isinstance(seed, (tuple, list)) else (seed,)
    view_a = augment(sample.pixels, cfg, (*key, 0))
    view_b = augment(sample.pixels, cfg, (*key, 1))
    return view_a, view_b, sample
