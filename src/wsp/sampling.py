"""Patient-balanced batch construction and the two-view augmentation pipeline.

Every sampler balances its batches across weak classes by one rule,
``_quota``. The strict sampler draws one slice per patient and raises when the
class counts cannot be kept within one; an epoch is a shuffled partition of the
cohort so every patient appears exactly once before any repeats. The fallback
sampler lets patients repeat, for cohorts smaller than the batch size.

All randomness is derived from explicit integer keys via SeedSequence, so any
draw is reproducible in isolation. Augmentation evaluates SeedSequence and PCG64
for all views of a batch at once, with the same values numpy's per-key
generators give.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .data import slice_id
from .errors import ConfigError, ContractError, check_fields, size_rule

SAMPLER_MODES = ("one_slice_per_patient", "fallback_balanced")


@dataclass(frozen=True)
class BatchSpec:
    batch_size: Annotated[int, size_rule(2)] = 32
    mode: Annotated[str, SAMPLER_MODES] = "one_slice_per_patient"
    seed: Annotated[int, "[0, inf)"] = 0
    epoch: Annotated[int, size_rule(0)] = 0

    def __post_init__(self):
        check_fields(self)
        if self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even, got {self.batch_size}")


@dataclass(frozen=True)
class AugmentConfig:
    # At most half the largest float, so that the rotation range 2 * rotation_degrees stays finite.
    rotation_degrees: Annotated[float, f"[0, {sys.float_info.max / 2}]"] = 15.0
    crop_scale: Annotated[tuple[float, float], "(0, 1]"] = (0.7, 1.0)
    flip_prob: Annotated[float, "[0, 1]"] = 0.5
    seed: Annotated[int, "[0, inf)"] = 0
    enabled: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.crop_scale[0] > self.crop_scale[1]:
            raise ConfigError(f"crop_scale must satisfy lo <= hi, got {self.crop_scale}")


@dataclass(frozen=True)
class SliceSample:
    """One drawn slice with the metadata shared by its augmented views."""

    pixels: np.ndarray
    y: int
    d: float
    slice_id: str
    patient_id: str


def _patients_by_class(volumes):
    """Sorted map weak class -> sorted patient ids, plus patient -> volumes; ContractError for no volumes."""
    if not volumes:
        raise ContractError("dataset is empty")
    patient_volumes: dict[str, list] = {}
    for v in volumes:
        patient_volumes.setdefault(v.patient_id, []).append(v)
    classes: dict[int, list[str]] = {}
    for pid in sorted(patient_volumes):
        classes.setdefault(int(patient_volumes[pid][0].y_weak), []).append(pid)
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
        slice_id=slice_id(vol, s),
        patient_id=vol.patient_id,
    )


def _draw_batch(patient_volumes, quota: dict[int, int], pick, rng) -> list[SliceSample]:
    """Class by class, a slice of each of the ``quota[c]`` patients that ``pick(c, quota[c])`` yields, then one shuffle
    of the batch. ``pick`` yields lazily: a draw it makes per patient comes just before that patient's slice."""
    batch = [_draw_slice(patient_volumes, pid, rng) for c in quota for pid in pick(c, quota[c])]
    return [batch[int(i)] for i in rng.permutation(len(batch))]


def _quota(sizes: dict[int, int], n: int, rng) -> dict[int, int]:
    """Per-class draw counts summing to n, for classes with ``sizes`` patients; n <= sum of sizes.

    Each of the k classes gets n // k. The n mod k extra draws go to a random
    pick of the classes with room for more than n // k, or of all classes if
    too few have room. Each count is then capped at its class size, and any
    shortfall goes, one draw at a time, to the class with the most room left
    (the lowest class on ties).
    """
    base, extras = divmod(n, len(sizes))
    quota = dict.fromkeys(sizes, base)
    if extras:
        roomy = [c for c in sizes if sizes[c] > base]
        pool = roomy if len(roomy) >= extras else list(sizes)
        for idx in rng.permutation(len(pool))[:extras]:
            quota[pool[int(idx)]] += 1
    for c in sizes:
        quota[c] = min(quota[c], sizes[c])
    for _ in range(n - sum(quota.values())):
        quota[max(sizes, key=lambda c: (sizes[c] - quota[c], -c))] += 1
    return quota


def sample_batch(volumes, spec: BatchSpec) -> list[SliceSample]:
    """One strict batch: N distinct patients, class counts within one of equal."""
    classes, patient_volumes = _patients_by_class(volumes)
    n_patients = sum(len(v) for v in classes.values())
    if spec.mode != "one_slice_per_patient":
        raise ContractError("sample_batch is the strict sampler; use epoch_batches in fallback_balanced mode")
    if n_patients < spec.batch_size:
        raise ContractError(
            f"{n_patients} patients < batch size {spec.batch_size}; use epoch_batches in fallback_balanced mode"
        )
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.epoch]))
    quota = _quota({c: len(p) for c, p in classes.items()}, spec.batch_size, rng)
    if max(quota.values()) - min(quota.values()) > 1:
        raise ContractError("not enough patients per class for a balanced batch")
    return _draw_batch(patient_volumes, quota,
                       lambda c, n: (classes[c][int(i)] for i in rng.choice(len(classes[c]), n, replace=False)), rng)


def epoch_batches(volumes, spec: BatchSpec) -> list[list[SliceSample]]:
    """One epoch of batches under ``spec.mode``.

    Strict: a shuffled partition of all patients into batches of at most N,
    each batch's class counts given by ``_quota`` on what is left of each
    class. Fallback: one batch of N class-balanced draws, patients allowed to
    repeat.
    """
    classes, patient_volumes = _patients_by_class(volumes)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.epoch]))
    if spec.mode == "fallback_balanced":
        quota = _quota(dict.fromkeys(classes, spec.batch_size), spec.batch_size, rng)
        return [_draw_batch(patient_volumes, quota,
                            lambda c, n: (classes[c][int(rng.integers(len(classes[c])))] for _ in range(n)), rng)]
    queues = {c: [pids[int(i)] for i in rng.permutation(len(pids))] for c, pids in classes.items()}
    batches: list[list[SliceSample]] = []
    remaining = sum(len(q) for q in queues.values())
    while remaining:
        n_this = min(spec.batch_size, remaining)
        quota = _quota({c: len(q) for c, q in queues.items() if q}, n_this, rng)
        batches.append(_draw_batch(patient_volumes, quota, lambda c, n: (queues[c].pop(0) for _ in range(n)), rng))
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


# SeedSequence's hash constants and pool size, and PCG64's 128-bit multiplier
# (numpy.random.bit_generator and pcg64.h; both streams are fixed by NEP 19).
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
_N_DRAWS = 5


def _limbs(values: list[int]) -> tuple:
    """128-bit integers as k,1 uint64 columns: (high, low, low >> 32, low & MASK32)."""
    hi = np.array([v >> 64 for v in values], np.uint64)[:, None]
    lo = np.array([v & _MASK64 for v in values], np.uint64)[:, None]
    return hi, lo, lo >> _U32, lo & _LOW32


# Seeding PCG64 with (seed, inc) sets its state to t = seed + inc and takes one
# LCG step; each draw takes one more. So the state of draw k = 1..5 is
# MULT**(k+1) * t + (1 + MULT + ... + MULT**k) * inc, mod 2**128.
_DRAW_MULT = _limbs([_PCG_MULT ** (k + 1) & _MASK128 for k in range(1, _N_DRAWS + 1)])
_DRAW_INC = _limbs([sum(_PCG_MULT**i for i in range(k + 1)) & _MASK128 for k in range(1, _N_DRAWS + 1)])


def _key_words(cfg: AugmentConfig, draw_seed: tuple) -> list[int]:
    """The 32-bit words SeedSequence makes of the key [cfg.seed, *draw_seed], a draw seed being a tuple of integers.

    Each integer becomes its words least significant first; 0 is one word.
    """
    words = []
    for n in map(int, (cfg.seed, *draw_seed)):
        if n < 0:
            raise ContractError(f"draw seeds must be non-negative integers, got {draw_seed!r}")
        words.append(n & _MASK32)
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant before and after each of ``count`` hashmix calls.

    A count+1,1 uint32 column: init, then repeated multiplication by mult.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of k consecutive calls, one per row of ``values``.

    Row i is hashed with ``consts[i]`` and ``consts[i + 1]``; a single row of
    values broadcasts against all k calls.
    """
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> np.uint32(16))


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's 4,k pool for each column of an L,k array of entropy words.

    Runs of hashmix calls whose inputs do not depend on each other's results
    are made as one call on rows.
    """
    n_words, k = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * max(0, n_words - _POOL_SIZE))
    first = entropy[:_POOL_SIZE]
    if n_words < _POOL_SIZE:
        first = np.concatenate([first, np.zeros((_POOL_SIZE - n_words, k), np.uint32)])
    pool = _hashmix(first, consts[: _POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at : at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts[at : at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    return pool


def _mul128(hi: np.ndarray, lo: np.ndarray, const: tuple) -> tuple:
    """(hi, lo) * const mod 2**128 on uint64 limbs, for constants made by ``_limbs``.

    The high half of lo * (low limb of const) is assembled from 32-bit limbs.
    """
    c_hi, c_lo, c_lo_1, c_lo_0 = const
    a1, a0 = lo >> _U32, lo & _LOW32
    p00, p01, p10, p11 = a0 * c_lo_0, a0 * c_lo_1, a1 * c_lo_0, a1 * c_lo_1
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return carry + hi * c_lo + lo * c_hi, lo * c_lo


def _draw_values(cfg: AugmentConfig, draw_seeds) -> np.ndarray:
    """Every view's five augmentation values, computed for all views at once.

    Column j holds ``random(), uniform(-r, r), uniform(*crop_scale), random(),
    random()`` of ``default_rng(SeedSequence([cfg.seed, *draw_seeds[j]]))``,
    bit for bit. SeedSequence's pool mixing runs on the columns of keys grouped
    by word count, and its ``generate_state(4, uint64)`` gives PCG64's seed and
    increment as numpy uses them (inc = (i << 1) | 1, a step, state += seed, a
    step). The five states that follow are jumped to directly, and their
    XSL-RR outputs become doubles as ``Generator.random`` and
    ``Generator.uniform`` make them. Returns a 5,n float64 array.
    """
    groups: dict[int, tuple[list, list]] = {}
    for j, draw_seed in enumerate(draw_seeds):
        words = _key_words(cfg, draw_seed)
        views, keys = groups.setdefault(len(words), ([], []))
        views.append(j)
        keys.append(words)
    pool = np.empty((_POOL_SIZE, len(draw_seeds)), np.uint32)
    for views, keys in groups.values():
        pool[:, views] = _mix_entropy(np.array(keys, np.uint32).T)
    # generate_state(4, uint64): eight hashed pool words, paired little-endian.
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = state[0::2] | state[1::2] << _U32
    inc_hi = inc_hi << np.uint64(1) | inc_lo >> np.uint64(63)
    inc_lo = inc_lo << np.uint64(1) | np.uint64(1)
    t_lo = seed_lo + inc_lo
    t_hi = seed_hi + inc_hi + (t_lo < inc_lo)
    a_hi, a_lo = _mul128(t_hi, t_lo, _DRAW_MULT)
    b_hi, b_lo = _mul128(inc_hi, inc_lo, _DRAW_INC)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < b_lo)
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    values = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    low, high = float(-cfg.rotation_degrees), float(cfg.rotation_degrees)
    values[1] = low + (high - low) * values[1]
    low, high = float(cfg.crop_scale[0]), float(cfg.crop_scale[1])
    values[2] = low + (high - low) * values[2]
    return values


def augment_views(pixels, cfg: AugmentConfig, draw_seeds) -> np.ndarray:
    """Flip, rotate, then crop-and-resize each of n equal square images; disabled, any equal H x W images pass.

    View j is deterministic in (cfg, draw_seeds[j]): five draws from its own key,
    then the same per-pixel arithmetic whatever the other views are. Every view is
    rotated and cropped; a zero angle or a full-size crop resamples to the identity.
    Returns a float64 n,h,w array.
    """
    imgs = [np.asarray(p) for p in pixels]
    if not imgs or len(imgs) != len(draw_seeds):
        raise ContractError(f"augment_views needs one draw seed per view, got {len(imgs)} views")
    shape = imgs[0].shape
    for img in imgs:
        if img.shape != shape or len(shape) != 2 or 0 in shape:
            raise ContractError(f"augment expects equal non-empty H x W images, got {shape} and {img.shape}")
    out = np.array(imgs, dtype=np.float64)
    if not cfg.enabled:
        return out
    if shape[0] != shape[1]:  # only the transforms need square images
        raise ContractError(f"augment expects square images, got {shape}")
    h = w = shape[0]
    u_flip, angle, scale, u_top, u_left = _draw_values(cfg, draw_seeds)
    # The trigonometry stays in math, per view: numpy's vectorized cos and sin
    # need not round as the C library does.
    theta = [math.radians(a) for a in angle.tolist()]
    cos = np.array([math.cos(t) for t in theta])
    sin = np.array([math.sin(t) for t in theta])
    side = h * np.array([math.sqrt(s) for s in scale.tolist()])
    top = (h - side) * u_top
    left = (w - side) * u_left
    flip = u_flip < cfg.flip_prob
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
        view[sel] = view[sel][:, :, ::-1]
        c, s = cos[part, None, None], sin[part, None, None]
        view[:] = _bilinear_stack(view, cy + c * dy + s * dx, cx - s * dy + c * dx)
        sd = side[part, None]
        rows = top[part, None] + centers * sd / h - 0.5
        cols = left[part, None] + centers * sd / w - 0.5
        view[:] = _bilinear_stack(view, rows[:, :, None], cols[:, None, :])
    return out


def make_views(sample: SliceSample, cfg: AugmentConfig, seed: tuple):
    """Two independent augmentations of one slice, sharing its metadata; view i has the draw seed (*seed, i)."""
    view_a, view_b = augment_views([sample.pixels] * 2, cfg, [(*seed, 0), (*seed, 1)])
    return view_a, view_b, sample
