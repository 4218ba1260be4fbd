"""Patient-balanced batch construction and the two-view augmentation pipeline.

Strict mode draws one slice per patient with class counts balanced within one;
an epoch is a shuffled partition of the cohort so every patient appears exactly
once before any repeats. The fallback sampler keeps class balance but lets
patients repeat, for cohorts smaller than the batch size.

All randomness is derived from explicit integer keys via SeedSequence, so any
draw is reproducible in isolation. Augmentation evaluates SeedSequence and PCG64
for all views of a batch at once, with the same values numpy's per-key
generators give.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FallbackRequired, check_fields

SAMPLER_MODES = ("one_slice_per_patient", "fallback_balanced")


@dataclass(frozen=True)
class BatchSpec:
    batch_size: int = 32
    mode: str = "one_slice_per_patient"
    seed: int = 0
    epoch: int = 0

    def __post_init__(self):
        check_fields(self, batch_size="[2, inf)", mode=SAMPLER_MODES, epoch="[0, inf)")
        if self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even, got {self.batch_size}")


@dataclass(frozen=True)
class AugmentConfig:
    rotation_degrees: float = 15.0
    crop_scale: tuple[float, float] = (0.7, 1.0)
    flip_prob: float = 0.5
    seed: int = 0
    enabled: bool = True

    def __post_init__(self):
        # At most half the largest float, so that the rotation range 2 * rotation_degrees stays finite.
        check_fields(self, rotation_degrees=f"[0, {sys.float_info.max / 2}]", crop_scale="(0, 1]", flip_prob="[0, 1]")
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


def _key_words(cfg: AugmentConfig, draw_seed) -> list[int]:
    """The 32-bit words SeedSequence makes of the key [cfg.seed, *draw_seed].

    Each integer becomes its words least significant first; 0 is one word.
    """
    key = (cfg.seed, *draw_seed) if isinstance(draw_seed, (tuple, list)) else (cfg.seed, draw_seed)
    words = []
    for n in map(int, key):
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
