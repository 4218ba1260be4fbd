"""Volumetric dataset model, deterministic phantom generator, and disk format.

A dataset is a directory holding one binary file per volume plus a JSON
manifest. Each synthetic volume is a stack of 2D slices showing an elliptical
phantom: its radius drifts with the slice's normalized depth (the depth
signal), and its boundary carries sinusoidal irregularity whose magnitude and
depth profile are set by the volume's severity class (the class signal; low
classes are rough on shallow slices, high classes on deep ones, see
``amplitude_depth_coupling``). The latent severity drives both the weak
4-class label and the strong binary label, each observed through independent
flip noise.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, ContractError, DomainError, FormatError, check_fields

VOLUME_MAGIC = b"WSPV"
VOLUME_VERSION = 1
MANIFEST_NAME = "manifest.json"

CLIP_LO = -100.0
CLIP_HI = 400.0
CENTRAL_FRACTION = 0.7


def normalize_depth(p: int, v_max: int) -> float:
    """Map an integer depth coordinate onto [0, 1]."""
    if v_max <= 0:
        raise DomainError(f"V_max must be positive, got {v_max}")
    if not 0 <= p <= v_max:
        raise DomainError(f"depth {p} outside [0, {v_max}]")
    return p / v_max


def clip_intensity(pixels, lo: float = CLIP_LO, hi: float = CLIP_HI) -> np.ndarray:
    """Clamp to [lo, hi] then rescale affinely onto [0, 1]."""
    if lo >= hi:
        raise ConfigError(f"need lo < hi, got [{lo}, {hi}]")
    arr = np.asarray(pixels, dtype=np.float64)
    return (np.clip(arr, lo, hi) - lo) / (hi - lo)


@dataclass
class Slice:
    pixels: np.ndarray  # H x W, float32
    p: int
    d: float


@dataclass
class Volume:
    volume_id: str
    patient_id: str
    v_max: int
    slices: list
    y_weak: int
    y_strong: int | None = None
    latent_severity: float | None = None

    def __post_init__(self):
        if self.v_max <= 0:
            raise ContractError(f"V_max must be positive, got {self.v_max}")
        last = -1
        for s in self.slices:
            if not 0 <= s.p <= self.v_max:
                raise ContractError(f"slice depth {s.p} outside [0, {self.v_max}]")
            if s.p <= last:
                raise ContractError("slice depths must be strictly increasing")
            if s.d != s.p / self.v_max:
                raise ContractError(f"slice d={s.d} inconsistent with p/V_max={s.p / self.v_max}")
            last = s.p


@dataclass
class DatasetManifest:
    version: int = 1
    volumes: list = field(default_factory=list)  # dicts with the on-disk keys
    generator: dict | None = None


def select_central_slices(volume: Volume, fraction: float = CENTRAL_FRACTION) -> Volume:
    """Keep round(fraction * n) slices as a window centered in index space.

    Rounding is half-up; floor((n - k) / 2) slices are dropped from the start
    and the remainder from the end.
    """
    if not 0 < fraction <= 1:
        raise ContractError(f"fraction must be in (0, 1], got {fraction}")
    n = len(volume.slices)
    if n == 0:
        raise ContractError(f"volume {volume.volume_id} has no slices")
    k = int(math.floor(fraction * n + 0.5))
    start = (n - k) // 2
    return Volume(
        volume_id=volume.volume_id,
        patient_id=volume.patient_id,
        v_max=volume.v_max,
        slices=volume.slices[start : start + k],
        y_weak=volume.y_weak,
        y_strong=volume.y_strong,
        latent_severity=volume.latent_severity,
    )


def central_view(volumes, fraction: float = CENTRAL_FRACTION) -> list:
    return [select_central_slices(v, fraction) for v in volumes]


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    n_volumes: int = 60
    slices_per_volume: int = 24
    height: int = 32
    width: int = 32
    class_priors: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    noise_rate: float = 0.1  # weak-label flip probability rho
    contour_amplitudes: tuple[float, float, float, float] = (0.12, 0.12, 0.12, 0.12)
    amplitude_depth_coupling: float = 1.0  # irregularity drifts toward deep (high classes) or shallow (low) slices
    depth_gain: float = 0.45  # radius span across depth, fraction of half-height
    radius_base: float = 0.6
    aspect_jitter: float = 0.1
    center_jitter: float = 0.05  # fraction of height, per slice
    lobes: tuple[int, int] = (5, 9)
    pixel_noise: float = 30.0  # HU
    organ_intensity: float = 150.0  # HU
    background_intensity: float = -300.0  # HU
    edge_width: float = 1.5  # px

    def __post_init__(self):
        # aspect_jitter < 1 keeps every volume's aspect ratio, 1 +- aspect_jitter, positive.
        check_fields(
            self, n_volumes="[1, inf)", slices_per_volume="[1, inf)", height="[4, inf)", width="[4, inf)",
            class_priors="[0, 1]", noise_rate="[0, 1]", contour_amplitudes="[0, inf)", lobes="[1, inf)",
            amplitude_depth_coupling="[0, 1]", depth_gain="[0, inf)", radius_base="(0, inf)", edge_width="(0, inf)",
            aspect_jitter="[0, 1)", center_jitter="[0, 1]", pixel_noise="[0, inf)",
            organ_intensity="(-inf, inf)", background_intensity="(-inf, inf)",
        )
        if abs(sum(self.class_priors) - 1.0) > 1e-9:
            raise ConfigError("class_priors must sum to 1")


def _render_slice(cfg: GeneratorConfig, d: float, amplitude: float, aspect: float, rng) -> np.ndarray:
    h, w = cfg.height, cfg.width
    jitter = cfg.center_jitter * h
    cy = (h - 1) / 2.0 + rng.uniform(-jitter, jitter)
    cx = (w - 1) / 2.0 + rng.uniform(-jitter, jitter)
    phase1 = rng.uniform(0.0, 2.0 * math.pi)
    phase2 = rng.uniform(0.0, 2.0 * math.pi)
    noise = rng.standard_normal((h, w))

    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy = yy - cy
    dx = xx - cx
    theta = np.arctan2(dy, dx)
    radius = 0.5 * h * (cfg.radius_base + cfg.depth_gain * (d - 0.5))
    wobble = 1.0 + amplitude * (
        0.7 * np.sin(cfg.lobes[0] * theta + phase1) + 0.3 * np.sin(cfg.lobes[1] * theta + phase2)
    )
    nr = np.sqrt((dx / (radius * aspect)) ** 2 + (dy / (radius / aspect)) ** 2)
    signed_px = (wobble - nr) * radius
    coverage = np.clip(signed_px / cfg.edge_width + 0.5, 0.0, 1.0)
    hu = (
        cfg.background_intensity
        + (cfg.organ_intensity - cfg.background_intensity) * coverage
        + cfg.pixel_noise * noise
    )
    return clip_intensity(hu).astype(np.float32)


def generate_synthetic_dataset(cfg: GeneratorConfig, seed: int):
    """Deterministically build (manifest, volumes) from (cfg, seed)."""
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    volumes: list[Volume] = []
    severities: dict[str, float] = {}
    n = cfg.slices_per_volume
    v_max = n - 1 if n >= 2 else 1
    for v_idx in range(cfg.n_volumes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, v_idx]))
        clean_bin = int(rng.choice(4, p=np.asarray(cfg.class_priors, dtype=np.float64)))
        u = (clean_bin + rng.random()) / 4.0
        y_weak = clean_bin
        if rng.random() < cfg.noise_rate:
            neighbors = [b for b in (clean_bin - 1, clean_bin + 1) if 0 <= b <= 3]
            y_weak = int(rng.choice(neighbors))
        y_strong = 1 if u > 0.5 else 0
        if rng.random() < cfg.noise_rate / 2.0:
            y_strong = 1 - y_strong
        aspect = 1.0 + rng.uniform(-cfg.aspect_jitter, cfg.aspect_jitter)
        amplitude = cfg.contour_amplitudes[clean_bin]
        drift = 1.0 if clean_bin >= 2 else -1.0  # rough deep vs rough shallow
        slices = []
        for p in range(n):
            d = normalize_depth(p, v_max)
            profile = 1.0 + cfg.amplitude_depth_coupling * (2.0 * d - 1.0) * drift
            # Hold the absolute (pixel) wobble independent of the depth-driven
            # radius so total boundary energy does not leak the class marginally.
            compensation = cfg.radius_base / (cfg.radius_base + cfg.depth_gain * (d - 0.5))
            amp_slice = amplitude * profile * compensation
            slices.append(
                Slice(pixels=_render_slice(cfg, d, amp_slice, aspect, rng), p=p, d=d)
            )
        vid = f"V{v_idx:03d}"
        volumes.append(
            Volume(
                volume_id=vid,
                patient_id=f"P{v_idx:03d}",
                v_max=v_max,
                slices=slices,
                y_weak=y_weak,
                y_strong=y_strong,
                latent_severity=u,
            )
        )
        severities[vid] = u
    manifest = DatasetManifest(
        version=1,
        volumes=[
            {
                "id": v.volume_id,
                "file": f"{v.volume_id}.wspv",
                "patient_id": v.patient_id,
                "v_max": v.v_max,
                "y_weak": v.y_weak,
                "y_strong": v.y_strong,
            }
            for v in volumes
        ],
        generator={"config": asdict(cfg), "seed": seed, "latent_severity": severities},
    )
    return manifest, volumes


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


def write_volume_file(path, volume: Volume) -> None:
    h, w = volume.slices[0].pixels.shape if volume.slices else (0, 0)
    with open(path, "wb") as fh:
        fh.write(VOLUME_MAGIC)
        fh.write(struct.pack("<H", VOLUME_VERSION))
        fh.write(struct.pack("<IIII", h, w, len(volume.slices), volume.v_max))
        for s in volume.slices:
            if s.pixels.shape != (h, w):
                raise FormatError(f"slice shape {s.pixels.shape} differs from volume shape {(h, w)}")
            fh.write(struct.pack("<I", s.p))
            fh.write(np.ascontiguousarray(s.pixels, dtype="<f4").tobytes())


def read_volume_file(path) -> tuple[list[Slice], int]:
    """Parse one volume file; returns (slices, v_max)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"truncated volume file while reading {what}", offset=off)
        chunk = raw[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != VOLUME_MAGIC:
        raise FormatError(f"bad volume magic in {path}", offset=0)
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != VOLUME_VERSION:
        raise FormatError(f"unsupported volume version {version}", offset=4)
    h, w, n_slices, v_max = struct.unpack("<IIII", take(16, "header"))
    slices = []
    for _ in range(n_slices):
        (p,) = struct.unpack("<I", take(4, "slice depth"))
        pixels = np.frombuffer(take(4 * h * w, "slice pixels"), dtype="<f4").reshape(h, w)
        slices.append(Slice(pixels=pixels.copy(), p=int(p), d=normalize_depth(int(p), v_max)))
    if off != len(raw):
        raise FormatError("trailing bytes after last slice", offset=off)
    return slices, int(v_max)


_MANIFEST_VOLUME_KEYS = {"id", "file", "patient_id", "v_max", "y_weak", "y_strong"}


def save_dataset(manifest: DatasetManifest, volumes, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    by_id = {v.volume_id: v for v in volumes}
    for record in manifest.volumes:
        write_volume_file(os.path.join(out_dir, record["file"]), by_id[record["id"]])
    doc = {"version": manifest.version, "volumes": manifest.volumes, "generator": manifest.generator}
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_dataset(path):
    """Load (manifest, volumes) from a dataset directory or manifest path."""
    manifest_path = path
    if os.path.isdir(path):
        manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FormatError(f"manifest not found: {manifest_path}")
    base = os.path.dirname(manifest_path)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc or "volumes" not in doc:
        raise FormatError("manifest must contain 'version' and 'volumes'")
    generator = doc.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise FormatError("manifest 'generator' must be an object or null")
    severities = (generator or {}).get("latent_severity", {})
    if not isinstance(severities, dict):
        raise FormatError("manifest 'generator.latent_severity' must be an object")
    if not isinstance(doc["volumes"], list):
        raise FormatError("manifest 'volumes' must be a list")
    manifest = DatasetManifest(version=doc["version"], volumes=doc["volumes"], generator=generator)
    root = os.path.realpath(base)
    seen = set()
    volumes = []
    for record in doc["volumes"]:
        if not isinstance(record, dict):
            raise FormatError(f"manifest volume record must be a JSON object, got {record!r}")
        missing = _MANIFEST_VOLUME_KEYS - set(record)
        if missing:
            raise FormatError(f"manifest volume record missing keys: {sorted(missing)}")
        for key in ("id", "patient_id", "file"):
            if not isinstance(record[key], str):
                raise FormatError(f"volume record: {key} must be a string, got {record[key]!r}")
        vid = record["id"]
        if vid in seen:
            raise FormatError(f"duplicate volume id {vid!r} in manifest")
        seen.add(vid)
        for key in ("v_max", "y_weak", "y_strong"):
            value = record[key]
            if type(value) is not int and not (key == "y_strong" and value is None):
                raise FormatError(f"volume {vid}: {key} must be an integer, got {value!r}")
        if record["y_weak"] < 0:
            raise FormatError(f"volume {vid}: y_weak must be >= 0, got {record['y_weak']}")
        if record["y_strong"] not in (0, 1, None):
            raise FormatError(f"volume {vid}: y_strong must be 0, 1 or null, got {record['y_strong']}")
        vol_path = os.path.realpath(os.path.join(base, record["file"]))
        if os.path.commonpath([root, vol_path]) != root:
            raise FormatError(f"volume {vid}: file {record['file']!r} lies outside the dataset directory")
        if not os.path.exists(vol_path):
            raise FormatError(f"manifest references missing file: {record['file']}")
        slices, v_max = read_volume_file(vol_path)
        if v_max != record["v_max"]:
            raise FormatError(f"volume {vid}: V_max {v_max} disagrees with manifest {record['v_max']}")
        volumes.append(
            Volume(
                volume_id=vid,
                patient_id=record["patient_id"],
                v_max=v_max,
                slices=slices,
                y_weak=record["y_weak"],
                y_strong=record["y_strong"],
                latent_severity=severities.get(vid),
            )
        )
    return manifest, volumes
