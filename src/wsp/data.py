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

import math
import os
import struct
from dataclasses import asdict, dataclass, replace
from typing import Annotated

import numpy as np

from .errors import ByteReader, ConfigError, ContractError, FormatError
from .errors import check_array, check_fields, check_value, encode_json, parse_json, replacing, size_rule

VOLUME_MAGIC = b"WSPV"
VOLUME_VERSION = 1
MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

CLIP_LO = -100.0
CLIP_HI = 400.0
CENTRAL_FRACTION = 0.7
CENTRAL_FRACTION_RULE = "(0, 1]"  # the range of every central fraction (see check_value)
_PIXEL_RULE = ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0))  # every stored pixel, as written and as read


def normalize_depth(p: int, v_max: int) -> float:
    """Map an integer depth coordinate onto [0, 1]."""
    if v_max <= 0:
        raise ContractError(f"V_max must be positive, got {v_max}")
    if not 0 <= p <= v_max:
        raise ContractError(f"depth {p} outside [0, {v_max}]")
    return p / v_max


def clip_intensity(pixels) -> np.ndarray:
    """Clamp to [CLIP_LO, CLIP_HI] then rescale affinely onto [0, 1]."""
    arr = np.asarray(pixels, dtype=np.float64)
    return (np.clip(arr, CLIP_LO, CLIP_HI) - CLIP_LO) / (CLIP_HI - CLIP_LO)


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

    def __post_init__(self):
        if self.v_max <= 0:
            raise ContractError(f"V_max must be positive, got {self.v_max}")
        last = -1
        for s in self.slices:
            if s.p <= last:
                raise ContractError("slice depths must be strictly increasing")
            if s.d != normalize_depth(s.p, self.v_max):  # which rejects a depth outside [0, V_max]
                raise ContractError(f"slice d={s.d} inconsistent with p/V_max={s.p / self.v_max}")
            last = s.p


def slice_id(volume: Volume, s: Slice) -> str:
    """The id ``<volume_id>/<p>`` of slice ``s`` of ``volume``."""
    return f"{volume.volume_id}/{s.p}"


def select_central_slices(volume: Volume, fraction: float = CENTRAL_FRACTION) -> Volume:
    """Keep round(fraction * n) slices as a window centered in index space.

    Rounding is half-up; floor((n - k) / 2) slices are dropped from the start
    and the remainder from the end. A fraction that keeps no slice is a ConfigError.
    """
    check_value("fraction", fraction, float, CENTRAL_FRACTION_RULE, ContractError)
    n = len(volume.slices)
    if n == 0:
        raise ContractError(f"volume {volume.volume_id} has no slices")
    k = int(math.floor(fraction * n + 0.5))
    if k == 0:
        raise ConfigError(f"central fraction {fraction} keeps none of volume {volume.volume_id}'s {n} slices")
    start = (n - k) // 2
    return replace(volume, slices=volume.slices[start : start + k])


def central_view(volumes, fraction: float = CENTRAL_FRACTION) -> list:
    return [select_central_slices(v, fraction) for v in volumes]


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    n_volumes: Annotated[int, size_rule(1)] = 60
    slices_per_volume: Annotated[int, size_rule(1)] = 24
    height: Annotated[int, size_rule(4)] = 32
    width: Annotated[int, size_rule(4)] = 32
    class_priors: Annotated[tuple[float, float, float, float], "[0, 1]"] = (0.25, 0.25, 0.25, 0.25)
    noise_rate: Annotated[float, "[0, 1]"] = 0.1  # weak-label flip probability rho
    contour_amplitudes: Annotated[tuple[float, float, float, float], "[0, inf)"] = (0.12, 0.12, 0.12, 0.12)
    amplitude_depth_coupling: Annotated[float, "[0, 1]"] = 1.0  # roughness drifts deep (high classes) or shallow (low)
    depth_gain: Annotated[float, "[0, inf)"] = 0.45  # radius span across depth, fraction of half-height
    radius_base: Annotated[float, "(0, inf)"] = 0.6
    aspect_jitter: Annotated[float, "[0, 1)"] = 0.1  # below 1, so every aspect ratio, 1 +- aspect_jitter, is positive
    center_jitter: Annotated[float, "[0, 1]"] = 0.05  # fraction of height, per slice
    lobes: Annotated[tuple[int, int], size_rule(1)] = (5, 9)
    pixel_noise: Annotated[float, "[0, inf)"] = 30.0  # HU
    organ_intensity: Annotated[float, "(-inf, inf)"] = 150.0  # HU
    background_intensity: Annotated[float, "(-inf, inf)"] = -300.0  # HU
    edge_width: Annotated[float, "(0, inf)"] = 1.5  # px

    def __post_init__(self):
        check_fields(self)
        if abs(sum(self.class_priors) - 1.0) > 1e-9:
            raise ConfigError("class_priors must sum to 1")
        # The shallowest slice's radius is radius_base - depth_gain / 2 half-heights.
        if not self.depth_gain < 2 * self.radius_base:
            raise ConfigError(f"depth_gain must be < 2 * radius_base, got {self.depth_gain} and {self.radius_base}")
        if not math.isfinite(self.organ_intensity - self.background_intensity):
            raise ConfigError("organ_intensity - background_intensity must be finite")


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
    """Deterministically build (generator, volumes) from (cfg, seed); ``generator`` is the manifest's audit record,
    which alone holds each volume's latent severity."""
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
        volume_id = f"V{v_idx:03d}"
        severities[volume_id] = u
        volumes.append(Volume(volume_id=volume_id, patient_id=f"P{v_idx:03d}", v_max=v_max, slices=slices,
                              y_weak=y_weak, y_strong=y_strong))
    return {"config": asdict(cfg), "seed": seed, "latent_severity": severities}, volumes


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


def write_volume_file(path, volume: Volume) -> None:
    """Write ``volume`` as it is; ``save_dataset`` checks a dataset's rules before it calls this."""
    h, w = volume.slices[0].pixels.shape if volume.slices else (0, 0)
    with replacing(path, "wb") as fh:
        fh.write(VOLUME_MAGIC)
        fh.write(struct.pack("<H", VOLUME_VERSION))
        fh.write(struct.pack("<IIII", h, w, len(volume.slices), volume.v_max))
        for s in volume.slices:
            fh.write(struct.pack("<I", s.p))
            fh.write(np.ascontiguousarray(s.pixels, dtype="<f4").tobytes())


def read_volume_file(path) -> tuple[list[Slice], int]:
    """Parse one volume file; returns (slices, v_max). V_max >= 1, depths lie in [0, V_max], pixels in [0, 1]."""
    reader = ByteReader(path, VOLUME_MAGIC, VOLUME_VERSION, "volume file")
    h, w, n_slices, v_max = reader.unpack("<IIII", "header")
    if v_max < 1:
        raise FormatError(f"V_max must be at least 1, got {v_max}", offset=reader.off - 4)
    slices = []
    for _ in range(n_slices):
        (p,) = reader.unpack("<I", "slice depth")
        if p > v_max:
            raise FormatError(f"slice depth {p} exceeds V_max {v_max}", offset=reader.off - 4)
        pixels = reader.array("<f4", h * w, "slice pixels", *_PIXEL_RULE)
        slices.append(Slice(pixels=pixels.reshape(h, w).copy(), p=p, d=normalize_depth(p, v_max)))
    reader.finish()
    return slices, int(v_max)


# Each key of a manifest volume record with its kind and rule (see check_value); y_strong may also be null.
_RECORD_RULES = (
    ("id", str, None),
    ("file", str, None),
    ("patient_id", str, None),
    ("v_max", int, size_rule(1)),  # stored as u32 in the volume file too
    ("y_weak", int, "[0, 9223372036854775808)"),  # fits the int64 label arrays
    ("y_strong", int, (0, 1)),
)


def _check_manifest(doc: dict, error) -> None:
    """The manifest's rule, raised as ``error``: version, generator record, each record's keys and kinds, volume ids
    that are plain file names unique in the dataset, files named ``<id>.wspv``, one (y_weak, y_strong) per patient."""
    check_value("manifest version", doc.get("version"), int, (MANIFEST_VERSION,), error)
    generator = doc.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise error("manifest 'generator' must be an object or null")
    if not isinstance(doc.get("volumes"), list) or not doc["volumes"]:
        raise error("manifest 'volumes' must be a non-empty list")
    seen, labels_of_patient = set(), {}
    for index, record in enumerate(doc["volumes"]):
        if not isinstance(record, dict):
            raise error(f"manifest volume record must be a JSON object, got {record!r}")
        missing = [key for key, _, _ in _RECORD_RULES if key not in record]
        if missing:
            raise error(f"manifest volume record missing keys: {missing}")
        for key, kind, rule in _RECORD_RULES:
            if record[key] is not None or key != "y_strong":
                check_value(f"manifest volumes[{index}].{key}", record[key], kind, rule, error)
        vid, pid = record["id"], record["patient_id"]
        if vid in seen:
            raise error(f"duplicate volume id {vid!r}; ids must be plain file names unique in the dataset")
        if vid in ("", ".", "..") or os.path.basename(vid) != vid or "\0" in vid:
            raise error(f"volume id {vid!r} is not a plain file name unique in the dataset")
        seen.add(vid)
        if record["file"] != (file := dataset_files("", [vid])[1]):
            raise error(f"volume {vid}: file {record['file']!r} must be {file!r}, the volume's id plus .wspv")
        labels = (record["y_weak"], record["y_strong"])
        if labels_of_patient.setdefault(pid, labels) != labels:
            raise error(f"volume {vid}: labels {labels} differ from patient {pid}'s other volumes")


def _check_images(volumes, error) -> None:
    """The images' rule, raised as ``error``: every slice of a dataset has one H x W, each at least 1."""
    first = None  # (volume id, image size) of the dataset's first slice
    for v in volumes:
        for s in v.slices:
            shape = np.shape(s.pixels)
            first = first or (v.volume_id, shape)
            if shape != first[1]:
                raise error(f"volume {v.volume_id}: image size {shape} differs from {first[1]} in volume {first[0]}; "
                            "every slice of a dataset needs one H x W")
            if len(shape) != 2 or 0 in shape:
                raise error(f"volume {v.volume_id}: image size {shape} is empty or not H x W; "
                            "H and W must each be at least 1")


def dataset_files(directory, volume_ids) -> list:
    """The files of the dataset in ``directory`` with volumes ``volume_ids``: its manifest, then each volume's file
    ``<id>.wspv``, in order. The one naming rule of a dataset's files, for its writer, its reader and the CLI."""
    return [os.path.join(directory, MANIFEST_NAME), *(os.path.join(directory, f"{vid}.wspv") for vid in volume_ids)]


def _read_manifest(directory) -> dict:
    """The manifest of the dataset in ``directory``, which obeys ``_check_manifest``; else a FormatError."""
    manifest_path = dataset_files(directory, [])[0]
    if not os.path.exists(manifest_path):
        raise FormatError(f"manifest not found: {manifest_path}")
    with open(manifest_path, "rb") as fh:
        doc = parse_json(fh.read(), f"manifest {manifest_path}", FormatError)
    _check_manifest(doc, FormatError)
    return doc


def stale_volume_files(directory, volume_ids) -> list:
    """The volume files in ``directory`` that its manifest names and that a dataset with volumes ``volume_ids`` will
    not write; none when there is no manifest there, or one that ``_check_manifest`` refuses."""
    try:
        records = _read_manifest(directory)["volumes"]
    except (OSError, FormatError):
        return []
    keep = set(volume_ids)
    stale = dataset_files(directory, [record["id"] for record in records if record["id"] not in keep])[1:]
    return [path for path in stale if os.path.lexists(path)]


def save_dataset(generator: dict | None, volumes, out_dir) -> None:
    """Write each volume and the manifest to ``dataset_files(out_dir, ...)``, then remove the ``stale_volume_files``
    of the dataset it replaces; the manifest's records are built from the volumes, and ``generator`` is stored as
    given. A dataset that ``load_dataset`` would refuse is refused before the first byte: ContractError, or
    NonFiniteError for a non-finite pixel."""
    manifest_path, *volume_paths = dataset_files(out_dir, ids := [v.volume_id for v in volumes])
    records = [{"id": v.volume_id, "file": os.path.basename(path), "patient_id": v.patient_id, "v_max": v.v_max,
                "y_weak": v.y_weak, "y_strong": v.y_strong} for v, path in zip(volumes, volume_paths)]
    doc = {"version": MANIFEST_VERSION, "volumes": records, "generator": generator}
    _check_manifest(doc, ContractError)
    _check_images(volumes, ContractError)
    for v in volumes:
        for s in v.slices:
            check_array(f"volume {v.volume_id} slice pixels", np.asarray(s.pixels, dtype="<f4"), *_PIXEL_RULE)
    text = encode_json(doc)
    stale = stale_volume_files(out_dir, ids)
    os.makedirs(out_dir, exist_ok=True)
    for v, path in zip(volumes, volume_paths):
        write_volume_file(path, v)
    with replacing(manifest_path) as fh:
        fh.write(text)
    for path in stale:
        os.remove(path)


def load_dataset(path):
    """Load (generator, volumes) from the ``dataset_files`` of directory ``path``; ``generator`` is the manifest's
    generator record as read, or None. The manifest and images obey ``_check_manifest`` and ``_check_images``."""
    doc = _read_manifest(path)
    volumes = []
    for record, vol_path in zip(doc["volumes"], dataset_files(path, [r["id"] for r in doc["volumes"]])[1:]):
        if not os.path.exists(vol_path):
            raise FormatError(f"manifest references missing file: {record['file']}")
        slices, v_max = read_volume_file(vol_path)
        if v_max != record["v_max"]:
            raise FormatError(f"volume {record['id']}: V_max {v_max} disagrees with manifest {record['v_max']}")
        volumes.append(Volume(volume_id=record["id"], patient_id=record["patient_id"], v_max=v_max, slices=slices,
                              y_weak=record["y_weak"], y_strong=record["y_strong"]))
    _check_images(volumes, FormatError)
    return doc.get("generator"), volumes
