"""Small encoders: a five-stage CNN and an MLP, each with a projection head.

The probe path and the loss path split at the representation: ``encode``
produces the (unnormalized) representation consumed by linear probes, and
``project`` maps it through two dense layers onto the unit sphere for the
contrastive losses.

The CNN downsamples with strided valid convolutions. On a 32x32 input only
four 3x3/stride-2 stages fit, so the fifth stage is a 1x1 channel mixer; the
full kernel/stride plan lives in the config so the architecture is auditable.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, FormatError, ShapeError, build_config, check_fields, check_value

CHECKPOINT_MAGIC = b"WSPC"
CHECKPOINT_VERSION = 1

ARCHS = ("tiny_cnn", "mlp")


@dataclass(frozen=True)
class EncoderConfig:
    arch: str = "tiny_cnn"
    input_shape: tuple[int, ...] = (1, 32, 32)
    conv_channels: tuple[int, ...] = (16, 32, 64, 128, 256)
    conv_kernels: tuple[int, ...] = (3, 3, 3, 3, 1)
    conv_strides: tuple[int, ...] = (2, 2, 2, 2, 1)
    repr_dim: int = 256
    proj_dim: int = 64
    proj_hidden: int = 128
    mlp_hidden: tuple[int, ...] = (128, 128)
    seed: int = 0

    def __post_init__(self):
        sizes = "input_shape conv_channels conv_kernels conv_strides mlp_hidden repr_dim proj_dim proj_hidden".split()
        check_fields(self, arch=ARCHS, **dict.fromkeys(sizes, "[1, inf)"))
        if not self.repr_dim > self.proj_dim:
            raise ConfigError(f"need repr_dim > proj_dim, got {self.repr_dim}, {self.proj_dim}")
        if self.arch == "tiny_cnn":
            if len(self.conv_channels) != 5:
                raise ConfigError(
                    f"tiny_cnn has exactly 5 conv stages, got {len(self.conv_channels)}"
                )
            if not (len(self.conv_kernels) == len(self.conv_strides) == 5):
                raise ConfigError("conv_kernels and conv_strides must both have length 5")
            if len(self.input_shape) != 3:
                raise ConfigError(f"tiny_cnn input_shape must be (C, H, W), got {self.input_shape}")
            self._spatial_plan()  # raises on impossible geometry
        else:
            if len(self.input_shape) != 1:
                raise ConfigError(f"mlp input_shape must be (features,), got {self.input_shape}")
            if not self.mlp_hidden:
                raise ConfigError("mlp needs at least one hidden layer")

    def _spatial_plan(self) -> list[tuple[int, int]]:
        """Spatial size after each conv stage; fails fast on invalid geometry."""
        _, h, w = self.input_shape
        plan = []
        for i, (k, s) in enumerate(zip(self.conv_kernels, self.conv_strides)):
            if k > h or k > w:
                raise ConfigError(f"stage {i}: kernel {k} exceeds spatial size {h}x{w}")
            h = (h - k) // s + 1
            w = (w - k) // s + 1
            plan.append((h, w))
        return plan


def parameter_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape, in declaration order (also the file order)."""
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.arch == "tiny_cnn":
        cin = cfg.input_shape[0]
        for i, (cout, k) in enumerate(zip(cfg.conv_channels, cfg.conv_kernels), start=1):
            shapes[f"conv{i}_w"] = (cout, cin, k, k)
            shapes[f"conv{i}_b"] = (cout,)
            cin = cout
        shapes["repr_w"] = (cfg.conv_channels[-1], cfg.repr_dim)
        shapes["repr_b"] = (cfg.repr_dim,)
    else:
        fin = cfg.input_shape[0]
        for i, width in enumerate(cfg.mlp_hidden, start=1):
            shapes[f"fc{i}_w"] = (fin, width)
            shapes[f"fc{i}_b"] = (width,)
            fin = width
        shapes["repr_w"] = (fin, cfg.repr_dim)
        shapes["repr_b"] = (cfg.repr_dim,)
    shapes["proj1_w"] = (cfg.repr_dim, cfg.proj_hidden)
    shapes["proj1_b"] = (cfg.proj_hidden,)
    shapes["proj2_w"] = (cfg.proj_hidden, cfg.proj_dim)
    shapes["proj2_b"] = (cfg.proj_dim,)
    return shapes


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    if name.endswith("_b"):
        return shape[0]
    if len(shape) == 4:  # conv kernel: F, C, k, k
        return shape[1] * shape[2] * shape[3]
    return shape[0]  # dense: in, out


class Encoder:
    """Parameter container plus the forward passes. Mutated only by a trainer."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def encode(self, x: Tensor) -> Tensor:
        """Representation vectors (not normalized); probes consume these."""
        cfg = self.config
        if cfg.arch == "tiny_cnn":
            if x.data.ndim != 4 or x.shape[1:] != cfg.input_shape:
                raise ShapeError(
                    f"expected batch of shape (B, {', '.join(map(str, cfg.input_shape))}),"
                    f" got {x.shape}"
                )
            h = x
            for i, stride in enumerate(cfg.conv_strides, start=1):
                h = ad.conv2d(h, self.params[f"conv{i}_w"], stride)
                h = ad.add_channel_bias(h, self.params[f"conv{i}_b"])
                h = ad.relu(h)
            h = ad.spatial_mean(h)
        else:
            if x.data.ndim != 2 or x.shape[1] != cfg.input_shape[0]:
                raise ShapeError(f"expected batch of shape (B, {cfg.input_shape[0]}), got {x.shape}")
            h = x
            for i in range(1, len(cfg.mlp_hidden) + 1):
                h = ad.relu(ad.affine(h, self.params[f"fc{i}_w"], self.params[f"fc{i}_b"]))
        return ad.affine(h, self.params["repr_w"], self.params["repr_b"])

    def project(self, representation: Tensor) -> Tensor:
        """Two dense layers then row normalization; unit-norm loss input."""
        if representation.data.ndim != 2 or representation.shape[1] != self.config.repr_dim:
            raise ShapeError(
                f"expected (B, {self.config.repr_dim}) representations, got {representation.shape}"
            )
        h = ad.relu(ad.affine(representation, self.params["proj1_w"], self.params["proj1_b"]))
        h = ad.affine(h, self.params["proj2_w"], self.params["proj2_b"])
        return ad.l2_normalize(h)


def init_encoder(cfg: EncoderConfig) -> Encoder:
    """Seeded uniform fan-in init: weights U(+-1/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("_b"):
            values = np.zeros(shape)
        else:
            limit = 1.0 / np.sqrt(_fan_in(name, shape))
            values = rng.uniform(-limit, limit, size=shape)
        params[name] = Tensor(values, requires_grad=True)
    return Encoder(cfg, params)


@dataclass
class EncoderCheckpoint:
    config: EncoderConfig
    params: dict[str, np.ndarray] = field(repr=False)
    step: int = 0
    loss_kind: str = "none"
    loss_sigma: float | None = None

    @classmethod
    def from_encoder(
        cls,
        enc: Encoder,
        step: int = 0,
        loss_kind: str = "none",
        loss_sigma: float | None = None,
    ) -> "EncoderCheckpoint":
        return cls(
            config=enc.config,
            params={k: np.array(v.data, dtype=np.float64) for k, v in enc.params.items()},
            step=step,
            loss_kind=loss_kind,
            loss_sigma=loss_sigma,
        )

    def to_encoder(self) -> Encoder:
        expected = parameter_shapes(self.config)
        if list(expected) != list(self.params):
            raise FormatError("checkpoint parameters do not match the architecture config")
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise FormatError(
                    f"parameter {name} has shape {self.params[name].shape}, expected {shape}"
                )
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in self.params.items()}
        return Encoder(self.config, params)


def save_checkpoint(ckpt: EncoderCheckpoint, path) -> None:
    meta = {
        "config": asdict(ckpt.config),
        "loss_kind": ckpt.loss_kind,
        "loss_sigma": ckpt.loss_sigma,
        "step": ckpt.step,
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    expected = parameter_shapes(ckpt.config)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, shape in expected.items():
            arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
            if arr.shape != shape:
                raise FormatError(f"parameter {name} has shape {arr.shape}, expected {shape}")
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> EncoderCheckpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"truncated checkpoint while reading {what}", offset=off)
        chunk = raw[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    (blob_len,) = struct.unpack("<I", take(4, "header length"))
    try:
        meta = json.loads(take(blob_len, "config").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint config: {exc}", offset=10) from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config", {}), dict):
        raise FormatError("checkpoint header and its 'config' must be JSON objects", offset=10)
    cfg = build_config(EncoderConfig, meta.get("config", {}), FormatError)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg).items():
        (rank,) = struct.unpack("<B", take(1, f"{name} rank"))
        extents = struct.unpack(f"<{rank}I", take(4 * rank, f"{name} extents"))
        if tuple(extents) != shape:
            raise FormatError(f"parameter {name} has extents {extents}, expected {shape}", offset=off)
        count = int(np.prod(extents)) if extents else 1
        values = np.frombuffer(take(8 * count, f"{name} values"), dtype="<f8")
        params[name] = values.reshape(extents).astype(np.float64)
    if off != len(raw):
        raise FormatError("trailing bytes after last parameter", offset=off)
    step, loss_kind, sigma = meta.get("step", 0), meta.get("loss_kind", "none"), meta.get("loss_sigma")
    try:
        check_value("step", step, int, "[0, inf)")
        check_value("loss_kind", loss_kind, str)
        if sigma is not None:
            check_value("loss_sigma", sigma, float)
    except ConfigError as exc:
        raise FormatError(f"bad checkpoint header: {exc}", offset=10) from exc
    return EncoderCheckpoint(
        config=cfg,
        params=params,
        step=step,
        loss_kind=loss_kind,
        loss_sigma=None if sigma is None else float(sigma),
    )
