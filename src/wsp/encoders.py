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

import functools
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ByteReader, ConfigError, ContractError, FormatError, build_config, check_array, check_fields
from .errors import check_value, encode_json, parse_json, replacing, size_rule

CHECKPOINT_MAGIC = b"WSPC"
CHECKPOINT_VERSION = 1
_PARAM_RULE = ("finite", np.isfinite)  # every stored parameter value, as written and as read

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
        check_fields(self, arch=ARCHS, **dict.fromkeys(sizes, size_rule(1)))
        if not self.repr_dim > self.proj_dim:
            raise ConfigError(f"need repr_dim > proj_dim, got {self.repr_dim}, {self.proj_dim}")
        if self.arch == "tiny_cnn":
            stages = {name: len(getattr(self, name)) for name in ("conv_channels", "conv_kernels", "conv_strides")}
            if set(stages.values()) != {5}:
                raise ConfigError(f"tiny_cnn has exactly 5 conv stages, got lengths {stages}")
            if len(self.input_shape) != 3:
                raise ConfigError(f"tiny_cnn input_shape must be (C, H, W), got {self.input_shape}")
            self._check_geometry()
        else:
            if len(self.input_shape) != 1:
                raise ConfigError(f"mlp input_shape must be (features,), got {self.input_shape}")
            if not self.mlp_hidden:
                raise ConfigError("mlp needs at least one hidden layer")

    def _check_geometry(self) -> None:
        """ConfigError unless each conv stage's kernel fits the spatial size the stages before it leave."""
        _, h, w = self.input_shape
        for i, (k, s) in enumerate(zip(self.conv_kernels, self.conv_strides)):
            if k > h or k > w:
                raise ConfigError(f"stage {i}: kernel {k} exceeds spatial size {h}x{w}")
            h = (h - k) // s + 1
            w = (w - k) // s + 1


def parameter_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape, in declaration order (also the file order)."""
    shapes: dict[str, tuple[int, ...]] = {}
    width = cfg.input_shape[0]  # each layer's input width: channels for tiny_cnn, features for mlp
    if cfg.arch == "tiny_cnn":
        for i, (cout, k) in enumerate(zip(cfg.conv_channels, cfg.conv_kernels), start=1):
            shapes[f"conv{i}_w"] = (cout, width, k, k)
            shapes[f"conv{i}_b"] = (cout,)
            width = cout
    else:
        for i, out in enumerate(cfg.mlp_hidden, start=1):
            shapes[f"fc{i}_w"] = (width, out)
            shapes[f"fc{i}_b"] = (out,)
            width = out
    shapes["repr_w"] = (width, cfg.repr_dim)
    shapes["repr_b"] = (cfg.repr_dim,)
    shapes["proj1_w"] = (cfg.repr_dim, cfg.proj_hidden)
    shapes["proj1_b"] = (cfg.proj_hidden,)
    shapes["proj2_w"] = (cfg.proj_hidden, cfg.proj_dim)
    shapes["proj2_b"] = (cfg.proj_dim,)
    return shapes


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 4:  # conv kernel: F, C, k, k
        return shape[1] * shape[2] * shape[3]
    return shape[0]  # dense: in, out


def input_shape(arch: str, image_shape: tuple[int, int]) -> tuple[int, ...]:
    """One H x W image's encoder input: (1, H, W) for tiny_cnn, (H*W,) flat pixels for mlp."""
    h, w = image_shape
    return (1, h, w) if arch == "tiny_cnn" else (h * w,)


def input_batch(cfg: EncoderConfig, images: np.ndarray) -> Tensor:
    """B x H x W float64 images in ``cfg.arch``'s input layout; a mis-sized image still fails ``encode``."""
    return Tensor(images.reshape(len(images), *input_shape(cfg.arch, images.shape[1:])))


class Encoder:
    """Parameter container plus the forward passes. Mutated only by a trainer."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def encode(self, x: Tensor) -> Tensor:
        """Representation vectors (not normalized); probes consume these."""
        cfg = self.config
        if x.shape[1:] != cfg.input_shape:
            raise ContractError(f"expected batch of shape (B, {', '.join(map(str, cfg.input_shape))}), got {x.shape}")
        if cfg.arch == "tiny_cnn":
            h = ad.channels_last(x)  # activations stay (B, H, W, C) up to the pool
            for i, stride in enumerate(cfg.conv_strides, start=1):
                h = ad.conv_bias_relu(h, self.params[f"conv{i}_w"], self.params[f"conv{i}_b"], stride)
            h = ad.spatial_mean(h)
        else:
            h = x
            for i in range(1, len(cfg.mlp_hidden) + 1):
                h = ad.relu(ad.affine(h, self.params[f"fc{i}_w"], self.params[f"fc{i}_b"]))
        return ad.affine(h, self.params["repr_w"], self.params["repr_b"])

    def project(self, representation: Tensor) -> Tensor:
        """Two dense layers then row normalization; unit-norm loss input."""
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
            limit = 1.0 / np.sqrt(_fan_in(shape))
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
    def from_encoder(cls, enc: Encoder, step: int = 0, loss_kind: str = "none",
                     loss_sigma: float | None = None) -> EncoderCheckpoint:
        params = {k: np.array(v.data, dtype=np.float64) for k, v in enc.params.items()}
        return cls(enc.config, params, step, loss_kind, loss_sigma)

    def to_encoder(self) -> Encoder:
        """A frozen encoder (parameters do not require grad), so its forward passes build no graph."""
        _check_params(self.config, self.params, FormatError)
        return Encoder(self.config, {k: Tensor(v.copy()) for k, v in self.params.items()})


def untrained_checkpoint(cfg: EncoderConfig) -> EncoderCheckpoint:
    """The "random" baseline: the encoder at its seeded initialization."""
    return EncoderCheckpoint.from_encoder(init_encoder(cfg), step=0, loss_kind="random")


def _check_header(meta: dict, error) -> None:
    """The checkpoint header's rule, raised as ``error``: exactly the keys config (an object, which checks itself when
    built), step (an integer >= 0), loss_kind (a string) and loss_sigma (a finite number or null)."""
    if sorted(meta) != ["config", "loss_kind", "loss_sigma", "step"]:
        raise error(f"checkpoint header keys {sorted(meta)} must be exactly config, loss_kind, loss_sigma and step")
    if not isinstance(meta["config"], dict):
        raise error("checkpoint header's 'config' must be a JSON object")
    check_value("checkpoint header step", meta["step"], int, "[0, inf)", error)
    check_value("checkpoint header loss_kind", meta["loss_kind"], str, None, error)
    if meta["loss_sigma"] is not None:
        check_value("checkpoint header loss_sigma", meta["loss_sigma"], float, None, error)


def _check_params(cfg: EncoderConfig, params: dict, error) -> None:
    """The parameters' rule, raised as ``error``: ``cfg``'s names in declaration order, each of its shape."""
    expected = parameter_shapes(cfg)
    if list(expected) != list(params):
        raise error("checkpoint parameters do not match the architecture config")
    for name, shape in expected.items():
        if np.shape(params[name]) != shape:
            raise error(f"parameter {name} has shape {np.shape(params[name])}, expected {shape}")


def save_checkpoint(ckpt: EncoderCheckpoint, path) -> None:
    """Write ``ckpt``. One that ``load_checkpoint`` would refuse is refused before the first byte: ContractError, or
    NonFiniteError for a non-finite parameter value."""
    meta = {"config": asdict(ckpt.config), "loss_kind": ckpt.loss_kind, "loss_sigma": ckpt.loss_sigma,
            "step": ckpt.step}
    _check_header(meta, ContractError)
    _check_params(ckpt.config, ckpt.params, ContractError)
    arrays = {name: np.ascontiguousarray(values, dtype="<f8") for name, values in ckpt.params.items()}
    for name, arr in arrays.items():
        check_array(f"checkpoint {name} values", arr, *_PARAM_RULE)
    blob = encode_json(meta, compact=True).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> EncoderCheckpoint:
    reader = ByteReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    (blob_len,) = reader.unpack("<I", "header length")
    header_error = functools.partial(FormatError, offset=reader.off)
    meta = parse_json(reader.take(blob_len, "header"), "checkpoint header", header_error)
    _check_header(meta, header_error)
    cfg = build_config(EncoderConfig, meta["config"], header_error)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg).items():
        (rank,) = reader.unpack("<B", f"{name} rank")
        extents = reader.unpack(f"<{rank}I", f"{name} extents")
        if tuple(extents) != shape:
            raise FormatError(f"parameter {name} has extents {extents}, expected {shape}", offset=reader.off)
        count = int(np.prod(extents)) if extents else 1
        values = reader.array("<f8", count, f"{name} values", *_PARAM_RULE)
        params[name] = values.reshape(extents).astype(np.float64)
    reader.finish()
    sigma = meta["loss_sigma"]
    return EncoderCheckpoint(cfg, params, meta["step"], meta["loss_kind"], None if sigma is None else float(sigma))
