"""Command-line entry point for generation, pretraining, probing and sweeps.

Every command is a pure function of (config file, flags, seed, input files):
flags override config-file values, the effective configuration is echoed next
to each primary output, and no output file contains a timestamp, so replays
are byte-identical.

Exit codes: 0 success, 2 usage/config, 3 data or format problem, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .data import (
    CENTRAL_FRACTION,
    GeneratorConfig,
    central_view,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
)
from .encoders import (
    EncoderCheckpoint,
    EncoderConfig,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    FormatError,
    NonFiniteError,
    ShapeError,
    WspError,
    build_config,
)
from .evaluation import (
    DEFAULT_SWEEP_SIGMAS,
    ProbeConfig,
    extract_representations,
    pca_project,
    run_probe_protocol,
    sigma_sweep,
    write_embeddings_csv,
    write_metrics_csv,
    write_pca_csv,
    write_sweep_csv,
)
from .losses import LossConfig, gradient_check
from .sampling import AugmentConfig
from .training import OptimConfig, pretrain, write_loss_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GRADCHECK_TOLERANCE = 1e-5

_LOSS_FLAG_TO_KIND = {"wsp": "wsp", "supcon": "supcon", "depth": "depth_aware", "infonce": "infonce"}

_RUN_CONFIG_SECTIONS = {
    "data": set(GeneratorConfig.__dataclass_fields__) | {"central_fraction"},
    "encoder": set(EncoderConfig.__dataclass_fields__),
    "loss": set(LossConfig.__dataclass_fields__),
    "optim": set(OptimConfig.__dataclass_fields__) - {"loss"},
    "probe": set(ProbeConfig.__dataclass_fields__),
    "augment": set(AugmentConfig.__dataclass_fields__),
}
_RUN_CONFIG_TOP_KEYS = set(_RUN_CONFIG_SECTIONS) | {"output_dir", "seed"}


def load_run_config(path) -> dict:
    """Parse and validate a run-config JSON document; unknown keys rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - _RUN_CONFIG_TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown run-config keys: {sorted(unknown)}")
    for key, kind in (("seed", int), ("output_dir", str)):
        if key in doc and (not isinstance(doc[key], kind) or isinstance(doc[key], bool)):
            raise ConfigError(f"run-config {key!r} must be {kind.__name__}, got {doc[key]!r}")
    for section, allowed in _RUN_CONFIG_SECTIONS.items():
        body = doc.get(section)
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a JSON object")
        bad = set(body) - allowed
        if bad:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(bad)}")
    return doc


def _echo_config(primary_output: str, payload: dict) -> None:
    """Write the effective configuration next to a command's main output."""
    if os.path.isdir(primary_output):
        path = os.path.join(primary_output, "run_config.json")
    else:
        path = primary_output + ".config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_jsonable)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _section(doc: dict, name: str) -> dict:
    return dict(doc.get(name) or {}) if doc else {}


def _seeded(doc: dict, name: str, args) -> dict:
    """Section ``name`` with its seed set by precedence: --seed, the section's own, the top-level one."""
    body = _section(doc, name)
    if args.seed is not None:
        body["seed"] = args.seed
    elif "seed" in doc:
        body.setdefault("seed", doc["seed"])
    return body


def _resolve_out(doc: dict, path: str | None) -> str | None:
    """Anchor relative output paths under the config's output_dir, if any."""
    if path is None:
        return None
    base = doc.get("output_dir") if doc else None
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    doc = load_run_config(args.config) if args.config else {}
    body = _section(doc, "data")
    body.pop("central_fraction", None)
    if args.volumes is not None:
        body["n_volumes"] = args.volumes
    if args.slices is not None:
        body["slices_per_volume"] = args.slices
    if args.size is not None:
        h, w = _parse_size(args.size)
        body["height"], body["width"] = h, w
    if args.noise is not None:
        body["noise_rate"] = args.noise
    cfg = build_config(GeneratorConfig, body, ConfigError)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    out = _resolve_out(doc, args.out)
    manifest, volumes = generate_synthetic_dataset(cfg, seed)
    save_dataset(manifest, volumes, out)
    _echo_config(out, {"command": "generate", "data": asdict(cfg), "seed": seed})
    print(f"wrote {len(volumes)} volumes to {out}")
    return EXIT_OK


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h_str, w_str = text.lower().split("x")
        return int(h_str), int(w_str)
    except ValueError as exc:
        raise ConfigError(f"--size must look like 32x32, got {text!r}") from exc


def _load_trimmed(args, doc: dict):
    """The central-slice fraction (flag, then config, then default) and the volumes trimmed to it."""
    fraction = args.fraction
    if fraction is None:
        fraction = _section(doc, "data").get("central_fraction", CENTRAL_FRACTION)
    if type(fraction) not in (int, float) or not 0 < fraction <= 1:
        raise ConfigError(f"central_fraction must be a number in (0, 1], got {fraction!r}")
    _, volumes = load_dataset(args.data)
    return float(fraction), central_view(volumes, fraction)


def _encoder_config(doc: dict, args, volumes) -> EncoderConfig:
    body = _seeded(doc, "encoder", args)
    if args.arch:
        body["arch"] = args.arch
    if "input_shape" not in body:
        h, w = volumes[0].slices[0].pixels.shape
        body["input_shape"] = (1, h, w) if body.get("arch", "tiny_cnn") == "tiny_cnn" else (h * w,)
    return build_config(EncoderConfig, body, ConfigError)


def cmd_pretrain(args) -> int:
    doc = load_run_config(args.config) if args.config else {}
    fraction, volumes = _load_trimmed(args, doc)

    loss_body = _section(doc, "loss")
    kind = _LOSS_FLAG_TO_KIND[args.loss] if args.loss else loss_body.get("loss_kind", "wsp")
    if args.sigma is not None:
        if kind in ("supcon", "infonce"):
            print(f"warning: --sigma is ignored for loss kind {kind}", file=sys.stderr)
        loss_body["sigma"] = args.sigma
    if args.tau is not None:
        loss_body["tau"] = args.tau
    loss_body["loss_kind"] = kind
    loss_cfg = build_config(LossConfig, loss_body, ConfigError)

    optim_body = _seeded(doc, "optim", args)
    for flag, key in (("epochs", "epochs"), ("batch", "batch_size"), ("lr", "lr"), ("weight_decay", "weight_decay")):
        value = getattr(args, flag)
        if value is not None:
            optim_body[key] = value
    optim_cfg = build_config(OptimConfig, dict(optim_body, loss=loss_cfg), ConfigError)

    enc_cfg = _encoder_config(doc, args, volumes)
    aug_body = _section(doc, "augment")
    if args.seed is not None or "seed" not in aug_body:
        aug_body["seed"] = optim_cfg.seed
    aug_cfg = build_config(AugmentConfig, aug_body, ConfigError)

    out = _resolve_out(doc, args.out)
    try:
        ckpt, curve = pretrain(volumes, enc_cfg, optim_cfg, aug_cfg)
    except NonFiniteError as exc:
        dump_path = out + ".dump.json"
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(getattr(exc, "details", {"error": str(exc)}), fh, indent=1)
            fh.write("\n")
        print(f"error: {exc}; batch dump written to {dump_path}", file=sys.stderr)
        return EXIT_NUMERIC
    save_checkpoint(ckpt, out)
    write_loss_curve(out + ".loss.csv", curve)
    _echo_config(
        out,
        {
            "command": "pretrain",
            "data_dir": args.data,
            "central_fraction": fraction,
            "encoder": asdict(enc_cfg),
            "loss": asdict(loss_cfg),
            "optim": {k: v for k, v in asdict(optim_cfg).items() if k != "loss"},
            "augment": asdict(aug_cfg),
        },
    )
    print(f"pretrained {kind} for {optim_cfg.epochs} epochs; final mean loss {curve[-1].mean_loss:.6f}")
    return EXIT_OK


def _resolve_checkpoint(args, doc, volumes) -> EncoderCheckpoint:
    if args.ckpt == "random":
        enc_cfg = _encoder_config(doc, args, volumes)
        enc = init_encoder(enc_cfg)
        return EncoderCheckpoint.from_encoder(enc, step=0, loss_kind="random")
    return load_checkpoint(args.ckpt)


def cmd_probe(args) -> int:
    doc = load_run_config(args.config) if args.config else {}
    fraction, volumes = _load_trimmed(args, doc)
    ckpt = _resolve_checkpoint(args, doc, volumes)
    probe_body = _seeded(doc, "probe", args)
    if args.folds is not None:
        probe_body["folds"] = args.folds
    probe_cfg = build_config(ProbeConfig, probe_body, ConfigError)
    report = run_probe_protocol(ckpt, volumes, probe_cfg)
    sigma = ckpt.loss_sigma if ckpt.loss_sigma is not None else float("nan")
    out = _resolve_out(doc, args.out)
    write_metrics_csv(out, ckpt.loss_kind, sigma, report)
    _echo_config(
        out,
        {
            "command": "probe",
            "data_dir": args.data,
            "central_fraction": fraction,
            "checkpoint": args.ckpt,
            "probe": asdict(probe_cfg),
        },
    )
    print(
        f"patient AUC {report.mean_auc_patient:.4f} +- {report.std_auc_patient:.4f} "
        f"(bACC {report.mean_bacc:.4f} +- {report.std_bacc:.4f}) over {probe_cfg.folds} folds"
    )
    return EXIT_OK


def cmd_project(args) -> int:
    doc = load_run_config(args.config) if args.config else {}
    fraction, volumes = _load_trimmed(args, doc)
    ckpt = _resolve_checkpoint(args, doc, volumes)
    table = extract_representations(ckpt, volumes)
    coords, explained = pca_project(table.repr, modes=2)
    out = _resolve_out(doc, args.out)
    write_pca_csv(out, table, coords, explained)
    svg = _resolve_out(doc, args.svg)
    if svg:
        write_pca_svg(svg, table, coords)
    embeddings = _resolve_out(doc, args.embeddings)
    if embeddings:
        write_embeddings_csv(embeddings, table)
    _echo_config(
        out,
        {"command": "project", "data_dir": args.data, "central_fraction": fraction, "checkpoint": args.ckpt},
    )
    print(f"wrote {len(table)} projected slices; explained variance {explained[0]:.3f}, {explained[1]:.3f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradient_check(seed=args.seed if args.seed is not None else 0)
    failed = []
    for kind, err in results.items():
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{kind}: max relative error {err:.3e} [{status}]")
        if err >= GRADCHECK_TOLERANCE:
            failed.append(kind)
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = load_run_config(args.config) if args.config else {}
    if args.sigmas is not None:
        sigmas = _parse_float_list(args.sigmas, "--sigmas")
    else:
        sigmas = list(DEFAULT_SWEEP_SIGMAS)
    if not sigmas:
        raise ConfigError("--sigmas must not be empty")
    seeds = _parse_int_list(args.seeds, "--seeds") if args.seeds else None
    fraction, volumes = _load_trimmed(args, doc)
    enc_cfg = _encoder_config(doc, args, volumes)
    optim_body = _seeded(doc, "optim", args)
    for flag, key in (("epochs", "epochs"), ("batch", "batch_size"), ("lr", "lr")):
        value = getattr(args, flag)
        if value is not None:
            optim_body[key] = value
    loss_body = _section(doc, "loss")
    loss_body["loss_kind"] = "wsp"
    if args.tau is not None:
        loss_body["tau"] = args.tau
    loss_cfg = build_config(LossConfig, loss_body, ConfigError)
    optim_cfg = build_config(OptimConfig, dict(optim_body, loss=loss_cfg), ConfigError)
    probe_cfg = build_config(ProbeConfig, _seeded(doc, "probe", args), ConfigError)
    rows = sigma_sweep(volumes, enc_cfg, optim_cfg, probe_cfg, sigmas=sigmas, seeds=seeds)
    out = _resolve_out(doc, args.out)
    write_sweep_csv(out, rows)
    _echo_config(
        out,
        {
            "command": "sweep",
            "data_dir": args.data,
            "sigmas": sigmas,
            "seeds": seeds if seeds is not None else [optim_cfg.seed],
            "optim": {k: v for k, v in asdict(optim_cfg).items() if k != "loss"},
            "probe": asdict(probe_cfg),
        },
    )
    for row in rows:
        print(f"sigma={row.sigma}: AUC {row.auc_mean:.4f} +- {row.auc_std:.4f}")
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from exc


def write_pca_svg(path, table, coords) -> None:
    """Static scatter: hue encodes the strong label, shade encodes depth."""
    size, margin, radius = 640, 48, 4.0
    xs = coords[:, 0]
    ys = coords[:, 1]
    span_x = float(xs.max() - xs.min()) or 1.0
    span_y = float(ys.max() - ys.min()) or 1.0
    inner = size - 2 * margin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        '<!-- hue: blue = strong label 0, red = strong label 1, gray = unlabeled; '
        "darker = deeper slice -->",
    ]
    for i in range(len(table)):
        cx = margin + inner * (float(xs[i]) - float(xs.min())) / span_x
        cy = size - margin - inner * (float(ys[i]) - float(ys.min())) / span_y
        depth = float(table.d[i])
        label = int(table.y_strong[i])
        if label == 1:
            base, dark = (250, 140, 120), (130, 20, 20)
        elif label == 0:
            base, dark = (120, 170, 250), (10, 40, 120)
        else:
            base, dark = (200, 200, 200), (60, 60, 60)
        rgb = tuple(round(b + (d - b) * depth) for b, d in zip(base, dark))
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius}" '
            f'fill="rgb({rgb[0]},{rgb[1]},{rgb[2]})" fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsp",
        description="Contrastive pretraining on weak labels and slice depth, with a linear-probe pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic synthetic dataset")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--volumes", type=int, default=None, help="number of volumes (default 60)")
    gen.add_argument("--slices", type=int, default=None, help="slices per volume (default 24)")
    gen.add_argument("--size", default=None, help="image size as HxW (default 32x32)")
    gen.add_argument("--noise", type=float, default=None, help="label-noise rate rho (default 0.1)")
    gen.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")
    gen.add_argument("--config", default=None, help="run-config JSON; flags override")
    gen.set_defaults(func=cmd_generate)

    pre = sub.add_parser("pretrain", help="contrastive pretraining on a dataset")
    pre.add_argument("--data", required=True, help="dataset directory")
    pre.add_argument("--loss", choices=sorted(_LOSS_FLAG_TO_KIND), default=None, help="loss kind (default wsp)")
    pre.add_argument("--sigma", type=float, default=None, help="depth-kernel bandwidth (default 0.1)")
    pre.add_argument("--tau", type=float, default=None, help="similarity temperature (default 0.1)")
    pre.add_argument("--epochs", type=int, default=None, help="training epochs (default 30)")
    pre.add_argument("--batch", type=int, default=None, help="batch size in slices (default 32)")
    pre.add_argument("--lr", type=float, default=None, help="peak learning rate (default 1e-4)")
    pre.add_argument("--weight-decay", dest="weight_decay", type=float, default=None, help="decoupled weight decay (default 1e-4)")
    pre.add_argument("--arch", choices=("tiny_cnn", "mlp"), default=None, help="encoder architecture (default tiny_cnn)")
    pre.add_argument("--fraction", type=float, default=None, help="central-slice fraction (default 0.7)")
    pre.add_argument("--out", required=True, help="checkpoint output path")
    pre.add_argument("--seed", type=int, default=None, help="training seed (default 0)")
    pre.add_argument("--config", default=None, help="run-config JSON; flags override")
    pre.set_defaults(func=cmd_pretrain)

    probe = sub.add_parser("probe", help="linear probe with stratified cross-validation")
    probe.add_argument("--data", required=True, help="dataset directory")
    probe.add_argument("--ckpt", required=True, help="checkpoint path, or 'random' for an untrained encoder")
    probe.add_argument("--folds", type=int, default=None, help="cross-validation folds (default 5)")
    probe.add_argument("--arch", choices=("tiny_cnn", "mlp"), default=None, help="architecture for --ckpt random")
    probe.add_argument("--fraction", type=float, default=None, help="central-slice fraction (default 0.7)")
    probe.add_argument("--out", required=True, help="metrics CSV output path")
    probe.add_argument("--seed", type=int, default=None, help="fold/init seed (default 0)")
    probe.add_argument("--config", default=None, help="run-config JSON; flags override")
    probe.set_defaults(func=cmd_probe)

    proj = sub.add_parser("project", help="export the 2-mode PCA of representations")
    proj.add_argument("--data", required=True, help="dataset directory")
    proj.add_argument("--ckpt", required=True, help="checkpoint path, or 'random'")
    proj.add_argument("--arch", choices=("tiny_cnn", "mlp"), default=None, help="architecture for --ckpt random")
    proj.add_argument("--fraction", type=float, default=None, help="central-slice fraction (default 0.7)")
    proj.add_argument("--out", required=True, help="PCA CSV output path")
    proj.add_argument("--svg", default=None, help="optional scatter SVG output path")
    proj.add_argument("--embeddings", default=None, help="optional raw-representation CSV output path")
    proj.add_argument("--seed", type=int, default=None, help="seed for --ckpt random (default 0)")
    proj.add_argument("--config", default=None, help="run-config JSON; flags override")
    proj.set_defaults(func=cmd_project)

    grad = sub.add_parser("gradcheck", help="verify loss gradients against finite differences")
    grad.add_argument("--seed", type=int, default=0, help="random seed for the check batches (default 0)")
    grad.set_defaults(func=cmd_gradcheck)

    sweep = sub.add_parser("sweep", help="pretrain+probe over a grid of sigma values")
    sweep.add_argument("--data", required=True, help="dataset directory")
    sweep.add_argument("--sigmas", default=None, help="comma-separated bandwidths (default 0.01,0.1,0.2,0.3,0.5)")
    sweep.add_argument("--seeds", default=None, help="comma-separated seeds (default: the --seed value)")
    sweep.add_argument("--epochs", type=int, default=None, help="training epochs (default 30)")
    sweep.add_argument("--batch", type=int, default=None, help="batch size (default 32)")
    sweep.add_argument("--lr", type=float, default=None, help="peak learning rate (default 1e-4)")
    sweep.add_argument("--tau", type=float, default=None, help="similarity temperature (default 0.1)")
    sweep.add_argument("--arch", choices=("tiny_cnn", "mlp"), default=None, help="encoder architecture")
    sweep.add_argument("--fraction", type=float, default=None, help="central-slice fraction (default 0.7)")
    sweep.add_argument("--out", required=True, help="sweep CSV output path")
    sweep.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sweep.add_argument("--config", default=None, help="run-config JSON; flags override")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "volumes", None) is not None and args.volumes < 1:
            raise ConfigError("--volumes must be >= 1")
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ContractError, DomainError, ShapeError, DegenerateInputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except WspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
