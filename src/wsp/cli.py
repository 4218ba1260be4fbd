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
import os
import sys
from dataclasses import asdict, is_dataclass, replace

import numpy as np

from .data import (
    CENTRAL_FRACTION,
    GeneratorConfig,
    central_view,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
)
from .encoders import ARCHS, EncoderCheckpoint, EncoderConfig, input_shape, load_checkpoint, save_checkpoint
from .encoders import untrained_checkpoint
from .errors import ConfigError, NonFiniteError, WspError, build_config, check_value, parse_json, write_csv, write_json
from .evaluation import DEFAULT_SWEEP_SIGMAS, ProbeConfig, extract_representations, pca_project, run_grid
from .evaluation import run_probe_protocol
from .losses import LossConfig, gradient_check
from .sampling import AugmentConfig
from .training import OptimConfig, pretrain

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
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc = parse_json(raw, f"run config {path}", ConfigError)
    unknown = set(doc) - _RUN_CONFIG_TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown run-config keys: {sorted(unknown)}")
    for key, kind, rule in (("seed", int, "[0, inf)"), ("output_dir", str, None)):
        if key in doc:
            check_value(f"run-config {key!r}", doc[key], kind, rule)
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


def _echo_config(primary_output: str, args, configs: dict, **inputs) -> None:
    """Write the effective configuration next to a command's main output; the one builder of every echo.

    The echo holds the command, its input paths, ``inputs`` and each config under its run-config
    section name, less any field holding a nested config (that config has its own section).
    """
    given = vars(args)
    paths = {key: given[dest] for key, dest in (("data_dir", "data"), ("checkpoint", "ckpt")) if dest in given}
    payload = {"command": args.command, **paths, **inputs}
    for section, cfg in configs.items():
        payload[section] = {key: value for key, value in asdict(cfg).items() if not is_dataclass(getattr(cfg, key))}
    is_dir = os.path.isdir(primary_output)
    write_json(os.path.join(primary_output, "run_config.json") if is_dir else primary_output + ".config.json", payload)


def _section(doc: dict, args, name: str, fallback_seed=None, **overrides) -> dict:
    """Run-config section ``name`` with its flags applied; the one merge of file, flags and seeds.

    A key takes, highest first: a non-None ``overrides`` value, the dotted flag
    ``name.key``, the config file's section. A section with a seed takes --seed,
    else its own, else ``fallback_seed`` (default: the top-level seed).
    """
    body = dict(doc.get(name) or {})
    flags = {dest[len(name) + 1 :]: value for dest, value in vars(args).items() if dest.startswith(name + ".")}
    body.update((key, value) for key, value in {**flags, **overrides}.items() if value is not None)
    if "seed" in _RUN_CONFIG_SECTIONS[name]:
        fallback = doc.get("seed") if fallback_seed is None else fallback_seed
        if args.seed is not None:
            body["seed"] = args.seed
        elif fallback is not None:
            body.setdefault("seed", fallback)
    return body


def _resolve_out(doc: dict, path: str | None) -> str | None:
    """Anchor relative output paths under the config's output_dir, if any."""
    if path is None:
        return None
    base = doc.get("output_dir")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(doc: dict, args) -> int:
    body = _section(doc, args, "data", **_parse_size(args.size))
    body.pop("central_fraction", None)
    cfg = build_config(GeneratorConfig, body, ConfigError)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    out = _resolve_out(doc, args.out)
    generator, volumes = generate_synthetic_dataset(cfg, seed)
    save_dataset(generator, volumes, out)
    _echo_config(out, args, {"data": cfg}, seed=seed)
    print(f"wrote {len(volumes)} volumes to {out}")
    return EXIT_OK


def _parse_size(text: str | None) -> dict:
    """``HxW`` as the data section's height and width; no keys when the flag is absent."""
    if text is None:
        return {}
    try:
        h_str, w_str = text.lower().split("x")
        return {"height": int(h_str), "width": int(w_str)}
    except ValueError as exc:
        raise ConfigError(f"--size must look like 32x32, got {text!r}") from exc


def parse_list(text: str, flag: str, kind) -> list:
    """The distinct ``kind`` values, in first-seen order, of the comma-separated ``flag`` list; else ConfigError."""
    try:
        values = list(dict.fromkeys(kind(tok) for tok in text.split(",") if tok.strip()))
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated values of type {kind.__name__}, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _load_trimmed(doc: dict, args):
    """The central-slice fraction (flag, then config, then default) and the volumes trimmed to it."""
    fraction = _section(doc, args, "data").get("central_fraction", CENTRAL_FRACTION)
    check_value("central_fraction", fraction, float, "(0, 1]")
    _, volumes = load_dataset(args.data)
    return float(fraction), central_view(volumes, fraction)


def _encoder_config(doc: dict, args, volumes) -> EncoderConfig:
    body = _section(doc, args, "encoder")
    if "input_shape" not in body:
        body["input_shape"] = input_shape(body.get("arch", "tiny_cnn"), volumes[0].slices[0].pixels.shape)
    return build_config(EncoderConfig, body, ConfigError)


def _training_configs(doc: dict, args, **loss_overrides):
    """The loss, optim and augment configs of a training command; augment's seed falls back to optim's."""
    loss_cfg = build_config(LossConfig, _section(doc, args, "loss", **loss_overrides), ConfigError)
    optim_cfg = build_config(OptimConfig, _section(doc, args, "optim", loss=loss_cfg), ConfigError)
    aug_cfg = build_config(AugmentConfig, _section(doc, args, "augment", fallback_seed=optim_cfg.seed), ConfigError)
    return loss_cfg, optim_cfg, aug_cfg


def cmd_pretrain(doc: dict, args) -> int:
    fraction, volumes = _load_trimmed(doc, args)
    loss_cfg, optim_cfg, aug_cfg = _training_configs(doc, args, loss_kind=_LOSS_FLAG_TO_KIND.get(args.loss))
    kind = loss_cfg.loss_kind
    if getattr(args, "loss.sigma") is not None and kind in ("supcon", "infonce"):
        print(f"warning: --sigma is ignored for loss kind {kind}", file=sys.stderr)
    enc_cfg = _encoder_config(doc, args, volumes)
    out = _resolve_out(doc, args.out)
    try:
        ckpt, curve = pretrain(volumes, enc_cfg, optim_cfg, aug_cfg)
    except NonFiniteError as exc:
        dump_path = out + ".dump.json"
        write_json(dump_path, getattr(exc, "details", {"error": str(exc)}))
        print(f"error: {exc}; batch dump written to {dump_path}", file=sys.stderr)
        return EXIT_NUMERIC
    save_checkpoint(ckpt, out)
    write_csv(out + ".loss.csv", ("epoch", "mean_loss", "lr"), [(rec.epoch, rec.mean_loss, rec.lr) for rec in curve])
    configs = {"encoder": enc_cfg, "loss": loss_cfg, "optim": optim_cfg, "augment": aug_cfg}
    _echo_config(out, args, configs, central_fraction=fraction)
    print(f"pretrained {kind} for {optim_cfg.epochs} epochs; final mean loss {curve[-1].mean_loss:.6f}")
    return EXIT_OK


def _resolve_checkpoint(doc: dict, args, volumes) -> EncoderCheckpoint:
    if args.ckpt == "random":
        return untrained_checkpoint(_encoder_config(doc, args, volumes))
    return load_checkpoint(args.ckpt)


def cmd_probe(doc: dict, args) -> int:
    fraction, volumes = _load_trimmed(doc, args)
    ckpt = _resolve_checkpoint(doc, args, volumes)
    probe_cfg = build_config(ProbeConfig, _section(doc, args, "probe"), ConfigError)
    report = run_probe_protocol(ckpt, volumes, probe_cfg)
    sigma = ckpt.loss_sigma if ckpt.loss_sigma is not None else float("nan")
    out = _resolve_out(doc, args.out)
    folds = zip(report.fold_auc_patient, report.fold_auc_slice, report.fold_bacc)
    rows = [(ckpt.loss_kind, sigma, f, *scores) for f, scores in enumerate(folds)]
    write_csv(out, ("method", "sigma", "fold", "auc_patient", "auc_slice", "bacc"), rows)
    _echo_config(out, args, {"encoder": ckpt.config, "probe": probe_cfg}, central_fraction=fraction)
    print(
        f"patient AUC {report.mean_auc_patient:.4f} +- {report.std_auc_patient:.4f} "
        f"(bACC {report.mean_bacc:.4f} +- {report.std_bacc:.4f}) over {probe_cfg.folds} folds"
    )
    return EXIT_OK


def cmd_project(doc: dict, args) -> int:
    fraction, volumes = _load_trimmed(doc, args)
    ckpt = _resolve_checkpoint(doc, args, volumes)
    table = extract_representations(ckpt, volumes)
    coords, explained = pca_project(table.repr, modes=2)
    out = _resolve_out(doc, args.out)
    slices = list(zip(table.patient_ids, table.slice_ids, table.d))
    rows = [(*ids, y, *pc) for ids, y, pc in zip(slices, table.y_strong, coords)]
    write_csv(out, ("patient_id", "slice_id", "d", "y_strong", "pc1", "pc2"), rows, ("explained_variance", *explained))
    svg = _resolve_out(doc, args.svg)
    if svg:
        write_pca_svg(svg, table, coords)
    embeddings = _resolve_out(doc, args.embeddings)
    if embeddings:
        dims = [f"r{i}" for i in range(table.repr.shape[1])]
        rows = [(*ids, *ys, *r) for ids, *ys, r in zip(slices, table.y_weak, table.y_strong, table.repr)]
        write_csv(embeddings, ("patient_id", "slice_id", "d", "y_weak", "y_strong", *dims), rows)
    _echo_config(out, args, {"encoder": ckpt.config}, central_fraction=fraction)
    print(f"wrote {len(table)} projected slices; explained variance {explained[0]:.3f}, {explained[1]:.3f}")
    return EXIT_OK


def cmd_gradcheck(doc: dict, args) -> int:
    seed = args.seed or 0
    check_value("--seed", seed, int, "[0, inf)")
    results = gradient_check(seed=seed)
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


def cmd_sweep(doc: dict, args) -> int:
    sigmas = parse_list(args.sigmas, "--sigmas", float) if args.sigmas is not None else list(DEFAULT_SWEEP_SIGMAS)
    seeds = parse_list(args.seeds, "--seeds", int) if args.seeds is not None else None
    fraction, volumes = _load_trimmed(doc, args)
    enc_cfg = _encoder_config(doc, args, volumes)
    loss_cfg, optim_cfg, aug_cfg = _training_configs(doc, args, loss_kind="wsp")
    probe_cfg = build_config(ProbeConfig, _section(doc, args, "probe"), ConfigError)
    seeds = seeds if seeds is not None else [optim_cfg.seed]

    def recipe(seed):  # the run's seed goes to the encoder, optim and augment configs; the probe keeps its own
        enc, optim, aug = (replace(cfg, seed=seed) for cfg in (enc_cfg, optim_cfg, aug_cfg))
        return volumes, enc, optim, probe_cfg, aug

    reports, _ = run_grid([("wsp", sigma) for sigma in sigmas], seeds, recipe)
    rows = []
    for sigma in sigmas:  # auc_std is the spread of the fold AUCs of all seeds, pooled
        aucs = [auc for seed in seeds for auc in reports[("wsp", sigma)][seed].fold_auc_patient]
        rows.append((sigma, np.mean(aucs), np.std(aucs)))
    out = _resolve_out(doc, args.out)
    write_csv(out, ("sigma", "auc_mean", "auc_std"), rows)
    configs = {"encoder": enc_cfg, "loss": loss_cfg, "optim": optim_cfg, "probe": probe_cfg, "augment": aug_cfg}
    _echo_config(out, args, configs, central_fraction=fraction, sigmas=sigmas, seeds=seeds)
    for sigma, mean, std in rows:
        print(f"sigma={sigma}: AUC {mean:.4f} +- {std:.4f}")
    return EXIT_OK


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


# Every flag once: flag -> (dest, argparse keywords). A dotted dest
# ``section.key`` names the run-config key that the flag overrides (see _section).
_FLAGS = {
    "--data": ("data", {"required": True, "help": "dataset directory"}),
    "--ckpt": ("ckpt", {"required": True, "help": "checkpoint path, or 'random' for an untrained encoder"}),
    "--out": ("out", {"required": True}),
    "--volumes": ("data.n_volumes", {"type": int, "help": "number of volumes (default 60)"}),
    "--slices": ("data.slices_per_volume", {"type": int, "help": "slices per volume (default 24)"}),
    "--size": ("size", {"help": "image size as HxW (default 32x32)"}),
    "--noise": ("data.noise_rate", {"type": float, "help": "label-noise rate rho (default 0.1)"}),
    "--fraction": ("data.central_fraction", {"type": float, "help": "central-slice fraction (default 0.7)"}),
    "--arch": ("encoder.arch", {"choices": ARCHS, "help": "encoder architecture (default tiny_cnn)"}),
    "--loss": ("loss", {"choices": sorted(_LOSS_FLAG_TO_KIND), "help": "loss kind (default wsp)"}),
    "--sigma": ("loss.sigma", {"type": float, "help": "depth-kernel bandwidth (default 0.1)"}),
    "--tau": ("loss.tau", {"type": float, "help": "similarity temperature (default 0.1)"}),
    "--epochs": ("optim.epochs", {"type": int, "help": "training epochs (default 30)"}),
    "--batch": ("optim.batch_size", {"type": int, "help": "batch size in slices (default 32)"}),
    "--lr": ("optim.lr", {"type": float, "help": "peak learning rate (default 1e-4)"}),
    "--weight-decay": ("optim.weight_decay", {"type": float, "help": "decoupled weight decay (default 1e-4)"}),
    "--folds": ("probe.folds", {"type": int, "help": "cross-validation folds (default 5)"}),
    "--sigmas": ("sigmas", {"help": "comma-separated bandwidths (default 0.01,0.1,0.2,0.3,0.5)"}),
    "--seeds": ("seeds", {"help": "comma-separated seeds (default: the --seed value)"}),
    "--svg": ("svg", {"help": "optional scatter SVG output path"}),
    "--embeddings": ("embeddings", {"help": "optional raw-representation CSV output path"}),
    "--seed": ("seed", {"type": int}),
    "--config": ("config", {"help": "run-config JSON; flags override"}),
}

_RANDOM_ARCH = ("--arch", "architecture for --ckpt random")

# Sub-command -> (function, help, flags in --help order); a (flag, help) pair
# gives the flag this command's own help text.
_COMMANDS = {
    "generate": (cmd_generate, "write a deterministic synthetic dataset", [
        ("--out", "output dataset directory"), "--volumes", "--slices", "--size", "--noise",
        ("--seed", "generator seed (default 0)"), "--config",
    ]),
    "pretrain": (cmd_pretrain, "contrastive pretraining on a dataset", [
        "--data", "--loss", "--sigma", "--tau", "--epochs", "--batch", "--lr", "--weight-decay", "--arch",
        "--fraction", ("--out", "checkpoint output path"), ("--seed", "training seed (default 0)"), "--config",
    ]),
    "probe": (cmd_probe, "linear probe with stratified cross-validation", [
        "--data", "--ckpt", "--folds", _RANDOM_ARCH, "--fraction", ("--out", "metrics CSV output path"),
        ("--seed", "fold/init seed (default 0)"), "--config",
    ]),
    "project": (cmd_project, "export the 2-mode PCA of representations", [
        "--data", "--ckpt", _RANDOM_ARCH, "--fraction", ("--out", "PCA CSV output path"), "--svg", "--embeddings",
        ("--seed", "seed for --ckpt random (default 0)"), "--config",
    ]),
    "gradcheck": (cmd_gradcheck, "verify loss gradients against finite differences", [
        ("--seed", "random seed for the check batches (default 0)"),
    ]),
    "sweep": (cmd_sweep, "pretrain+probe over a grid of sigma values", [
        "--data", "--sigmas", "--seeds", "--epochs", "--batch", "--lr", "--tau", "--arch", "--fraction",
        ("--out", "sweep CSV output path"), ("--seed", "base seed (default 0)"), "--config",
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsp",
        description="Contrastive pretraining on weak labels and slice depth, with a linear-probe pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for entry in flags:
            flag, own_help = entry if isinstance(entry, tuple) else (entry, None)
            dest, keywords = _FLAGS[flag]
            keywords = dict(keywords, dest=dest)
            if own_help:
                keywords["help"] = own_help
            if "choices" not in keywords:
                keywords["metavar"] = flag[2:].replace("-", "_").upper()  # not the dotted dest
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = getattr(args, "config", None)
    return run_with_exit_code(lambda: args.func(load_run_config(config) if config else {}, args))


def run_with_exit_code(func) -> int:
    """``func()``'s exit code; a WspError or OSError it raises is reported on stderr and mapped to its exit code."""
    try:
        return func()
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except WspError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
