"""Command-line entry point for generation, pretraining, probing and sweeps.

Every command is a pure function of (config file, flags, seed, input files):
flags override config-file values, the effective configuration is echoed next
to each primary output as a config file of the command, and no output file
contains a timestamp, so replaying an echo writes the same bytes.

Exit codes: 0 success, 2 usage/config, 3 data or format problem, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple, fields, is_dataclass, replace

import numpy as np

from .data import (
    CENTRAL_FRACTION,
    CENTRAL_FRACTION_RULE,
    GeneratorConfig,
    central_view,
    dataset_files,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    stale_volume_files,
)
from .encoders import ARCHS, EncoderCheckpoint, EncoderConfig, input_shape, load_checkpoint, save_checkpoint
from .encoders import untrained_checkpoint
from .errors import ConfigError, ContractError, NonFiniteError, WspError, build_config, check_value
from .errors import field_types, parse_json, replacing, write_csv, write_json
from .evaluation import ProbeConfig, extract_representations, pca_project, run_probe_protocol
from .losses import LOSS_KINDS, SIGMA_KINDS, LossConfig, gradient_check
from .sampling import AugmentConfig
from .training import EpochRecord, OptimConfig, pretrain

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# What run_with_exit_code reports of an error its command raises: the first class that matches, its exit code and the
# label its message is printed after. A MemoryError is a configuration whose arrays do not fit in memory.
_EXITS = {ConfigError: (EXIT_USAGE, "usage error"), NonFiniteError: (EXIT_NUMERIC, "numerical failure"),
          OSError: (EXIT_DATA, "io error"), WspError: (EXIT_DATA, "data error"),
          MemoryError: (EXIT_USAGE, "usage error: cannot allocate memory")}

GRADCHECK_TOLERANCE = 1e-5
DEFAULT_SEED = 0  # the top-level seed of generate and gradcheck

# The run-config's sections, each with its config class; a section's keys are given by _section_keys.
_SECTIONS = {"data": GeneratorConfig, "encoder": EncoderConfig, "loss": LossConfig, "optim": OptimConfig,
             "probe": ProbeConfig, "augment": AugmentConfig}

# The run-config's other keys, each with its kind and rule (see check_value); a kind in a list is a non-empty list of
# that kind whose every entry obeys the rule (see _top), and each of "sigmas" obeys loss.sigma's declared rule.
# "command" must name the running command; "data_dir" and "checkpoint" are never read.
_TOP_KEYS = {"command": (str, None), "data_dir": (str, None), "checkpoint": (str, None), "output_dir": (str, None),
             "seed": (int, "[0, inf)"), "central_fraction": (float, CENTRAL_FRACTION_RULE),
             "sigmas": ([float], field_types(LossConfig)["sigma"].__metadata__[0]),
             "seeds": ([int], "[0, inf)"), "methods": ([str], ("random", *LOSS_KINDS))}


def _section_keys(cls) -> set:
    """The keys of config class ``cls``'s section: its fields, less any holding a nested config (one with its own)."""
    return {name for name, hint in field_types(cls).items() if not is_dataclass(hint)}


def _top(doc: dict, args, key: str, default=None, error=ConfigError):
    """Top-level value ``key``: its flag in ``args``, else the run-config's, else ``default``; the one precedence of
    these. It must obey its ``_TOP_KEYS`` rule, else ``error``. A list value is its distinct entries, in first-seen
    order."""
    flag = getattr(args, key, None)
    value = doc.get(key, default) if flag is None else flag
    kind, rule = _TOP_KEYS[key]
    if not isinstance(kind, list):
        check_value(key, value, kind, rule, error)
        return kind(value)
    kind = kind[0]
    if flag is None and not isinstance(value, list):  # comma-separated text is a flag's form only
        raise error(f"{key} must be a list, got {value!r}")
    try:
        values = [kind(tok.strip()) for tok in value.split(",") if tok.strip()] if isinstance(value, str) else value
    except ValueError as exc:
        raise error(f"{key} must be comma-separated values of type {kind.__name__}, got {value!r}") from exc
    if not values:
        raise error(f"{key} must be a non-empty list, got {values!r}")
    for entry in values:
        check_value(f"{key} entries", entry, kind, rule, error)
    return list(dict.fromkeys(map(kind, values)))


def _check_run_config(doc: dict, command: str | None, error) -> None:
    """The run-config's rule, raised as ``error``; ``command`` is the running command, if there is one."""
    unknown = set(doc) - set(_TOP_KEYS) - set(_SECTIONS)
    if unknown:
        raise error(f"unknown run-config keys: {sorted(unknown)}")
    for key in (key for key in _TOP_KEYS if key in doc):
        _top(doc, None, key, error=error)
    if command is not None and doc.get("command", command) != command:
        raise error(f"run-config of command {doc['command']!r} given to command {command!r}")
    for section, cls in _SECTIONS.items():
        body = doc.get(section)
        if body is not None and not isinstance(body, dict):
            raise error(f"section {section!r} must be a JSON object")
        bad = set(body or {}) - _section_keys(cls)
        if bad:
            raise error(f"unknown keys in section {section!r}: {sorted(bad)}")


def load_run_config(path, command: str | None = None) -> dict:
    """Parse and check a run-config JSON document (see ``_check_run_config``); an echo of ``command`` is one."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc = parse_json(raw, f"run config {path}", ConfigError)
    _check_run_config(doc, command, ConfigError)
    return doc


def _echo_config(path: str, args, record: dict) -> None:
    """Write the effective configuration to ``path``, the echo that ``_claim_outputs`` claimed: the one builder of
    every echo, a run-config of its command that holds its input paths and ``record``, whose config objects are
    sections and whose other values are top-level keys. What ``_check_run_config`` refuses is a ContractError."""
    given = vars(args)
    payload = {"command": args.command}
    for key, dest in (("data_dir", "data"), ("checkpoint", "ckpt")):
        if given.get(dest) is not None:
            payload[key] = given[dest]
    for key, value in record.items():
        keys = _section_keys(type(value)) if is_dataclass(value) else None
        payload[key] = value if keys is None else {name: v for name, v in asdict(value).items() if name in keys}
    _check_run_config(payload, args.command, ContractError)
    write_json(path, payload)


def _section(doc: dict, args, name: str, fallback_seed=None, **overrides) -> dict:
    """Run-config section ``name`` with its flags applied; the one merge of file, flags and seeds.

    A key takes, highest first: a non-None ``overrides`` value, the dotted flag
    ``name.key``, the config file's section. A section with a seed takes --seed,
    else its own, else ``fallback_seed`` (default: the top-level seed).
    """
    body = dict(doc.get(name) or {})
    flags = {dest[len(name) + 1 :]: value for dest, value in vars(args).items() if dest.startswith(name + ".")}
    body.update((key, value) for key, value in {**flags, **overrides}.items() if value is not None)
    if "seed" in _section_keys(_SECTIONS[name]):
        fallback = doc.get("seed") if fallback_seed is None else fallback_seed
        if args.seed is not None:
            body["seed"] = args.seed
        elif fallback is not None:
            body.setdefault("seed", fallback)
    return body


def _claim_outputs(doc: dict, args, volumes, *derived) -> dict:
    """The one claim of a command's outputs, made before anything is written; returns their paths by name. They are
    --out, --svg and --embeddings as given, anchored under the config's output_dir, the echo (``run_config.json`` in
    generate's dataset, else ``out + ".config.json"``), the files ``out + suffix`` of ``derived``'s (name, suffix)
    pairs and, for generate, the ``dataset_files`` of ``volumes`` and the ``stale_volume_files`` it removes. One that
    resolves to another or to an input (--config, --ckpt unless random, or a ``dataset_files`` of ``volumes`` read
    from --data) is a ConfigError; then their directories are made."""
    given = {flag: getattr(args, flag[2:], None) for flag in ("--out", "--svg", "--embeddings")}
    outputs = {flag: os.path.join(doc.get("output_dir") or "", path) for flag, path in given.items() if path}
    out = outputs["--out"]
    echo = os.path.join(out, "run_config.json") if args.command == "generate" else out + ".config.json"
    outputs.update({"the echo": echo, **{name: out + suffix for name, suffix in derived}})
    ckpt, data = getattr(args, "ckpt", None), getattr(args, "data", None)
    inputs = [("--config", getattr(args, "config", None)), ("--ckpt", None if ckpt == "random" else ckpt)]
    ids = [v.volume_id for v in volumes or ()]
    if args.command == "generate":
        files = dataset_files(out, ids) + stale_volume_files(out, ids)
        outputs.update((f"the dataset's {os.path.basename(path)}", path) for path in files)
    elif data:
        inputs += [("--data", path) for path in dataset_files(data, ids)]
    claimed = {os.path.realpath(path): name for name, path in inputs if path}  # real path -> what names it
    for name, path in outputs.items():
        if (other := claimed.setdefault(os.path.realpath(path), name)) != name:
            clash = f"{other} and {name} both write" if other in outputs else f"{name} would overwrite input {other}"
            raise ConfigError(f"{clash} {path}; give each output its own file")
    for path in (outputs[flag] for flag in given if flag in outputs):
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    return outputs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(doc: dict, args) -> int:
    cfg = build_config(GeneratorConfig, _section(doc, args, "data", **_parse_size(args.size)), ConfigError)
    seed = _top(doc, args, "seed", DEFAULT_SEED)
    generator, volumes = generate_synthetic_dataset(cfg, seed)  # in memory: the claim below names its files
    paths = _claim_outputs(doc, args, volumes)
    save_dataset(generator, volumes, paths["--out"])
    _echo_config(paths["the echo"], args, {"data": cfg, "seed": seed})
    print(f"wrote {len(volumes)} volumes to {paths['--out']}")
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


def _load_trimmed(doc: dict, args):
    """The central-slice fraction and the volumes trimmed to it."""
    fraction = _top(doc, args, "central_fraction", CENTRAL_FRACTION)
    _, volumes = load_dataset(args.data)
    return fraction, central_view(volumes, fraction)


def _encoder_config(doc: dict, args, image_shape) -> EncoderConfig:
    body = _section(doc, args, "encoder")
    if "input_shape" not in body:
        body["input_shape"] = input_shape(body.get("arch", EncoderConfig.arch), image_shape)
    return build_config(EncoderConfig, body, ConfigError)


def _training_configs(doc: dict, args, **loss_overrides):
    """The loss, optim and augment configs of a training command; augment's seed falls back to optim's."""
    loss_cfg = build_config(LossConfig, _section(doc, args, "loss", **loss_overrides), ConfigError)
    optim_cfg = build_config(OptimConfig, _section(doc, args, "optim", loss=loss_cfg), ConfigError)
    aug_cfg = build_config(AugmentConfig, _section(doc, args, "augment", fallback_seed=optim_cfg.seed), ConfigError)
    return loss_cfg, optim_cfg, aug_cfg


def cmd_pretrain(doc: dict, args) -> int:
    fraction, volumes = _load_trimmed(doc, args)
    loss_cfg, optim_cfg, aug_cfg = _training_configs(doc, args)
    kind = loss_cfg.loss_kind
    if getattr(args, "loss.sigma") is not None and kind not in SIGMA_KINDS:
        print(f"warning: --sigma is ignored for loss kind {kind}", file=sys.stderr)
    enc_cfg = _encoder_config(doc, args, volumes[0].slices[0].pixels.shape)
    paths = _claim_outputs(doc, args, volumes, ("the loss curve", ".loss.csv"), ("the batch dump", ".dump.json"))
    try:
        ckpt, curve = pretrain(volumes, enc_cfg, optim_cfg, aug_cfg)
    except NonFiniteError as exc:
        write_json(paths["the batch dump"], exc.details)
        raise NonFiniteError(f"{exc}; batch dump written to {paths['the batch dump']}") from exc
    save_checkpoint(ckpt, paths["--out"])
    write_csv(paths["the loss curve"], [f.name for f in fields(EpochRecord)], map(astuple, curve))
    record = {"encoder": enc_cfg, "loss": loss_cfg, "optim": optim_cfg, "augment": aug_cfg}
    _echo_config(paths["the echo"], args, {**record, "central_fraction": fraction})
    print(f"pretrained {kind} for {optim_cfg.epochs} epochs; final mean loss {curve[-1].mean_loss:.6g}")
    return EXIT_OK


def _resolve_checkpoint(doc: dict, args, volumes) -> EncoderCheckpoint:
    if args.ckpt == "random":
        return untrained_checkpoint(_encoder_config(doc, args, volumes[0].slices[0].pixels.shape))
    return load_checkpoint(args.ckpt)


def cmd_probe(doc: dict, args) -> int:
    fraction, volumes = _load_trimmed(doc, args)
    ckpt = _resolve_checkpoint(doc, args, volumes)
    probe_cfg = build_config(ProbeConfig, _section(doc, args, "probe"), ConfigError)
    out, echo = map(_claim_outputs(doc, args, volumes).get, ("--out", "the echo"))
    report = run_probe_protocol(ckpt, volumes, probe_cfg)
    sigma = ckpt.loss_sigma if ckpt.loss_sigma is not None else float("nan")
    folds = zip(report.fold_auc_patient, report.fold_auc_slice, report.fold_bacc)
    rows = [(ckpt.loss_kind, sigma, f, *scores) for f, scores in enumerate(folds)]
    write_csv(out, ("method", "sigma", "fold", "auc_patient", "auc_slice", "bacc"), rows)
    _echo_config(echo, args, {"encoder": ckpt.config, "probe": probe_cfg, "central_fraction": fraction})
    print(
        f"patient AUC {report.mean_auc_patient:.4f} +- {report.std_auc_patient:.4f} "
        f"(bACC {report.mean_bacc:.4f} +- {report.std_bacc:.4f}) over {probe_cfg.folds} folds"
    )
    return EXIT_OK


def cmd_project(doc: dict, args) -> int:
    fraction, volumes = _load_trimmed(doc, args)
    ckpt = _resolve_checkpoint(doc, args, volumes)
    paths = _claim_outputs(doc, args, volumes)
    out, svg, embeddings = map(paths.get, ("--out", "--svg", "--embeddings"))
    table = extract_representations(ckpt, volumes)
    coords, explained = pca_project(table.repr)
    slices = list(zip(table.patient_ids, table.slice_ids, table.d))
    rows = [(*ids, y, *pc) for ids, y, pc in zip(slices, table.y_strong, coords)]
    write_csv(out, ("patient_id", "slice_id", "d", "y_strong", "pc1", "pc2"), rows, ("explained_variance", *explained))
    if svg:
        write_pca_svg(svg, table, coords)
    if embeddings:
        dims = [f"r{i}" for i in range(table.repr.shape[1])]
        rows = [(*ids, *ys, *r) for ids, *ys, r in zip(slices, table.y_weak, table.y_strong, table.repr)]
        write_csv(embeddings, ("patient_id", "slice_id", "d", "y_weak", "y_strong", *dims), rows)
    _echo_config(paths["the echo"], args, {"encoder": ckpt.config, "central_fraction": fraction})
    print(f"wrote {len(table)} projected slices; explained variance {explained[0]:.3f}, {explained[1]:.3f}")
    return EXIT_OK


def cmd_gradcheck(doc: dict, args) -> int:
    results = gradient_check(seed=_top(doc, args, "seed", DEFAULT_SEED))
    failed = [kind for kind, err in results.items() if not err < GRADCHECK_TOLERANCE]  # a NaN error fails too
    for kind, err in results.items():
        print(f"{kind}: max relative error {err:.3e} [{'FAIL' if kind in failed else 'ok'}]")
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


DEFAULT_SWEEP_SIGMAS = (0.01, 0.1, 0.2, 0.3, 0.5)
DEFAULT_SWEEP_METHODS = ("wsp",)

# A sweep given by its run-config alone (see sweep_plan).
_NO_FLAGS = argparse.Namespace(data=None, seed=None)


def sweep_plan(doc: dict, args=_NO_FLAGS):
    """A sweep, the one reading of its run-config and flags: ``(record, volumes)``.

    ``record`` is what the sweep's echo records and what ``sweep_runs`` runs. ``volumes`` are those of --data, else
    None: each seed's cohort is then generated from the data section with that seed. A data section given with --data
    is a usage error, so an echo never replays on another dataset than its own.
    """
    record = {"sigmas": _top(doc, args, "sigmas", list(DEFAULT_SWEEP_SIGMAS))}
    record["methods"] = _top(doc, args, "methods", list(DEFAULT_SWEEP_METHODS))
    if args.data is None:
        fraction, volumes = _top(doc, args, "central_fraction", CENTRAL_FRACTION), None
        record["data"] = build_config(GeneratorConfig, _section(doc, args, "data"), ConfigError)
        image_shape = (record["data"].height, record["data"].width)
    elif "data" in doc:
        raise ConfigError(f"--data {args.data} and the run-config's data section both give the dataset; give one")
    else:
        fraction, volumes = _load_trimmed(doc, args)
        image_shape = volumes[0].slices[0].pixels.shape
    record["encoder"] = _encoder_config(doc, args, image_shape)
    record["loss"], record["optim"], record["augment"] = _training_configs(doc, args, loss_kind="wsp")
    record["probe"] = build_config(ProbeConfig, _section(doc, args, "probe"), ConfigError)
    record.update(central_fraction=fraction, seeds=_top(doc, args, "seeds", [record["optim"].seed]))
    return record, volumes


def sweep_runs(record: dict, volumes=None):
    """Run the sweep ``record`` of ``sweep_plan`` seed by seed; yield ``(method, sigma, seed, volumes, checkpoint,
    report)`` for each method at each sigma, in that order.

    A run re-seeds the encoder, optim, probe and augment configs with its seed, trains on ``volumes`` (else on the
    seed's generated cohort) and probes the result. The untrained encoder (method "random") and a loss kind that does
    not read sigma run once per seed; their result is yielded at every sigma, the checkpoint's ``loss_sigma`` set to
    it.
    """
    for seed in record["seeds"]:
        enc, optim, probe, aug = (replace(record[name], seed=seed) for name in ("encoder", "optim", "probe", "augment"))
        cohort = volumes or central_view(generate_synthetic_dataset(record["data"], seed)[1],
                                         record["central_fraction"])
        for method in record["methods"]:
            for i, sigma in enumerate(record["sigmas"]):
                if i == 0 or method in SIGMA_KINDS:
                    if method == "random":
                        ckpt = untrained_checkpoint(enc)
                    else:
                        loss = replace(optim.loss, loss_kind=method, sigma=sigma)
                        ckpt, _ = pretrain(cohort, enc, replace(optim, loss=loss), aug)
                    report = run_probe_protocol(ckpt, cohort, probe)
                if method != "random":
                    ckpt = replace(ckpt, loss_sigma=sigma)
                yield method, sigma, seed, cohort, ckpt, report


def cmd_sweep(doc: dict, args) -> int:
    record, volumes = sweep_plan(doc, args)
    out, echo = map(_claim_outputs(doc, args, volumes).get, ("--out", "the echo"))
    aucs = {}  # per cell, its seeds' fold-mean AUCs
    for method, sigma, _, _, _, report in sweep_runs(record, volumes):
        aucs.setdefault((method, sigma), []).append(report.mean_auc_patient)
    seeds = record["seeds"]
    rows = [(*cell, seed, auc) for cell, values in aucs.items() for seed, auc in zip(seeds, values)]
    write_csv(out, ("method", "sigma", "seed", "auc_patient"), rows)
    _echo_config(echo, args, record)
    for (method, sigma), values in aucs.items():  # the spread of the seeds' fold-mean AUCs
        print(f"{method} sigma={sigma}: AUC {np.mean(values):.4f} +- {np.std(values):.4f} over {len(seeds)} seeds")
    return EXIT_OK


def write_pca_svg(path, table, coords) -> None:
    """Static scatter: hue encodes the strong label, shade encodes depth."""
    size, margin, radius = 640, 48, 4.0
    hues = {1: ((250, 140, 120), (130, 20, 20)), 0: ((120, 170, 250), (10, 40, 120))}  # label -> (base, dark) rgb
    low = coords.min(axis=0)
    spans = coords.max(axis=0) - low
    spans[spans == 0] = 1.0
    scaled = (size - 2 * margin) * (coords - low) / spans
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        "<!-- hue: blue = strong label 0, red = strong label 1, gray = unlabeled; darker = deeper slice -->",
    ]
    points = zip(margin + scaled[:, 0], size - margin - scaled[:, 1], table.d.tolist(), table.y_strong.tolist())
    for cx, cy, depth, label in points:
        base, dark = hues.get(label, ((200, 200, 200), (60, 60, 60)))
        rgb = ",".join(str(round(b + (d - b) * depth)) for b, d in zip(base, dark))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius}" fill="rgb({rgb})" fill-opacity="0.85"/>')
    parts.append("</svg>")
    with replacing(path) as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Every flag once: flag -> (dest, argparse keywords). A dotted dest ``section.key`` names the run-config key
# that the flag overrides (see _section), and a dest in _TOP_KEYS the top-level key (see _top).
_FLAGS = {
    "--data": ("data", {"required": True, "help": "dataset directory"}),
    "--ckpt": ("ckpt", {"required": True, "help": "checkpoint path, or 'random' for an untrained encoder"}),
    "--out": ("out", {"required": True}),
    "--volumes": ("data.n_volumes", {"type": int, "help": f"number of volumes (default {GeneratorConfig.n_volumes})"}),
    "--slices": ("data.slices_per_volume",
                 {"type": int, "help": f"slices per volume (default {GeneratorConfig.slices_per_volume})"}),
    "--size": ("size", {"help": f"image size as HxW (default {GeneratorConfig.height}x{GeneratorConfig.width})"}),
    "--noise": ("data.noise_rate",
                {"type": float, "help": f"label-noise rate rho (default {GeneratorConfig.noise_rate})"}),
    "--fraction": ("central_fraction", {"type": float, "help": f"central-slice fraction (default {CENTRAL_FRACTION})"}),
    "--arch": ("encoder.arch", {"choices": ARCHS, "help": f"encoder architecture (default {EncoderConfig.arch})"}),
    "--loss": ("loss.loss_kind", {"choices": LOSS_KINDS, "help": f"loss kind (default {LossConfig.loss_kind})"}),
    "--sigma": ("loss.sigma", {"type": float, "help": f"depth-kernel bandwidth (default {LossConfig.sigma})"}),
    "--tau": ("loss.tau", {"type": float, "help": f"similarity temperature (default {LossConfig.tau})"}),
    "--epochs": ("optim.epochs", {"type": int, "help": f"training epochs (default {OptimConfig.epochs})"}),
    "--batch": ("optim.batch_size", {"type": int, "help": f"batch size in slices (default {OptimConfig.batch_size})"}),
    "--lr": ("optim.lr", {"type": float, "help": f"peak learning rate (default {OptimConfig.lr})"}),
    "--weight-decay": ("optim.weight_decay",
                       {"type": float, "help": f"decoupled weight decay (default {OptimConfig.weight_decay})"}),
    "--folds": ("probe.folds", {"type": int, "help": f"cross-validation folds (default {ProbeConfig.folds})"}),
    "--sigmas": ("sigmas", {"help": "comma-separated bandwidths "
                            f"(default {','.join(map(str, DEFAULT_SWEEP_SIGMAS))})"}),
    "--seeds": ("seeds", {"help": "comma-separated seeds (default: the optim seed)"}),
    "--methods": ("methods", {"help": "comma-separated methods, each random or a loss kind "
                                      f"(default {','.join(DEFAULT_SWEEP_METHODS)})"}),
    "--svg": ("svg", {"help": "optional scatter SVG output path"}),
    "--embeddings": ("embeddings", {"help": "optional raw-representation CSV output path"}),
    "--seed": ("seed", {"type": int}),
    "--config": ("config", {"help": "run-config JSON; flags override"}),
}

_RANDOM_ARCH = ("--arch", "architecture for --ckpt random")

# Sub-command -> (function, help, flags in --help order); a (flag, help) pair gives the flag this command's own help
# text, and a (flag, keywords) pair its own argparse keywords.
_COMMANDS = {
    "generate": (cmd_generate, "write a deterministic synthetic dataset", [
        ("--out", "output dataset directory"), "--volumes", "--slices", "--size", "--noise",
        ("--seed", f"generator seed (default {DEFAULT_SEED})"), "--config",
    ]),
    "pretrain": (cmd_pretrain, "contrastive pretraining on a dataset", [
        "--data", "--loss", "--sigma", "--tau", "--epochs", "--batch", "--lr", "--weight-decay", "--arch",
        "--fraction", ("--out", "checkpoint output path"), ("--seed", f"training seed (default {OptimConfig.seed})"),
        "--config",
    ]),
    "probe": (cmd_probe, "linear probe with stratified cross-validation", [
        "--data", "--ckpt", "--folds", _RANDOM_ARCH, "--fraction", ("--out", "metrics CSV output path"),
        ("--seed", f"fold/init seed (default {ProbeConfig.seed})"), "--config",
    ]),
    "project": (cmd_project, "export the 2-mode PCA of representations", [
        "--data", "--ckpt", _RANDOM_ARCH, "--fraction", ("--out", "PCA CSV output path"), "--svg", "--embeddings",
        ("--seed", f"seed for --ckpt random (default {EncoderConfig.seed})"), "--config",
    ]),
    "gradcheck": (cmd_gradcheck, "verify loss gradients against finite differences", [
        ("--seed", f"random seed for the check batches (default {DEFAULT_SEED})"),
    ]),
    "sweep": (cmd_sweep, "pretrain+probe over a grid of methods and sigma values", [
        ("--data", {"required": False, "help": "dataset directory (default: generate each seed's cohort from the "
                                               "data section with that seed)"}),
        "--methods", "--sigmas", "--seeds", "--epochs", "--batch", "--lr", "--tau", "--arch", "--fraction",
        ("--out", "sweep CSV output path"), ("--seed", f"base seed (default {OptimConfig.seed})"), "--config",
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
            flag, own = entry if isinstance(entry, tuple) else (entry, {})
            dest, keywords = _FLAGS[flag]
            keywords = dict(keywords, dest=dest, **(own if isinstance(own, dict) else {"help": own}))
            if "choices" not in keywords:
                keywords["metavar"] = flag[2:].replace("-", "_").upper()  # not the dotted dest
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = getattr(args, "config", None)
    return run_with_exit_code(lambda: args.func(load_run_config(config, args.command) if config else {}, args))


def run_with_exit_code(func) -> int:
    """``func()``'s exit code; an error of ``_EXITS`` it raises is reported on stderr and mapped to its exit code.
    numpy's overflow and invalid-value warnings are silenced: each numeric failure is checked and exits 4."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return func()
    except tuple(_EXITS) as exc:
        code, label = next(entry for kind, entry in _EXITS.items() if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
