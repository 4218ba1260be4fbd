import argparse
import dataclasses
import filecmp
import hashlib
import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsp.benchmark import BENCHMARK_CONFIG
from wsp.cli import (
    _COMMANDS,
    _FLAGS,
    DEFAULT_SEED,
    DEFAULT_SWEEP_METHODS,
    DEFAULT_SWEEP_SIGMAS,
    build_parser,
    main,
    run_with_exit_code,
    sweep_plan,
    sweep_runs,
    write_pca_svg,
)
from wsp.data import (
    CENTRAL_FRACTION,
    GeneratorConfig,
    Slice,
    Volume,
    central_view,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
)
from wsp.encoders import EncoderConfig, load_checkpoint, save_checkpoint, untrained_checkpoint
from wsp.errors import ConfigError, ContractError, FormatError, NonFiniteError, write_csv
from wsp.evaluation import ProbeConfig, RepresentationTable, run_probe_protocol
from wsp.losses import LossConfig
from wsp.sampling import AugmentConfig, BatchSpec, epoch_batches
from wsp.training import OptimConfig, pretrain

from oracles import patch_checkpoint_value, rewrite_checkpoint_header, write_raw_dataset


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "set"
    code = run(
        ["generate", "--out", str(path), "--volumes", "14", "--slices", "6", "--seed", "3"]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "enc.ckpt"
    code = run(
        [
            "pretrain",
            "--data", str(dataset_dir),
            "--loss", "wsp",
            "--epochs", "1",
            "--batch", "4",
            "--out", str(out),
            "--seed", "1",
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_replay_identical_directories(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--out", str(out), "--volumes", "5", "--slices", "4", "--seed", "7"]) == 0
        comparison = filecmp.dircmp(a, b)
        assert not comparison.diff_files
        for name in comparison.common_files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_volumes_is_usage_error(self, tmp_path):
        assert run(["generate", "--out", str(tmp_path / "x"), "--volumes", "0"]) == 2

    def test_size_without_an_x_is_usage_error(self, tmp_path, capsys):
        assert run(["generate", "--out", str(tmp_path / "x"), "--size", "32"]) == 2
        err = capsys.readouterr().err
        assert "usage error: --size must look like 32x32" in err
        assert "Traceback" not in err

    def test_out_below_a_regular_file_is_io_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert run(["generate", "--out", str(tmp_path / "file" / "sub"), "--volumes", "2", "--slices", "2"]) == 3
        err = capsys.readouterr().err
        assert "io error: [Errno 17] File exists" in err
        assert "Traceback" not in err

    def test_a_replaced_dataset_leaves_no_stale_volume_file(self, tmp_path):
        flags = ["generate", "--out", str(tmp_path / "st"), "--slices", "2", "--size", "8x8"]
        assert run([*flags, "--volumes", "3"]) == 0
        assert run([*flags, "--volumes", "2"]) == 0
        names = sorted(path.name for path in (tmp_path / "st").iterdir())
        assert names == ["V000.wspv", "V001.wspv", "manifest.json", "run_config.json"]

    def test_manifest_loads(self, dataset_dir):
        _, volumes = load_dataset(dataset_dir)
        assert len(volumes) == 14

    def test_config_echo_written(self, dataset_dir):
        echo = json.loads((dataset_dir / "run_config.json").read_text())
        assert echo["command"] == "generate"
        assert echo["seed"] == 3


class TestPretrain:
    def test_spec_defaults(self):
        # CLI flags default to the dataclass values below.
        loss = LossConfig()
        assert loss.sigma == 0.1 and loss.tau == 0.1
        optim = OptimConfig()
        assert optim.epochs == 30 and optim.batch_size == 32
        assert ProbeConfig().folds == 5

    def test_checkpoint_and_loss_curve_written(self, checkpoint):
        ckpt = load_checkpoint(checkpoint)
        assert ckpt.loss_kind == "wsp"
        curve = checkpoint.parent.joinpath(checkpoint.name + ".loss.csv").read_text().splitlines()
        assert curve[0] == "epoch,mean_loss,lr"
        assert len(curve) == 2  # one epoch

    def test_summary_states_a_huge_loss_in_six_significant_digits(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "t.ckpt"
        assert run(["generate", "--out", str(data), "--volumes", "12", "--slices", "4"]) == 0
        capsys.readouterr()
        code = run(["pretrain", "--data", str(data), "--arch", "mlp", "--epochs", "1", "--batch", "4",
                    "--tau", "1e-307", "--out", str(out)])
        assert code == 0
        (line,) = capsys.readouterr().out.splitlines()
        last = float(out.parent.joinpath(out.name + ".loss.csv").read_text().splitlines()[-1].split(",")[1])
        assert 1e300 < last < float("inf")  # finite, and 300 digits long in fixed point
        assert len(line) < 100
        assert float(line.rsplit(" ", 1)[1]) == float(f"{last:.6g}")

    def test_sigma_warning_for_supcon(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "s.ckpt"
        code = run(
            [
                "pretrain",
                "--data", str(dataset_dir),
                "--loss", "supcon",
                "--sigma", "0.3",
                "--epochs", "1",
                "--batch", "4",
                "--out", str(out),
                "--seed", "0",
            ]
        )
        assert code == 0
        assert "ignored" in capsys.readouterr().err

    def test_seed_replay_identical_checkpoint(self, dataset_dir, tmp_path):
        outs = [tmp_path / "r1.ckpt", tmp_path / "r2.ckpt"]
        for out in outs:
            assert run(
                [
                    "pretrain",
                    "--data", str(dataset_dir),
                    "--loss", "depth_aware",
                    "--epochs", "1",
                    "--batch", "4",
                    "--out", str(out),
                    "--seed", "5",
                ]
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("arch", ["tiny_cnn", "mlp"])
    def test_infonce_on_cohort_smaller_than_batch(self, tmp_path, capsys, arch):
        # 12 patients at the default batch of 32: the fallback sampler draws some slices twice,
        # so a slice brings four views to the batch.
        data = tmp_path / "d"
        assert run(["generate", "--out", str(data), "--volumes", "12", "--slices", "4", "--seed", "0"]) == 0
        out = tmp_path / "x.ckpt"
        code = run(["pretrain", "--data", str(data), "--loss", "infonce", "--arch", arch, "--epochs", "2",
                    "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_checkpoint(out).loss_kind == "infonce"

    def test_non_square_images_train_with_augmentation_disabled(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert run(["generate", "--out", str(data), "--volumes", "12", "--slices", "4", "--size", "16x12"]) == 0
        off = tmp_path / "off.json"
        off.write_text(json.dumps({"augment": {"enabled": False}}))
        flags = ["pretrain", "--data", str(data), "--arch", "mlp", "--epochs", "1", "--batch", "4"]
        assert run([*flags, "--config", str(off), "--out", str(tmp_path / "off.ckpt")]) == 0
        assert run([*flags, "--out", str(tmp_path / "on.ckpt")]) == 3
        assert "augment expects square images, got (16, 12)" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, dataset_dir, tmp_path):
        # --data takes the dataset directory; its manifest's path is not one.
        for data in (tmp_path / "nope", dataset_dir / "manifest.json"):
            code = run(["pretrain", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "c")])
            assert code == 3

    @pytest.mark.parametrize(
        "edit",
        [lambda r: 5, lambda r: {**r, "file": 7}, lambda r: {**r, "file": "../" + r["file"]},
         lambda r: {**r, "file": "V001.wspv"}],
        ids=["record-not-object", "file-not-string", "file-outside", "file-shared"],
    )
    def test_malformed_manifest_record_is_data_error(self, dataset_dir, tmp_path, capsys, edit):
        data = tmp_path / "set"
        shutil.copytree(dataset_dir, data)
        doc = json.loads((data / "manifest.json").read_text())
        # A valid volume just outside the directory, so only confinement can reject "../<file>".
        shutil.copy(data / doc["volumes"][0]["file"], tmp_path)
        doc["volumes"][0] = edit(doc["volumes"][0])
        (data / "manifest.json").write_text(json.dumps(doc))
        code = run(["pretrain", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "c.ckpt")])
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_pixel_is_data_error(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "set"
        shutil.copytree(dataset_dir, data)
        victim = data / json.loads((data / "manifest.json").read_text())["volumes"][0]["file"]
        blob = bytearray(victim.read_bytes())
        blob[26:30] = struct.pack("<f", float("nan"))  # the first pixel of the first slice
        victim.write_bytes(bytes(blob))
        code = run(["pretrain", "--data", str(data), "--arch", "mlp", "--epochs", "1", "--batch", "4",
                    "--out", str(tmp_path / "c.ckpt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error:" in err
        assert "Traceback" not in err

    def test_non_finite_loss_writes_batch_dump(self, dataset_dir, tmp_path, monkeypatch, capsys):
        from wsp.errors import NonFiniteError

        def exploding(*args, **kwargs):
            err = NonFiniteError("non-finite loss nan at epoch 0, batch 0")
            err.details = {"epoch": 0, "batch": 0, "slice_ids": ["V000/1"]}
            raise err

        monkeypatch.setattr("wsp.cli.pretrain", exploding)
        out = tmp_path / "boom.ckpt"
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--epochs", "1", "--batch", "4", "--out", str(out), "--seed", "0"]
        )
        assert code == 4
        dump = tmp_path / "boom.ckpt.dump.json"
        assert dump.exists()
        assert json.loads(dump.read_text())["slice_ids"] == ["V000/1"]
        assert "dump" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def small_dataset(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("small") / "set"
        assert run(["generate", "--out", str(path), "--volumes", "8", "--slices", "4", "--size", "16x16"]) == 0
        return path

    def test_diverging_projections_exit_numeric_with_batch_dump(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "d.ckpt"
        code = run(["pretrain", "--data", str(small_dataset), "--arch", "mlp", "--epochs", "3", "--batch", "4",
                    "--lr", "1e300", "--weight-decay", "0", "--out", str(out)])
        assert code == 4
        assert "non-finite projections at epoch 0, batch 1" in capsys.readouterr().err
        dump = json.loads((tmp_path / "d.ckpt.dump.json").read_text())
        assert sorted(dump) == ["batch", "d", "epoch", "patient_ids", "slice_ids", "y"]
        assert (dump["epoch"], dump["batch"], len(dump["slice_ids"])) == (0, 1, 8)
        assert not out.exists()

    def test_diverging_gradient_exit_numeric_with_batch_dump(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "g.ckpt"
        code = run(["pretrain", "--data", str(small_dataset), "--arch", "mlp", "--epochs", "3", "--batch", "4",
                    "--lr", "1e150", "--weight-decay", "0", "--out", str(out)])
        assert code == 4
        assert "non-finite gradient for parameter 'proj1_w' at epoch 0, batch 1" in capsys.readouterr().err
        dump = json.loads((tmp_path / "g.ckpt.dump.json").read_text())
        assert (dump["epoch"], dump["batch"], len(dump["slice_ids"])) == (0, 1, 8)
        assert not out.exists()

    def test_non_finite_parameters_are_numeric_error_and_no_checkpoint(self, small_dataset, tmp_path, capsys):
        config = tmp_path / "sgd.json"
        config.write_text(json.dumps({"optim": {"optimizer": "sgd_momentum", "weight_decay": 0}}))
        out = tmp_path / "p.ckpt"
        code = run(["pretrain", "--data", str(small_dataset), "--arch", "mlp", "--epochs", "1", "--batch", "8",
                    "--lr", "1e308", "--config", str(config), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure: non-finite parameter 'fc2_b' at epoch 0, batch 0; batch dump written to" in err
        assert "Traceback" not in err
        assert not out.exists()


def huge_weight_checkpoint(dataset_dir, path):
    """An untrained mlp checkpoint for ``dataset_dir``'s images whose first layer is scaled by 1e306: every parameter
    is finite, but the representations overflow."""
    _, volumes = load_dataset(dataset_dir)
    ckpt = untrained_checkpoint(EncoderConfig(arch="mlp", input_shape=(volumes[0].slices[0].pixels.size,)))
    ckpt.params["fc1_w"] *= 1e306
    save_checkpoint(ckpt, path)
    return path


class TestProbe:
    def test_metrics_schema_and_exit_code(self, dataset_dir, checkpoint, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = run(
            ["probe", "--data", str(dataset_dir), "--ckpt", str(checkpoint), "--folds", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,sigma,fold,auc_patient,auc_slice,bacc"
        assert len(lines) == 4
        assert "patient AUC" in capsys.readouterr().out

    def test_random_sentinel(self, dataset_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        code = run(
            ["probe", "--data", str(dataset_dir), "--ckpt", "random", "--folds", "3", "--out", str(out), "--seed", "2"]
        )
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("random,")

    def test_infinite_checkpoint_parameter_is_data_error(self, dataset_dir, checkpoint, tmp_path, capsys):
        ckpt = load_checkpoint(checkpoint)
        bad = tmp_path / "inf.ckpt"
        save_checkpoint(ckpt, bad)
        patch_checkpoint_value(bad, ckpt.params, "repr_b", 0, float("inf"))
        code = run(["probe", "--data", str(dataset_dir), "--ckpt", str(bad), "--folds", "3", "--out", str(tmp_path / "m.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error:" in err
        assert "Traceback" not in err

    def test_non_finite_representations_are_numeric_error(self, dataset_dir, tmp_path, capsys):
        ckpt = huge_weight_checkpoint(dataset_dir, tmp_path / "huge.ckpt")
        out = tmp_path / "m.csv"
        assert run(["probe", "--data", str(dataset_dir), "--ckpt", str(ckpt), "--folds", "3", "--out", str(out)]) == 4
        assert "numerical failure: the encoder's representations are non-finite, or their sum of squares overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_folds_is_data_error(self, dataset_dir, checkpoint, tmp_path):
        code = run(
            ["probe", "--data", str(dataset_dir), "--ckpt", str(checkpoint), "--folds", "12", "--out", str(tmp_path / "m.csv")]
        )
        assert code == 3


class TestProject:
    def test_csv_svg_and_embeddings(self, dataset_dir, checkpoint, tmp_path):
        out = tmp_path / "pca.csv"
        svg = tmp_path / "pca.svg"
        emb = tmp_path / "embeddings.csv"
        code = run(
            [
                "project", "--data", str(dataset_dir), "--ckpt", str(checkpoint),
                "--out", str(out), "--svg", str(svg), "--embeddings", str(emb),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# explained_variance,")
        assert lines[1] == "patient_id,slice_id,d,y_strong,pc1,pc2"
        _, volumes = load_dataset(dataset_dir)
        # 6 slices/volume, fraction 0.7 -> 4 per volume
        assert len(lines) - 2 == 4 * len(volumes)
        tree = ET.parse(svg)  # well-formed XML
        assert tree.getroot().tag.endswith("svg")
        emb_lines = emb.read_text().splitlines()
        assert emb_lines[0].startswith("patient_id,slice_id,d,y_weak,y_strong,r0,")
        assert emb_lines[0].endswith("r255")
        assert len(emb_lines) - 1 == 4 * len(volumes)

    def test_deterministic(self, dataset_dir, checkpoint, tmp_path):
        outs = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for out in outs:
            assert run(["project", "--data", str(dataset_dir), "--ckpt", str(checkpoint), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_scatter_svg_bytes(self, tmp_path):
        # One point of each hue: strong label 1 (red), 0 (blue) and -1 (unlabeled, grey), at three depths.
        table = RepresentationTable(["p0", "p1", "p2"], ["s0", "s1", "s2"], np.array([0.0, 0.5, 0.75]),
                                    np.array([1, 0, 1]), np.array([1, 0, -1]), np.zeros((3, 2)))
        svg = tmp_path / "three.svg"
        write_pca_svg(svg, table, np.array([[0.0, 1.0], [2.5, -1.0], [-1.25, 0.5]]))
        digest = hashlib.sha256(svg.read_bytes()).hexdigest()
        assert digest == "49ebaee42be983bc364006349ca33359e34b0dcd91349616c69665150fe81a73"

    def test_non_finite_representations_are_numeric_error(self, dataset_dir, tmp_path, capsys):
        ckpt = huge_weight_checkpoint(dataset_dir, tmp_path / "huge.ckpt")
        out = tmp_path / "pca.csv"
        assert run(["project", "--data", str(dataset_dir), "--ckpt", str(ckpt), "--out", str(out)]) == 4
        assert "numerical failure: the encoder's representations are non-finite, or their sum of squares overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "outputs",
        [
            {"--out": "p.csv", "--svg": "p.csv"},
            {"--out": "p.csv", "--embeddings": "sub/../p.csv"},
            {"--out": "q.csv", "--svg": "e.csv", "--embeddings": "e.csv"},
            {"--out": "q.csv", "--svg": "q.csv.config.json"},
            {"--out": "q.csv", "--embeddings": "link.csv"},
            {"--out": "new/p.csv", "--svg": "new/p.csv"},
        ],
        ids=["out-svg", "out-embeddings", "svg-embeddings", "svg-echo", "embeddings-symlink-to-out",
             "out-svg-in-a-new-directory"],
    )
    def test_outputs_that_share_a_file_are_usage_error(self, dataset_dir, tmp_path, capsys, outputs):
        # Relative paths are anchored under output_dir first; then one real path is one file. A refused run makes no
        # directory either.
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "q.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"output_dir": str(tmp_path)}))
        flags = [token for flag, path in outputs.items() for token in (flag, path)]
        assert run(["project", "--data", str(dataset_dir), "--ckpt", "random", "--config", str(config), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "both write" in err and "Traceback" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "run.json", "sub"]


def tree(root):
    """Every file and directory under ``root``: its relative path -> its bytes, or None for a directory."""
    return {path.relative_to(root): None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


_MLP_EPOCH = ["--arch", "mlp", "--epochs", "1", "--batch", "4"]

# Runs whose output is one of their own inputs, their paths relative to a directory that holds the dataset "d", the
# checkpoint "c.ckpt", the 3-volume dataset "st" and the run-configs "run.json", "o.loss.csv", "o.dump.json",
# "g/manifest.json", "g/V001.wspv" and "st/V002.wspv" (each "{}").
_OVER_INPUT = {
    "probe-out-over-manifest": ["probe", "--data", "d", "--ckpt", "random", "--arch", "mlp", "--folds", "2", "--out",
                                "d/manifest.json"],
    "project-out-over-ckpt": ["project", "--data", "d", "--ckpt", "c.ckpt", "--out", "c.ckpt"],
    "project-embeddings-over-manifest": ["project", "--data", "d", "--ckpt", "random", "--out", "p.csv",
                                         "--embeddings", "d/manifest.json"],
    "pretrain-out-over-volume": ["pretrain", "--data", "d", *_MLP_EPOCH, "--out", "d/V000.wspv"],
    "pretrain-out-over-config": ["pretrain", "--data", "d", *_MLP_EPOCH, "--config", "run.json", "--out", "run.json"],
    "pretrain-loss-curve-over-config": ["pretrain", "--data", "d", *_MLP_EPOCH, "--config", "o.loss.csv", "--out", "o"],
    "pretrain-dump-over-config": ["pretrain", "--data", "d", *_MLP_EPOCH, "--config", "o.dump.json", "--out", "o"],
    "sweep-out-over-manifest": ["sweep", "--data", "d", *_MLP_EPOCH, "--sigmas", "0.1", "--seeds", "0", "--out",
                                "d/manifest.json"],
    "generate-echo-over-config": ["generate", "--config", "d/run_config.json", "--out", "d"],
    "generate-manifest-over-config": ["generate", "--volumes", "2", "--slices", "4", "--config", "g/manifest.json",
                                      "--out", "g"],
    "generate-volume-over-config": ["generate", "--volumes", "2", "--slices", "4", "--config", "g/V001.wspv",
                                    "--out", "g"],
    "generate-stale-volume-over-config": ["generate", "--volumes", "2", "--slices", "2", "--size", "8x8", "--config",
                                          "st/V002.wspv", "--out", "st"],
}


class TestOutputsOverInputs:
    """No command writes over one of its own inputs: such a run is a usage error, refused before anything is
    written."""

    @staticmethod
    def assert_refused(argv, root, capsys):
        before = tree(root)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err
        assert tree(root) == before  # every input byte for byte, and no new file or directory

    @pytest.mark.parametrize("argv", list(_OVER_INPUT.values()), ids=list(_OVER_INPUT))
    def test_output_over_an_input_is_usage_error(self, dataset_dir, checkpoint, tmp_path, monkeypatch, capsys, argv):
        shutil.copytree(dataset_dir, tmp_path / "d")
        shutil.copy(checkpoint, tmp_path / "c.ckpt")
        (tmp_path / "g").mkdir()
        tiny = GeneratorConfig(n_volumes=3, slices_per_volume=2, height=8, width=8)
        save_dataset(*generate_synthetic_dataset(tiny, 0), tmp_path / "st")
        for name in ("run.json", "o.loss.csv", "o.dump.json", "g/manifest.json", "g/V001.wspv", "st/V002.wspv"):
            (tmp_path / name).write_text("{}")
        monkeypatch.chdir(tmp_path)
        self.assert_refused(argv, tmp_path, capsys)

    def test_echo_replayed_onto_its_own_output_is_usage_error(self, dataset_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        flags = ["probe", "--data", str(dataset_dir), "--ckpt", "random", "--arch", "mlp", "--folds", "2"]
        assert run([*flags, "--out", "o.csv"]) == 0
        self.assert_refused([*flags, "--config", "o.csv.config.json", "--out", "o.csv"], tmp_path, capsys)


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert run(["gradcheck", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        for kind in ("wsp", "supcon", "depth_aware", "infonce"):
            assert kind in output

    def test_failed_kind_is_numeric_failure(self, monkeypatch, capsys):
        results = {"wsp": 1.0, "supcon": 0.0, "infonce": float("nan")}  # a NaN error fails too
        monkeypatch.setattr("wsp.cli.gradient_check", lambda seed: results)
        assert run(["gradcheck", "--seed", "0"]) == 4
        out, err = capsys.readouterr()
        assert "infonce: max relative error nan [FAIL]" in out
        assert "gradient check failed for: wsp, infonce" in err
        assert "Traceback" not in err


# Each error a command may raise, its exit code and its stderr line; ConfigError and NonFiniteError are WspErrors too.
EXIT_TABLE = [
    (ConfigError("bad flag"), 2, "usage error: bad flag"),
    (NonFiniteError("nan loss"), 4, "numerical failure: nan loss"),
    (FormatError("bad magic"), 3, "data error: bad magic"),
    (ContractError("bad shape"), 3, "data error: bad shape"),
    (FileNotFoundError("no file"), 3, "io error: no file"),
    (MemoryError("too big"), 2, "usage error: cannot allocate memory: too big"),
]


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, line", EXIT_TABLE, ids=[type(row[0]).__name__ for row in EXIT_TABLE])
    def test_error_maps_to_its_code_and_label(self, exc, code, line, capsys):
        def fail():
            raise exc

        assert run_with_exit_code(fail) == code
        assert capsys.readouterr().err == line + "\n"

    def test_other_errors_propagate(self):
        with pytest.raises(KeyError):
            run_with_exit_code(lambda: {}["missing"])


def no_training(*args, **kwargs):
    raise AssertionError("pretrain ran")


# A sweep's run-config whose data section generates a cohort of 12 tiny volumes, probed with 2 folds.
TINY_DATA_SWEEP = {"data": {"n_volumes": 12, "slices_per_volume": 4, "height": 16, "width": 16},
                   "probe": {"folds": 2}}


class TestSweep:
    def test_rows_match_sigma_list(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--data", str(dataset_dir),
                "--sigmas", "0.1,0.5",
                "--epochs", "1",
                "--batch", "4",
                "--out", str(out),
                "--seed", "0",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,sigma,seed,auc_patient"
        assert [line.split(",")[:3] for line in lines[1:]] == [["wsp", "0.1", "0"], ["wsp", "0.5", "0"]]

    def test_augment_section_applies(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"augment": {"enabled": False}}))
        flags = ["sweep", "--data", str(dataset_dir), "--sigmas", "0.1,0.5", "--epochs", "1", "--batch", "4"]
        assert run([*flags, "--config", str(cfg), "--out", str(tmp_path / "off.csv")]) == 0
        assert run([*flags, "--out", str(tmp_path / "default.csv")]) == 0
        assert json.loads((tmp_path / "off.csv.config.json").read_text())["augment"]["enabled"] is False

        _, volumes = load_dataset(dataset_dir)
        volumes = central_view(volumes)
        h, w = volumes[0].slices[0].pixels.shape
        record = {"encoder": EncoderConfig(input_shape=(1, h, w)), "optim": OptimConfig(epochs=1, batch_size=4),
                  "probe": ProbeConfig(), "augment": AugmentConfig(enabled=False), "methods": ["wsp"],
                  "sigmas": [0.1, 0.5], "seeds": [0]}
        api_rows = [(*run[:3], run[5].mean_auc_patient) for run in sweep_runs(record, volumes)]
        write_csv(tmp_path / "api.csv", ("method", "sigma", "seed", "auc_patient"), api_rows)
        off = (tmp_path / "off.csv").read_bytes()
        assert off == (tmp_path / "api.csv").read_bytes()
        assert off != (tmp_path / "default.csv").read_bytes()

    def test_diverged_run_is_numeric_error_and_writes_no_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sgd.json"
        cfg.write_text(json.dumps({**TINY_DATA_SWEEP, "optim": {"optimizer": "sgd_momentum", "weight_decay": 0}}))
        out = tmp_path / "s.csv"
        code = run(["sweep", "--config", str(cfg), "--arch", "mlp", "--epochs", "1", "--batch", "12", "--lr", "1e308",
                    "--sigmas", "0.1", "--seeds", "0", "--out", str(out)])
        assert code == 4
        assert "numerical failure: non-finite parameter" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sigma_is_usage_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(["sweep", "--data", str(dataset_dir), "--sigmas", "0.1,nan", "--epochs", "1", "--batch", "4",
                    "--out", str(out)])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_whose_depth_kernel_overflows_is_usage_error_before_any_run(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        # The list obeys loss.sigma's declared range, checked before the output claim makes --out's directory.
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        code = run(["sweep", "--data", str(dataset_dir), "--sigmas", "0.1,1e-200", "--epochs", "1", "--batch", "4",
                    "--out", str(tmp_path / "sub" / "s.csv")])
        assert code == 2
        assert "usage error: sigmas entries must lie in" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    def test_tau_whose_reciprocal_overflows_is_usage_error_before_any_run(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        out = tmp_path / "s.csv"
        code = run(["sweep", "--data", str(dataset_dir), "--sigmas", "0.1", "--tau", "1e-310", "--epochs", "1",
                    "--batch", "4", "--out", str(out)])
        assert code == 2
        assert "usage error: invalid LossConfig: tau" in capsys.readouterr().err
        assert not out.exists()

    def test_default_sigma_grid_documented(self):
        parser = build_parser()
        help_text = parser.parse_args(["sweep", "--data", "d", "--out", "o"])
        assert help_text.sigmas is None  # falls back to 0.01,0.1,0.2,0.3,0.5

    def test_empty_sigma_list_is_usage_error(self, dataset_dir, tmp_path):
        code = run(
            ["sweep", "--data", str(dataset_dir), "--sigmas", ",", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("seeds", ["", ",", "x", "1.5", "-1", "0,-1"])
    def test_bad_seed_list_is_usage_error(self, dataset_dir, tmp_path, capsys, monkeypatch, seeds):
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        out = tmp_path / "s.csv"
        code = run(["sweep", "--data", str(dataset_dir), "--seeds", seeds, "--epochs", "1", "--batch", "4",
                    "--out", str(out)])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_are_cell_major_and_stdout_gives_the_spread_of_seed_means(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "s.csv"
        flags = ["--methods", "random,wsp", "--sigmas", "0.1,0.5", "--seeds", "2,0", "--arch", "mlp", "--epochs", "1"]
        assert run(["sweep", "--data", str(dataset_dir), *flags, "--batch", "4", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cells = [("random", "0.1"), ("random", "0.5"), ("wsp", "0.1"), ("wsp", "0.5")]
        assert [tuple(row[:3]) for row in rows] == [(*cell, seed) for cell in cells for seed in ("2", "0")]
        printed = capsys.readouterr().out.splitlines()
        for (method, sigma), first, second in zip(cells, rows[::2], rows[1::2]):
            values = [float(first[3]), float(second[3])]
            line = f"{method} sigma={sigma}: AUC {np.mean(values):.4f} +- {np.std(values):.4f} over 2 seeds"
            assert line in printed

    def test_without_data_each_seed_trains_on_the_cohort_generated_with_it(self, tmp_path):
        config, probe_only = tmp_path / "tiny.json", tmp_path / "probe.json"
        config.write_text(json.dumps(TINY_DATA_SWEEP))
        probe_only.write_text(json.dumps({"probe": TINY_DATA_SWEEP["probe"]}))
        flags = ["--arch", "mlp", "--epochs", "1", "--batch", "4"]
        for seed in (1, 4):
            data = tmp_path / f"data{seed}"
            save_dataset(*generate_synthetic_dataset(GeneratorConfig(**TINY_DATA_SWEEP["data"]), seed), data)
            given = ["--data", str(data), "--config", str(probe_only)]
            assert run(["sweep", *given, *flags, "--seeds", str(seed), "--out", str(tmp_path / "a")]) == 0
            generated = ["--config", str(config)]
            assert run(["sweep", *generated, *flags, "--seeds", str(seed), "--out", str(tmp_path / "b")]) == 0
            assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        echo = json.loads((tmp_path / "b.config.json").read_text())
        assert "data_dir" not in echo
        assert echo["data"]["n_volumes"] == TINY_DATA_SWEEP["data"]["n_volumes"]

    def test_data_flag_with_a_data_section_is_usage_error_before_any_run(self, dataset_dir, tmp_path, capsys,
                                                                           monkeypatch):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(TINY_DATA_SWEEP))
        flags = ["--arch", "mlp", "--epochs", "1", "--batch", "4"]
        assert run(["sweep", "--config", str(config), *flags, "--sigmas", "0.1", "--out", str(tmp_path / "s.csv")]) == 0
        capsys.readouterr()
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        for given in (config, tmp_path / "s.csv.config.json"):  # the run-config, then the echo of its sweep
            out = tmp_path / "replay" / "s.csv"
            assert run(["sweep", "--config", str(given), "--data", str(dataset_dir), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: --data ") and "data section" in err
            assert "Traceback" not in err
            assert not out.parent.exists()

    def test_sigma_free_methods_run_once_per_seed(self, dataset_dir, tmp_path, monkeypatch):
        pretrained, probed = [], []

        def counting_pretrain(volumes, enc_cfg, optim_cfg, aug_cfg=None):
            pretrained.append((optim_cfg.loss.loss_kind, optim_cfg.loss.sigma, optim_cfg.seed))
            return pretrain(volumes, enc_cfg, optim_cfg, aug_cfg)

        def counting_probe(ckpt, volumes, cfg):
            probed.append((ckpt.loss_kind, cfg.seed))
            return run_probe_protocol(ckpt, volumes, cfg)

        monkeypatch.setattr("wsp.cli.pretrain", counting_pretrain)
        monkeypatch.setattr("wsp.cli.run_probe_protocol", counting_probe)
        out = tmp_path / "s.csv"
        flags = ["--methods", "random,supcon,wsp", "--sigmas", "0.1,0.5", "--seeds", "2,0", "--arch", "mlp", "--epochs",
                 "1", "--batch", "4"]
        assert run(["sweep", "--data", str(dataset_dir), *flags, "--out", str(out)]) == 0
        assert pretrained == [(kind, sigma, seed) for seed in (2, 0) for kind, sigma in
                              (("supcon", 0.1), ("wsp", 0.1), ("wsp", 0.5))]
        assert probed == [(kind, seed) for seed in (2, 0) for kind in ("random", "supcon", "wsp", "wsp")]
        # A sigma-free row repeats its method's one run; the bytes are those of a sweep that runs every cell.
        assert out.read_text() == (
            "method,sigma,seed,auc_patient\n"
            "random,0.1,2,0.5\nrandom,0.1,0,0.7\nrandom,0.5,2,0.5\nrandom,0.5,0,0.7\n"
            "supcon,0.1,2,0.4\nsupcon,0.1,0,0.7\nsupcon,0.5,2,0.4\nsupcon,0.5,0,0.7\n"
            "wsp,0.1,2,0.4\nwsp,0.1,0,0.7\nwsp,0.5,2,0.4\nwsp,0.5,0,0.7\n"
        )

    def test_repeated_seeds_and_sigmas_count_once(self, dataset_dir, tmp_path):
        flags = ["sweep", "--data", str(dataset_dir), "--arch", "mlp", "--epochs", "1", "--batch", "4"]
        repeated, distinct = tmp_path / "repeated.csv", tmp_path / "distinct.csv"
        assert run([*flags, "--seeds", "0,0,1", "--sigmas", "0.1,0.1", "--out", str(repeated)]) == 0
        assert run([*flags, "--seeds", "0,1", "--sigmas", "0.1", "--out", str(distinct)]) == 0
        assert repeated.read_bytes() == distinct.read_bytes()
        config = tmp_path / "repeated.json"
        config.write_text(json.dumps({"seeds": [0, 0, 1], "sigmas": [0.1, 0.1]}))
        assert run([*flags, "--config", str(config), "--out", str(tmp_path / "config.csv")]) == 0
        assert (tmp_path / "config.csv").read_bytes() == distinct.read_bytes()
        echo = json.loads((tmp_path / "repeated.csv.config.json").read_text())
        assert echo["seeds"] == [0, 1] and echo["sigmas"] == [0.1] and echo["methods"] == ["wsp"]
        assert "data" not in echo


class TestEcho:
    # sha256 of the fixtures' echoes, re-serialized as written, without data_dir (a
    # temporary path): generate and pretrain echoes must stay byte-identical.
    GOLDEN = {
        "generate": "9dca73dc81d26b1b4ab6bf7635303a6d4574721eb9285b7cb3eecf5945f70a71",
        "pretrain": "0b1d3780e150f92edfac2fb315fe38a375f06300888bfe2e8027a54b128f3aea",
    }

    def test_generate_and_pretrain_echoes_match_golden(self, dataset_dir, checkpoint):
        paths = {"generate": dataset_dir / "run_config.json", "pretrain": Path(f"{checkpoint}.config.json")}
        for command, path in paths.items():
            echo = json.loads(path.read_text())
            echo.pop("data_dir", None)
            digest = hashlib.sha256(json.dumps(echo, sort_keys=True, indent=1).encode()).hexdigest()
            assert digest == self.GOLDEN[command], command

    @pytest.mark.parametrize("command", ["probe", "project"])
    def test_random_checkpoint_echo_records_encoder(self, dataset_dir, tmp_path, command):
        out = tmp_path / "o.csv"
        assert run([command, "--data", str(dataset_dir), "--ckpt", "random", "--arch", "mlp", "--out", str(out)]) == 0
        echo = json.loads((tmp_path / "o.csv.config.json").read_text())
        assert echo["encoder"]["arch"] == "mlp"
        assert echo["checkpoint"] == "random"

    def test_sweep_echo_records_encoder_loss_and_fraction(self, dataset_dir, tmp_path):
        out = tmp_path / "s.csv"
        flags = ["--arch", "mlp", "--tau", "0.5", "--fraction", "0.5", "--sigmas", "0.1", "--epochs", "1"]
        assert run(["sweep", "--data", str(dataset_dir), *flags, "--batch", "4", "--out", str(out)]) == 0
        echo = json.loads((tmp_path / "s.csv.config.json").read_text())
        assert echo["encoder"]["arch"] == "mlp"
        assert echo["loss"]["tau"] == 0.5
        assert echo["central_fraction"] == 0.5


def assert_replays(command, inputs, flags, root):
    """Run ``command`` on ``inputs`` with ``flags``, then on ``inputs`` with its echo as ``--config`` and no flag:
    both runs write the same files, byte for byte, echo included."""
    first, second = root / "first", root / "second"
    assert run([command, *inputs, *flags, "--out", str(first / "o")]) == 0
    echo = first / ("o/run_config.json" if command == "generate" else "o.config.json")
    assert run([command, *inputs, "--config", str(echo), "--out", str(second / "o")]) == 0
    written = {path.relative_to(first) for path in first.rglob("*") if path.is_file()}
    assert written == {path.relative_to(second) for path in second.rglob("*") if path.is_file()}
    for name in written:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def replay_inputs(command, data, ckpt="random"):
    """The input flags of ``command`` on the dataset ``data``, and on the checkpoint ``ckpt`` if it reads one."""
    inputs = [] if command == "generate" else ["--data", str(data)]
    return inputs + ["--ckpt", str(ckpt)] if command in ("probe", "project") else inputs


# Per command, the flags of a tiny run: one epoch, or a generated dataset of 4 volumes.
_TINY_FLAGS = {
    "generate": ["--volumes", "4", "--slices", "3"],
    "pretrain": ["--epochs", "1", "--batch", "4"],
    "probe": [],
    "project": [],
    "sweep": ["--epochs", "1", "--batch", "4"],
}

# Each flag that a run-config records, with values a tiny run accepts.
_REPLAY_FLAG_VALUES = {
    "--seed": ["0", "3"],
    "--fraction": ["0.5", "1.0"],
    "--arch": ["tiny_cnn", "mlp"],
    "--loss": ["wsp", "supcon", "depth_aware", "infonce"],
    "--sigma": ["0.05", "0.3"],
    "--tau": ["0.1", "0.5"],
    "--lr": ["1e-4", "1e-3"],
    "--weight-decay": ["0", "1e-3"],
    "--folds": ["2", "3"],
    "--sigmas": ["0.1", "0.3,0.1,0.3"],
    "--seeds": ["0", "2,1,2"],
    "--methods": ["random", "wsp,random,wsp"],
    "--size": ["8x8", "16x12"],
    "--noise": ["0", "0.3"],
}


class TestReplay:
    """Every echo is a run-config of its command: given back with the same inputs, it replays the run."""

    @pytest.mark.parametrize(
        "command, ckpt, flags",
        [
            ("generate", None, ["--volumes", "5", "--slices", "3", "--size", "16x12", "--noise", "0.3", "--seed", "4"]),
            ("pretrain", None, ["--epochs", "1", "--batch", "4", "--sigma", "0.3", "--fraction", "0.5", "--seed", "2"]),
            ("pretrain", None, ["--arch", "mlp", "--loss", "depth_aware", "--tau", "0.2", "--lr", "1e-3",
                                "--weight-decay", "0", "--epochs", "2", "--batch", "6"]),
            ("probe", "trained", ["--folds", "3", "--fraction", "1.0", "--seed", "1"]),
            ("probe", "random", ["--arch", "mlp", "--folds", "2"]),
            ("project", "random", ["--fraction", "0.5", "--seed", "3"]),
            ("sweep", None, ["--arch", "mlp", "--sigmas", "0.3,0.1", "--seeds", "1,0", "--tau", "0.2", "--epochs", "1",
                             "--batch", "4"]),
        ],
        ids=["generate", "pretrain-tiny_cnn", "pretrain-mlp", "probe-trained", "probe-random", "project-random",
             "sweep"],
    )
    def test_echo_replays_byte_identical_outputs(self, dataset_dir, checkpoint, tmp_path, command, ckpt, flags):
        inputs = replay_inputs(command, dataset_dir, checkpoint if ckpt == "trained" else "random")
        assert_replays(command, inputs, flags, tmp_path)

    def test_sweep_without_data_replays_from_its_data_section(self, tmp_path):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(TINY_DATA_SWEEP))
        flags = ["--config", str(config), "--seeds", "1,0", "--methods", "random,wsp", "--sigmas", "0.3,0.1", "--arch",
                 "mlp", "--epochs", "1", "--batch", "4"]
        assert_replays("sweep", [], flags, tmp_path)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_echo_replays_any_recorded_flags(self, dataset_dir, checkpoint, data):
        command = data.draw(st.sampled_from(sorted(_TINY_FLAGS)), label="command")
        accepted = {flag if isinstance(flag, str) else flag[0] for flag in _COMMANDS[command][2]}
        flags = list(_TINY_FLAGS[command])
        for flag in (flag for flag in _REPLAY_FLAG_VALUES if flag in accepted):
            if data.draw(st.booleans(), label=f"with {flag}"):
                flags += [flag, data.draw(st.sampled_from(_REPLAY_FLAG_VALUES[flag]), label=flag)]
        ckpt = data.draw(st.sampled_from(["random", checkpoint]), label="--ckpt") if "--ckpt" in accepted else None
        with tempfile.TemporaryDirectory() as tmp:
            assert_replays(command, replay_inputs(command, dataset_dir, ckpt), flags, Path(tmp))

    @pytest.mark.parametrize("writer", sorted(_TINY_FLAGS))
    def test_echo_of_another_command_is_usage_error_and_writes_nothing(self, dataset_dir, tmp_path, capsys, writer):
        flags = [*replay_inputs(writer, dataset_dir), *_TINY_FLAGS[writer]]
        assert run([writer, *flags, "--out", str(tmp_path / "o")]) == 0
        echo = tmp_path / ("o/run_config.json" if writer == "generate" else "o.config.json")
        readers = sorted(set(_TINY_FLAGS) - {writer})
        for reader in readers:
            out = tmp_path / reader / "o"
            assert run([reader, *replay_inputs(reader, dataset_dir), "--config", str(echo), "--out", str(out)]) == 2
            assert not out.parent.exists()
        err = capsys.readouterr().err
        assert err.count("usage error: run-config of command") == len(readers)
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "pretrain", "probe", "project", "gradcheck", "sweep"])
def test_negative_seed_is_usage_error(dataset_dir, tmp_path, capsys, command):
    out = str(tmp_path / "o")
    flags = {
        "generate": ["--out", out, "--volumes", "4", "--slices", "4"],
        "pretrain": ["--data", str(dataset_dir), "--epochs", "1", "--batch", "4", "--out", out],
        "probe": ["--data", str(dataset_dir), "--ckpt", "random", "--out", out],
        "project": ["--data", str(dataset_dir), "--ckpt", "random", "--out", out],
        "gradcheck": [],
        "sweep": ["--data", str(dataset_dir), "--sigmas", "0.1", "--epochs", "1", "--batch", "4", "--out", out],
    }[command]
    assert run([command, *flags, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_any_weak_label_in_range_is_a_class(tmp_path):
    # The generator draws four weak classes, but any integer in y_weak's range is a class: one patient relabelled 7
    # trains and probes, and the sampler balances over the five classes present.
    data = tmp_path / "data"
    assert run(["generate", "--out", str(data), "--volumes", "12", "--slices", "4", "--seed", "0"]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["volumes"][0]["y_weak"] = 7  # the generator gives each patient one volume
    (data / "manifest.json").write_text(json.dumps(manifest))
    ckpt = tmp_path / "c.ckpt"
    assert run(["pretrain", "--data", str(data), "--arch", "mlp", "--epochs", "1", "--batch", "4", "--out", str(ckpt)]) == 0
    assert run(["probe", "--data", str(data), "--ckpt", str(ckpt), "--folds", "2", "--out", str(tmp_path / "m.csv")]) == 0
    _, volumes = load_dataset(data)
    classes = {v.y_weak for v in volumes}
    assert 7 in classes and len(classes) == 5
    # The fallback batch gives each class present batch // 5 draws, and only patient P000 is in class 7.
    (batch,) = epoch_batches(volumes, BatchSpec(batch_size=10, mode="fallback_balanced"))
    sevens = [s.patient_id for s in batch if s.y == 7]
    assert sevens == ["P000", "P000"]
    strict = epoch_batches(volumes, BatchSpec(batch_size=4))
    assert [s.patient_id for b in strict for s in b if s.y == 7] == ["P000"]


def data_command_flags(command, data, out):
    """Flags of a one-epoch run of ``command`` on the dataset ``data``, writing ``out``."""
    return {
        "pretrain": ["--data", data, "--epochs", "1", "--batch", "4", "--out", out],
        "probe": ["--data", data, "--ckpt", "random", "--out", out],
        "project": ["--data", data, "--ckpt", "random", "--out", out],
        "sweep": ["--data", data, "--sigmas", "0.1", "--epochs", "1", "--batch", "4", "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["pretrain", "probe", "project", "sweep"])
def test_fraction_that_keeps_no_slice_is_usage_error(dataset_dir, tmp_path, capsys, command):
    # The fixture's volumes have 6 slices, and round(0.01 * 6) is 0.
    flags = data_command_flags(command, str(dataset_dir), str(tmp_path / "o"))
    assert run([command, *flags, "--fraction", "0.01"]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pretrain", "probe", "project", "sweep"])
def test_manifest_without_volumes_is_data_error(tmp_path, capsys, command):
    data = tmp_path / "empty"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"version": 1, "volumes": [], "generator": None}))
    assert run([command, *data_command_flags(command, str(data), str(tmp_path / "o"))]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def one_image_size_violation(kind):
    """Volumes of which no dataset may hold all: 32x32 volumes plus a 16x16 one, or one volume of 0x0 images."""
    if kind == "empty":
        slices = [Slice(pixels=np.zeros((0, 0), dtype=np.float32), p=p, d=p / 3) for p in range(4)]
        return [Volume(volume_id="V000", patient_id="P000", v_max=3, slices=slices, y_weak=0, y_strong=0)]
    _, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=12, slices_per_volume=4), seed=0)
    _, small = generate_synthetic_dataset(GeneratorConfig(n_volumes=1, slices_per_volume=4, height=16, width=16), 0)
    return [*volumes, dataclasses.replace(small[0], volume_id="V012", patient_id="P012")]


@pytest.mark.parametrize("kind, message", [
    ("mixed", "data error: volume V012: image size (16, 16) differs from (32, 32) in volume V000"),
    ("empty", "data error: volume V000: image size (0, 0) is empty"),
])
@pytest.mark.parametrize("command", ["pretrain", "probe", "project", "sweep"])
def test_dataset_without_one_image_size_is_data_error(tmp_path, capsys, command, kind, message):
    data = tmp_path / "set"
    write_raw_dataset(one_image_size_violation(kind), data)
    assert run([command, *data_command_flags(command, str(data), str(tmp_path / "o"))]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--config", BENCHMARK_CONFIG, "--seeds", ""],
        ["--config", BENCHMARK_CONFIG, "--seeds", "x"],
        ["--config", BENCHMARK_CONFIG, "--seeds", "-1"],
        ["--methods", "wsp", "--seeds", "x"],
        ["--methods", "wsp", "--seeds", ","],
        ["--methods", "wsp", "--sigmas", ""],
        ["--methods", "wsp", "--sigmas", "0.1,nan"],
        ["--config", BENCHMARK_CONFIG, "--methods", ""],
        ["--config", BENCHMARK_CONFIG, "--methods", "wsp,x"],
        ["--config", BENCHMARK_CONFIG, "--methods", "depth"],
        ["--config", BENCHMARK_CONFIG, "--methods", "WSP"],
    ],
    ids=["benchmark-seeds-empty", "benchmark-seeds-x", "benchmark-seeds-negative", "sweep-seeds-x", "sweep-seeds-comma",
         "sweep-sigmas-empty", "sweep-sigmas-nan", "benchmark-methods-empty", "benchmark-methods-unknown",
         "benchmark-methods-flag-alias", "benchmark-methods-case"],
)
def test_script_bad_list_is_usage_error(tmp_path, capsys, monkeypatch, flags):
    """A bad list given to either study of the benchmark recipe, the method comparison (``--config`` of the recipe)
    or the bandwidth study (``--methods wsp``), is a usage error before any run, and nothing is written."""
    monkeypatch.setattr("wsp.cli.pretrain", no_training)
    out = tmp_path / "out.csv"
    assert run(["sweep", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_allocation_failure_is_usage_error_and_writes_no_checkpoint(dataset_dir, tmp_path):
    """A configuration whose arrays do not fit in memory exits 2 with one line, in a child whose address space is
    limited to 4 GiB."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"encoder": {"proj_hidden": 100_000_000}}))
    out = tmp_path / "enc.ckpt"
    limit = 4 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "wsp.cli", "pretrain", "--data", str(dataset_dir), "--config", str(config), "--epochs",
         "1", "--batch", "4", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("usage error: cannot allocate memory")
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_write_csv_formats_each_cell_kind(tmp_path):
    path = tmp_path / "t.csv"
    rows = [("a", np.int64(3), np.float32(0.1)), ("b", 7, 1.0), ("c", -1, np.float64(1 / 3))]
    write_csv(path, ("name", "n", "x"), rows, comment=("note", 0.5, 2))
    assert path.read_text() == (
        "# note,0.5,2\nname,n,x\na,3,0.10000000149011612\nb,7,1.0\nc,-1,0.3333333333333333\n"
    )


# The value the code applies to each flag left out, which the flag's --help states as "(default X)".
APPLIED_DEFAULTS = {
    "--volumes": GeneratorConfig.n_volumes,
    "--slices": GeneratorConfig.slices_per_volume,
    "--size": f"{GeneratorConfig.height}x{GeneratorConfig.width}",
    "--noise": GeneratorConfig.noise_rate,
    "--fraction": CENTRAL_FRACTION,
    "--arch": EncoderConfig.arch,
    "--loss": LossConfig.loss_kind,
    "--sigma": LossConfig.sigma,
    "--tau": LossConfig.tau,
    "--epochs": OptimConfig.epochs,
    "--batch": OptimConfig.batch_size,
    "--lr": OptimConfig.lr,
    "--weight-decay": OptimConfig.weight_decay,
    "--folds": ProbeConfig.folds,
    "--sigmas": ",".join(map(str, DEFAULT_SWEEP_SIGMAS)),
    "--methods": ",".join(DEFAULT_SWEEP_METHODS),
}
# --seed's default per command: the top-level seed, else the seed of the config it sets.
SEED_DEFAULTS = {"generate": DEFAULT_SEED, "gradcheck": DEFAULT_SEED, "pretrain": OptimConfig.seed,
                 "probe": ProbeConfig.seed, "project": EncoderConfig.seed, "sweep": OptimConfig.seed}
# Flags whose own help for this command states no default: --arch for --ckpt random.
NO_STATED_DEFAULT = {("probe", "--arch"), ("project", "--arch")}
COMMAND_FLAGS = [(command, entry[0] if isinstance(entry, tuple) else entry)
                 for command, (_, _, flags) in _COMMANDS.items() for entry in flags]


def stated_defaults(command):
    """Each flag of ``command`` whose help states "(default X)": flag -> X."""
    subparsers = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    matches = {action.option_strings[0]: re.search(r"\(default ([^)]*)\)", action.help or "")
               for action in subparsers.choices[command]._actions}
    return {flag: match.group(1) for flag, match in matches.items() if match}


class TestParser:
    @pytest.mark.parametrize("command, flag", COMMAND_FLAGS)
    def test_help_default_is_the_applied_value(self, command, flag):
        expected = SEED_DEFAULTS[command] if flag == "--seed" else APPLIED_DEFAULTS.get(flag)
        if (command, flag) in NO_STATED_DEFAULT:
            expected = None
        assert stated_defaults(command).get(flag) == (None if expected is None else str(expected))

    def test_sweep_applies_the_named_defaults(self):
        record, _ = sweep_plan({})
        assert record["sigmas"] == list(DEFAULT_SWEEP_SIGMAS)
        assert record["methods"] == list(DEFAULT_SWEEP_METHODS)
        assert record["seeds"] == [OptimConfig.seed]

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["generate", "--out", "x", "--bogus"])
        assert err.value.code == 2

    def test_help_exits_zero_and_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("generate", "pretrain", "probe", "project", "gradcheck", "sweep"):
            assert name in out

    def test_dotted_flag_dests_name_config_fields(self):
        sections = {
            "data": GeneratorConfig,
            "encoder": EncoderConfig,
            "loss": LossConfig,
            "optim": OptimConfig,
            "probe": ProbeConfig,
            "augment": AugmentConfig,
        }
        dotted = [dest for dest, _ in _FLAGS.values() if "." in dest]
        assert dotted
        for dest in dotted:
            section, key = dest.split(".")
            fields = {f.name for f in dataclasses.fields(sections[section])}
            assert key in fields, dest

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"optim": {"turbo": True}}))
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2

    def test_config_file_section_applies(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"loss": {"tau": 0.25}, "optim": {"batch_size": 4, "epochs": 1}}))
        out = tmp_path / "c.ckpt"
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--out", str(out), "--seed", "0"]
        )
        assert code == 0
        echo = json.loads((tmp_path / "c.ckpt.config.json").read_text())
        assert echo["loss"]["tau"] == 0.25
        assert echo["optim"]["batch_size"] == 4

    def test_output_dir_anchors_relative_outputs(self, dataset_dir, tmp_path):
        base = tmp_path / "rundir"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output_dir": str(base), "optim": {"epochs": 1, "batch_size": 4}}))
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--out", "enc.ckpt", "--seed", "0"]
        )
        assert code == 0
        assert (base / "enc.ckpt").exists()
        assert (base / "enc.ckpt.loss.csv").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"loss": {"tau": "abc"}},
            {"seed": "abc"},
            {"encoder": {"input_shape": 5}},
            {"augment": {"crop_scale": 0.5}},
            {"central_fraction": "abc"},
            {"central_fraction": 2.0},
            {"encoder": {"proj_dim": 1.5}},
            {"encoder": {"conv_channels": [16, 0, 64, 128, 256]}},
            {"loss": {"sigma": float("nan")}},
            {"loss": {"tau": float("nan")}},
            {"optim": {"lr": float("nan")}},
            {"optim": {"lr": float("inf")}},
            {"optim": {"beta1": 2.0}},
            {"optim": {"eps": -1}},
            {"optim": {"momentum": float("nan")}},
            {"optim": {"weight_decay": float("nan")}},
            {"optim": {"weight_decay": 1e308}},
            {"optim": {"batch_size": True}},
            {"augment": {"enabled": "no"}},
            {"optim": {"lr": 10**400}},
            {"loss": {"tau": 10**400}},
            {"loss": {"tau": 1e-310}},
            {"seed": True},
            {"seed": float("nan")},
            {"seed": -1},
            {"output_dir": True},
            {"central_fraction": True},
            {"central_fraction": float("nan")},
            {"central_fraction": 0.0},
            {"encoder": {"proj_hidden": 10**400}},
            {"encoder": {"mlp_hidden": [128, 2**32]}},
            {"data": {"central_fraction": 0.5}},
            {"sigmas": []},
            {"sigmas": "0.1"},
            {"seeds": [1.5]},
            {"seeds": [True]},
            {"command": 3},
            {"data_dir": None},
            {"seeds": [0, -1]},
            {"sigmas": [0.1, -1.0]},
            {"methods": ["x"]},
            {"methods": "wsp"},
        ],
        ids=[
            "loss.tau", "seed", "encoder.input_shape", "augment.crop_scale", "fraction-type", "fraction-range",
            "encoder.proj_dim-float", "encoder.conv_channels-zero", "loss.sigma-nan", "loss.tau-nan",
            "optim.lr-nan", "optim.lr-inf", "optim.beta1-range", "optim.eps-negative", "optim.momentum-nan",
            "optim.weight_decay-nan", "optim.weight_decay-huge", "optim.batch_size-bool", "augment.enabled-string",
            "optim.lr-huge-int", "loss.tau-huge-int", "loss.tau-subnormal", "seed-bool", "seed-nan", "seed-negative",
            "output_dir-bool", "fraction-bool", "fraction-nan", "fraction-zero", "encoder.proj_hidden-huge-int",
            "encoder.mlp_hidden-above-u32", "data.central_fraction-moved", "sigmas-empty", "sigmas-string",
            "seeds-float", "seeds-bool", "command-int", "data_dir-null", "seeds-negative", "sigmas-negative",
            "methods-unknown", "methods-string",
        ],
    )
    def test_wrong_typed_config_value_is_usage_error(self, dataset_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error:" in err
        assert "Traceback" not in err

    def test_section_that_is_not_an_object_is_usage_error(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"optim": 3}))
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error: section 'optim' must be a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("probe", {"probe": {"folds": 2.5}}),
            ("probe", {"probe": {"max_iterations": 2.5}}),
            ("generate", {"data": {"n_volumes": 2.5}}),
        ],
        ids=["probe.folds", "probe.max_iterations", "data.n_volumes"],
    )
    def test_non_integer_config_value_is_usage_error(self, dataset_dir, checkpoint, tmp_path, capsys, command, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        flags = ["--data", str(dataset_dir), "--ckpt", str(checkpoint)] if command == "probe" else []
        code = run([command, *flags, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [{"lobes": [-3]}, {"aspect_jitter": -5.0}, {"aspect_jitter": 1e308}, {"lobes": [5.5, 9]},
         {"class_priors": [float("nan"), 0.5, 0.25, 0.25]}, {"contour_amplitudes": [float("nan"), 0.1, 0.1, 0.1]},
         {"pixel_noise": 10**400}, {"depth_gain": 1.2}, {"depth_gain": 1.5},
         {"organ_intensity": 1e308, "background_intensity": -1e308}, {"lobes": [10**400, 9]}, {"lobes": [5, 2**32]}],
        ids=["lobes-short", "aspect_jitter-negative", "aspect_jitter-huge", "lobes-float", "class_priors-nan",
             "contour_amplitudes-nan", "pixel_noise-huge-int", "depth_gain-zero-radius", "depth_gain-negative-radius",
             "intensity-difference-overflow", "lobes-huge-int", "lobes-above-u32"],
    )
    def test_bad_generator_value_is_usage_error(self, tmp_path, capsys, body):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": body}))
        code = run(["generate", "--out", str(tmp_path / "d"), "--volumes", "4", "--slices", "4", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error: invalid GeneratorConfig:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key, value", [("cosine_granularity", "epoch"), ("sampler_mode", "strict"),
                                            ("fallback_steps_per_epoch", 2)])
    def test_deleted_optim_keys_are_usage_errors(self, dataset_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"optim": {key: value}}))
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--batch", "0"], ""), (["--batch", "3"], ""), (["--sigma", "nan"], ""), (["--sigma", "1e-200"], ""),
        (["--lr", "inf"], ""), (["--tau", "1e-310"], ""), (["--config", "no/such/run.json"], "cannot read config"),
    ], ids=["batch-zero", "batch-odd", "sigma-nan", "sigma-underflow", "lr-inf", "tau-subnormal", "config-missing"])
    def test_bad_flag_value_is_usage_error(self, dataset_dir, tmp_path, capsys, flags, message):
        code = run(["pretrain", "--data", str(dataset_dir), "--epochs", "1", *flags, "--out", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"usage error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists() and not (tmp_path / "c.dump.json").exists()

    def test_non_integer_checkpoint_header_value_is_data_error(self, dataset_dir, checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(
            checkpoint.read_bytes(), lambda h: {**h, "config": {**h["config"], "proj_dim": 64.5}}
        ))
        code = run(["probe", "--data", str(dataset_dir), "--ckpt", str(bad), "--out", str(tmp_path / "m.csv")])
        assert code == 3
        assert "data error:" in capsys.readouterr().err

    def test_huge_checkpoint_sigma_is_data_error(self, dataset_dir, checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(checkpoint.read_bytes(), lambda h: {**h, "loss_sigma": 10**400}))
        code = run(["probe", "--data", str(dataset_dir), "--ckpt", str(bad), "--out", str(tmp_path / "m.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rotation", [float("nan"), float("inf"), 1e308], ids=["nan", "inf", "1e308"])
    def test_non_finite_rotation_range_is_usage_error(self, dataset_dir, tmp_path, capsys, rotation):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"augment": {"rotation_degrees": rotation}}))
        code = run(
            ["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", 1.5, True, -1], ids=["str", "float", "bool", "negative"])
    @pytest.mark.parametrize("section", ["encoder", "optim", "augment", "probe"])
    def test_bad_section_seed_is_usage_error(self, dataset_dir, checkpoint, tmp_path, capsys, section, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({section: {"seed": value}}))
        if section == "probe":
            command = ["probe", "--ckpt", str(checkpoint), "--folds", "3"]
        else:
            command = ["pretrain", "--epochs", "1", "--batch", "4"]
        code = run([*command, "--data", str(dataset_dir), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    def test_malformed_checkpoint_header_is_data_error(self, dataset_dir, checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(checkpoint.read_bytes(), lambda h: [1, 2]))
        code = run(["probe", "--data", str(dataset_dir), "--ckpt", str(bad), "--out", str(tmp_path / "m.csv")])
        assert code == 3
        assert "data error:" in capsys.readouterr().err

    def test_top_level_seed_reaches_every_section(self, dataset_dir, checkpoint, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "optim": {"epochs": 1, "batch_size": 4}, "probe": {"folds": 3}}))
        data = ["--data", str(dataset_dir), "--config", str(cfg)]
        assert run(["pretrain", *data, "--out", str(tmp_path / "c.ckpt")]) == 0
        echo = json.loads((tmp_path / "c.ckpt.config.json").read_text())
        assert echo["optim"]["seed"] == echo["encoder"]["seed"] == echo["augment"]["seed"] == 7
        assert run(["probe", *data, "--ckpt", str(checkpoint), "--out", str(tmp_path / "m.csv")]) == 0
        assert json.loads((tmp_path / "m.csv.config.json").read_text())["probe"]["seed"] == 7
        assert run(["sweep", *data, "--sigmas", "0.1", "--out", str(tmp_path / "s.csv")]) == 0
        echo = json.loads((tmp_path / "s.csv.config.json").read_text())
        assert echo["optim"]["seed"] == echo["probe"]["seed"] == 7
        assert echo["seeds"] == [7]
        projections = []
        for name, flags in (("config", data), ("flag", ["--data", str(dataset_dir), "--seed", "7"])):
            out = tmp_path / f"{name}.csv"
            assert run(["project", *flags, "--ckpt", "random", "--arch", "mlp", "--out", str(out)]) == 0
            projections.append(out.read_bytes())
        assert projections[0] == projections[1]

    def test_section_seed_beats_top_level_seed(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "encoder": {"seed": 3}, "optim": {"epochs": 1, "batch_size": 4}}))
        assert run(["pretrain", "--data", str(dataset_dir), "--config", str(cfg), "--out", str(tmp_path / "c.ckpt")]) == 0
        echo = json.loads((tmp_path / "c.ckpt.config.json").read_text())
        assert echo["encoder"]["seed"] == 3
        assert echo["optim"]["seed"] == echo["augment"]["seed"] == 7

    def test_flags_override_config(self, dataset_dir, checkpoint, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "central_fraction": 0.5,
            "encoder": {"seed": 3},
            "augment": {"seed": 3},
            "optim": {"epochs": 1, "batch_size": 4},
            "probe": {"seed": 3},
        }))
        ckpt = tmp_path / "c.ckpt"
        flags = ["--config", str(cfg), "--seed", "5", "--fraction", "1.0"]
        assert run(["pretrain", "--data", str(dataset_dir), "--out", str(ckpt), *flags]) == 0
        echo = json.loads((tmp_path / "c.ckpt.config.json").read_text())
        assert echo["encoder"]["seed"] == echo["augment"]["seed"] == echo["optim"]["seed"] == 5
        assert echo["central_fraction"] == 1.0
        metrics = tmp_path / "m.csv"
        assert run(["probe", "--data", str(dataset_dir), "--ckpt", str(checkpoint), "--folds", "3",
                    "--out", str(metrics), *flags]) == 0
        echo = json.loads((tmp_path / "m.csv.config.json").read_text())
        assert echo["probe"]["seed"] == 5
        assert echo["central_fraction"] == 1.0
