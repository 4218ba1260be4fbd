import struct

import numpy as np
import pytest

from wsp import autodiff as ad
from wsp.autodiff import Tensor
from wsp.cli import main
from wsp.data import GeneratorConfig, generate_synthetic_dataset, save_dataset
from wsp.encoders import (
    EncoderCheckpoint,
    EncoderConfig,
    init_encoder,
    input_batch,
    input_shape,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from wsp.errors import ConfigError, ContractError, FormatError, NonFiniteError
from wsp.losses import LossConfig, compute_loss

from oracles import make_meta, patch_checkpoint_value, rewrite_checkpoint_header

MLP_CFG = EncoderConfig(arch="mlp", input_shape=(12,), mlp_hidden=(16, 16), repr_dim=24, proj_dim=8, proj_hidden=12)


class TestConfig:
    def test_tiny_cnn_needs_five_stages(self):
        with pytest.raises(ConfigError):
            EncoderConfig(conv_channels=(8, 16, 32))
        for name in ("conv_kernels", "conv_strides"):
            for length in (4, 6):
                with pytest.raises(ConfigError):
                    EncoderConfig(**{name: (1,) * length})

    def test_repr_must_exceed_proj(self):
        with pytest.raises(ConfigError):
            EncoderConfig(repr_dim=32, proj_dim=64)

    def test_geometry_checked_against_input(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_shape=(1, 8, 8))  # five stages cannot fit

    def test_mlp_needs_flat_input(self):
        with pytest.raises(ConfigError):
            EncoderConfig(arch="mlp", input_shape=(1, 8, 8))

    @pytest.mark.parametrize(
        "fields",
        [
            {"conv_channels": (16, 0, 64, 128, 256)},
            {"conv_kernels": (3, 3, 0, 3, 1)},
            {"conv_strides": (2, 2, 2, 2, 1.5)},
            {"input_shape": (1, 32.0, 32)},
            {"arch": "mlp", "input_shape": (1024,), "mlp_hidden": (128, True)},
        ],
        ids=["channel-zero", "kernel-zero", "stride-float", "shape-float", "hidden-bool"],
    )
    def test_stage_sizes_must_be_positive_integers(self, fields):
        with pytest.raises(ConfigError):
            EncoderConfig(**fields)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_encoder(EncoderConfig(seed=5))
        b = init_encoder(EncoderConfig(seed=5))
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_different_seeds_differ(self):
        a = init_encoder(EncoderConfig(seed=5))
        b = init_encoder(EncoderConfig(seed=6))
        assert any(
            not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params
        )

    def test_parameter_count_default_config(self):
        # Closed-form count from the declared shapes:
        # convs 160 + 4640 + 18496 + 73856 + 33024, dense 65792,
        # projection 32896 + 8256.
        params = init_encoder(EncoderConfig()).params
        assert sum(p.data.size for p in params.values()) == 237120
        by_shape = sum(int(np.prod(s)) for s in parameter_shapes(EncoderConfig()).values())
        assert by_shape == 237120


class TestForward:
    def test_encode_shape_and_determinism(self, rng):
        enc = init_encoder(EncoderConfig(seed=1))
        x = Tensor(rng.normal(size=(3, 1, 32, 32)))
        out1 = enc.encode(x)
        out2 = enc.encode(Tensor(x.data.copy()))
        assert out1.shape == (3, 256)
        assert np.array_equal(out1.data, out2.data)

    def test_encode_rejects_wrong_shape(self):
        enc = init_encoder(EncoderConfig(seed=1))
        with pytest.raises(ContractError):
            enc.encode(Tensor(np.zeros((2, 1, 16, 16))))

    @pytest.mark.parametrize("arch", ["tiny_cnn", "mlp"])
    def test_input_batch_is_the_configured_input_layout(self, arch, rng):
        cfg = EncoderConfig(arch=arch, input_shape=input_shape(arch, (32, 32)))
        assert cfg.input_shape == {"tiny_cnn": (1, 32, 32), "mlp": (1024,)}[arch]
        images = rng.random((3, 32, 32))
        x = input_batch(cfg, images)
        assert x.shape == (3, *cfg.input_shape)
        assert np.array_equal(x.data.reshape(images.shape), images)
        assert init_encoder(cfg).encode(x).shape == (3, cfg.repr_dim)
        with pytest.raises(ContractError):
            init_encoder(cfg).encode(input_batch(cfg, rng.random((3, 32, 30))))

    def test_representation_is_not_normalized_but_projection_is(self, rng):
        enc = init_encoder(EncoderConfig(seed=2))
        x = Tensor(rng.normal(size=(4, 1, 32, 32)))
        rep = enc.encode(x)
        norms = np.linalg.norm(rep.data, axis=1)
        assert not np.allclose(norms, 1.0, atol=1e-3)
        z = enc.project(rep)
        assert z.shape == (4, 64)
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-9)

    def test_gradient_reaches_first_conv_layer(self, rng):
        enc = init_encoder(EncoderConfig(seed=3))
        x = Tensor(rng.normal(size=(2, 1, 32, 32)))
        out = ad.sum_all(enc.project(enc.encode(x)))
        grads = ad.backward(out)
        g = grads.wrt(enc.params["conv1_w"])
        assert np.abs(g).max() > 0.0

    def test_mlp_full_chain_gradient_check(self, rng):
        enc = init_encoder(MLP_CFG)
        meta = make_meta(
            y=[0, 0, 1, 1],
            d=[0.2, 0.2, 0.7, 0.7],
            slice_ids=["a", "a", "b", "b"],
            patient_ids=["p", "p", "q", "q"],
        )
        cfg = LossConfig(tau=0.5, sigma=0.2)
        x = rng.uniform(-1, 1, (4, 12))

        def f(t):
            return compute_loss(enc.project(enc.encode(t)), meta, cfg)

        leaf = Tensor(x, requires_grad=True)
        analytic = ad.backward(f(leaf)).wrt(leaf)
        numeric = ad.finite_diff_gradient(f, Tensor(x), eps=1e-5).data
        assert ad.max_relative_error(analytic, numeric) < 1e-5

    def test_mlp_parameter_gradient_check(self, rng):
        enc = init_encoder(MLP_CFG)
        meta = make_meta(
            y=[0, 0, 1, 1],
            d=[0.3, 0.3, 0.6, 0.6],
            slice_ids=["a", "a", "b", "b"],
            patient_ids=["p", "p", "q", "q"],
        )
        cfg = LossConfig(tau=0.5, sigma=0.2)
        x = Tensor(rng.uniform(-1, 1, (4, 12)))
        name = "fc1_w"

        loss = compute_loss(enc.project(enc.encode(x)), meta, cfg)
        grads = ad.backward(loss)
        analytic = grads.wrt(enc.params[name])

        base = enc.params[name].data

        def f(t):
            enc.params[name].data = t.data
            try:
                return compute_loss(enc.project(enc.encode(x)), meta, cfg)
            finally:
                enc.params[name].data = base

        numeric = ad.finite_diff_gradient(f, Tensor(base.copy()), eps=1e-5).data
        assert ad.max_relative_error(analytic, numeric) < 1e-5


class TestCheckpoint:
    def test_round_trip_bit_identical_outputs(self, tmp_path, rng):
        enc = init_encoder(EncoderConfig(seed=9))
        ckpt = EncoderCheckpoint.from_encoder(enc, step=12, loss_kind="wsp", loss_sigma=0.1)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 12
        assert loaded.loss_kind == "wsp"
        assert loaded.loss_sigma == 0.1
        assert loaded.config == enc.config
        x = Tensor(rng.normal(size=(2, 1, 32, 32)))
        out_a = enc.encode(x).data
        out_b = loaded.to_encoder().encode(Tensor(x.data.copy())).data
        assert np.array_equal(out_a, out_b)

    def test_round_trip_file_bytes_identical(self, tmp_path):
        enc = init_encoder(EncoderConfig(seed=4))
        ckpt = EncoderCheckpoint.from_encoder(enc, step=1, loss_kind="supcon")
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: [1, 2],
            lambda h: "header",
            lambda h: {**h, "config": [1, 2]},
            lambda h: {**h, "config": {**h["config"], "seed": "abc"}},
            lambda h: {**h, "step": "abc"},
            lambda h: {**h, "loss_sigma": [0.1]},
            lambda h: {**h, "step": 1.5},
            lambda h: {**h, "step": "7"},
            lambda h: {**h, "step": -3},
            lambda h: {**h, "loss_sigma": "0.5"},
            lambda h: {**h, "loss_sigma": 10**400},
            lambda h: {**h, "loss_kind": 5},
            lambda h: {"config": h["config"]},
            lambda h: {k: v for k, v in h.items() if k != "loss_kind"},
            lambda h: {**h, "loss": "wsp"},
        ],
        ids=["list", "string", "config-list", "config-seed", "step", "loss_sigma", "step-float", "step-string",
             "step-negative", "loss_sigma-string", "loss_sigma-huge", "loss_kind-int", "missing-keys",
             "missing-loss_kind", "extra-key"],
    )
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "h.ckpt"
        save_checkpoint(EncoderCheckpoint.from_encoder(init_encoder(MLP_CFG), loss_sigma=0.1), path)
        path.write_bytes(rewrite_checkpoint_header(path.read_bytes(), edit))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 10  # the header's first byte

    @pytest.mark.parametrize("header", [b'{"step": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["invalid-utf8", "deeply-nested"])
    def test_undecodable_header_rejected_at_its_offset(self, tmp_path, header):
        path = tmp_path / "h.ckpt"
        save_checkpoint(EncoderCheckpoint.from_encoder(init_encoder(MLP_CFG)), path)
        raw = path.read_bytes()
        (length,) = struct.unpack("<I", raw[6:10])
        path.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header + raw[10 + length :])
        with pytest.raises(FormatError, match="not valid UTF-8 JSON") as err:
            load_checkpoint(path)
        assert err.value.offset == 10

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected_at_its_offset(self, tmp_path, value):
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(MLP_CFG))
        path = tmp_path / "n.ckpt"
        save_checkpoint(ckpt, path)
        index = np.ravel_multi_index((1, 2), ckpt.params["repr_w"].shape)
        patch_checkpoint_value(path, ckpt.params, "repr_w", index, value)
        with pytest.raises(FormatError, match="repr_w values must be finite") as err:
            load_checkpoint(path)
        raw = path.read_bytes()
        assert raw[err.value.offset : err.value.offset + 8] == struct.pack("<d", value)

    @pytest.mark.parametrize("edit, error, match", [
        (lambda c: c.params["repr_w"].__setitem__((1, 2), np.nan), NonFiniteError, "repr_w values must be finite"),
        (lambda c: c.params["proj2_b"].__setitem__(0, -np.inf), NonFiniteError, "proj2_b values must be finite"),
        (lambda c: c.params.__setitem__("repr_w", c.params["repr_w"].T), ContractError, "parameter repr_w has shape"),
        (lambda c: c.params.pop("repr_b"), ContractError, "do not match the architecture"),
        (lambda c: c.params.__setitem__("repr_b", c.params.pop("repr_b")), ContractError, "do not match"),
        (lambda c: setattr(c, "step", -1), ContractError, "step must lie in"),
        (lambda c: setattr(c, "step", 1.0), ContractError, "step must be an integer"),
        (lambda c: setattr(c, "loss_kind", 5), ContractError, "loss_kind must be a string"),
        (lambda c: setattr(c, "loss_sigma", float("nan")), ContractError, "loss_sigma must be a finite number"),
        (lambda c: setattr(c, "loss_sigma", np.float32(0.5)), ContractError, "cannot write a value as JSON"),
    ], ids=["nan", "minus-inf", "transposed", "missing", "reordered", "step-negative", "step-float", "loss_kind-int",
            "loss_sigma-nan", "loss_sigma-float32"])
    def test_writer_refuses_what_the_reader_refuses_before_writing(self, tmp_path, edit, error, match):
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(MLP_CFG), step=3, loss_kind="wsp", loss_sigma=0.1)
        edit(ckpt)
        with pytest.raises(error, match=match):
            save_checkpoint(ckpt, tmp_path / "c.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_step_is_written_as_an_integer(self, tmp_path):
        enc = init_encoder(MLP_CFG)
        save_checkpoint(EncoderCheckpoint.from_encoder(enc, step=12), tmp_path / "int.ckpt")
        save_checkpoint(EncoderCheckpoint.from_encoder(enc, step=np.int64(12)), tmp_path / "numpy.ckpt")
        assert (tmp_path / "numpy.ckpt").read_bytes() == (tmp_path / "int.ckpt").read_bytes()
        assert load_checkpoint(tmp_path / "numpy.ckpt").step == 12

    def test_truncation_rejected_with_offset(self, tmp_path):
        enc = init_encoder(EncoderConfig(seed=4))
        ckpt = EncoderCheckpoint.from_encoder(enc)
        path = tmp_path / "t.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset is not None

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b[:4] + struct.pack("<H", 2) + b[6:], "unsupported checkpoint version 2 (at byte offset 4)"),
        (lambda b: b + b"\0", "trailing bytes after the last field of the checkpoint (at byte offset {size})"),
    ], ids=["version-2", "trailing-byte"])
    def test_probe_reports_a_malformed_checkpoint(self, tmp_path, capsys, edit, message):
        generator, volumes = generate_synthetic_dataset(GeneratorConfig(n_volumes=2, slices_per_volume=2), seed=1)
        save_dataset(generator, volumes, tmp_path / "set")
        path = tmp_path / "enc.ckpt"
        save_checkpoint(EncoderCheckpoint.from_encoder(init_encoder(EncoderConfig(seed=4))), path)
        size = path.stat().st_size
        path.write_bytes(edit(path.read_bytes()))
        code = main(["probe", "--data", str(tmp_path / "set"), "--ckpt", str(path), "--out", str(tmp_path / "m.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"data error: {message.format(size=size)}" in err
        assert "Traceback" not in err

    def test_shape_mismatch_rejected(self):
        enc = init_encoder(EncoderConfig(seed=4))
        ckpt = EncoderCheckpoint.from_encoder(enc)
        ckpt.params["conv1_w"] = np.zeros((2, 1, 3, 3))
        with pytest.raises(FormatError):
            ckpt.to_encoder()
