import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from wsp.autodiff import Tensor
from oracles import oracle_augment
from wsp.encoders import EncoderConfig, save_checkpoint
from wsp.errors import ConfigError, ContractError, NonFiniteError, write_csv
from wsp.losses import LossConfig
from wsp.sampling import AugmentConfig
from wsp import training
from wsp.training import (
    EpochRecord,
    OptimConfig,
    cosine_lr,
    init_optim_state,
    optimizer_step,
    pretrain,
)

SMALL_ENC = EncoderConfig(
    conv_channels=(4, 8, 8, 16, 16), repr_dim=32, proj_dim=8, proj_hidden=16
)


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3) == 1e-3
        assert cosine_lr(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-19)
        assert cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4, abs=1e-18)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            cosine_lr(-1, 10, 1e-3)
        with pytest.raises(ContractError):
            cosine_lr(11, 10, 1e-3)


class TestOptimizerStep:
    def make_params(self, values):
        return {"w": Tensor(np.array(values, dtype=np.float64), requires_grad=True)}

    def test_zero_gradient_no_decay_keeps_parameters(self):
        params = self.make_params([1.0, -2.0])
        cfg = OptimConfig(lr=0.1, weight_decay=0.0)
        state = init_optim_state(params)
        optimizer_step(params, {"w": np.zeros(2)}, state, cfg, lr_t=0.1)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_zero_gradient_with_decay_shrinks_geometrically(self):
        params = self.make_params([1.0, -2.0])
        cfg = OptimConfig(lr=0.1, weight_decay=0.5)
        state = init_optim_state(params)
        for _ in range(3):
            optimizer_step(params, {"w": np.zeros(2)}, state, cfg, lr_t=0.1)
        factor = (1.0 - 0.1 * 0.5) ** 3
        np.testing.assert_allclose(params["w"].data, np.array([1.0, -2.0]) * factor, rtol=1e-12)

    @pytest.mark.parametrize("optimizer", ["adaptive_moments", "sgd_momentum"])
    def test_quadratic_bowl_converges(self, optimizer):
        params = self.make_params([1.0, 1.0])
        lr = 0.05 if optimizer == "adaptive_moments" else 0.02
        cfg = OptimConfig(lr=lr, weight_decay=0.0, optimizer=optimizer, epochs=1)
        state = init_optim_state(params)
        for _ in range(200):
            grads = {"w": 2.0 * params["w"].data}
            optimizer_step(params, grads, state, cfg, lr_t=lr)
        final = float((params["w"].data ** 2).sum())
        assert final <= 2.0 / 100.0

    def test_sgd_momentum_matches_hand_update(self):
        params = self.make_params([1.0, -2.0])
        cfg = OptimConfig(lr=0.1, weight_decay=0.5, optimizer="sgd_momentum", momentum=0.9)
        state = init_optim_state(params)
        g1, g2 = np.array([0.5, 1.0]), np.array([-1.0, 2.0])
        optimizer_step(params, {"w": g1}, state, cfg, lr_t=0.1)
        optimizer_step(params, {"w": g2}, state, cfg, lr_t=0.05)
        # Each step: decay the weights, fold the gradient into the velocity, step against the velocity.
        w1 = np.array([1.0, -2.0]) * (1.0 - 0.1 * 0.5) - 0.1 * g1
        w2 = w1 * (1.0 - 0.05 * 0.5) - 0.05 * (0.9 * g1 + g2)
        np.testing.assert_allclose(params["w"].data, w2, rtol=1e-15)
        assert state.step == 2

    def test_non_finite_gradient_aborts_with_name(self):
        params = self.make_params([1.0])
        cfg = OptimConfig(lr=0.1)
        state = init_optim_state(params)
        with pytest.raises(NonFiniteError, match="'w'"):
            optimizer_step(params, {"w": np.array([np.nan])}, state, cfg, lr_t=0.1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptimConfig(lr=0.0)
        with pytest.raises(ConfigError):
            OptimConfig(weight_decay=-1.0)
        with pytest.raises(ConfigError):
            OptimConfig(optimizer="lion")
        with pytest.raises(ConfigError):
            OptimConfig(epochs=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"batch_size": 0},
            {"batch_size": 3},
            {"beta1": 2.0},
            {"beta2": 1.0},
            {"momentum": float("nan")},
            {"eps": -1.0},
            {"eps": 0.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"weight_decay": float("nan")},
            {"weight_decay": 1e308},
            {"lr": 0.5, "weight_decay": 2.0},
        ],
        ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()),
    )
    def test_range_checks(self, fields):
        with pytest.raises(ConfigError):
            OptimConfig(**fields)

    @pytest.mark.parametrize("name", ["cosine_granularity", "sampler_mode", "fallback_steps_per_epoch"])
    def test_deleted_options_are_not_fields(self, name):
        assert name not in OptimConfig.__dataclass_fields__


class TestPretrain:
    def optim(self, kind="wsp", seed=0, epochs=2, sigma=0.1):
        return OptimConfig(
            lr=1e-3,
            epochs=epochs,
            batch_size=8,
            loss=LossConfig(tau=0.2, sigma=sigma, loss_kind=kind),
            seed=seed,
        )

    def test_loss_improves_for_majority_of_seeds(self, small_volumes):
        improved = 0
        for seed in range(5):
            enc_cfg = EncoderConfig(
                seed=seed,
                conv_channels=SMALL_ENC.conv_channels,
                repr_dim=32,
                proj_dim=8,
                proj_hidden=16,
            )
            _, curve = pretrain(small_volumes, enc_cfg, self.optim(seed=seed))
            if curve[-1].mean_loss < curve[0].mean_loss:
                improved += 1
        assert improved >= 3

    def test_wsp_equals_supcon_when_depths_equal(self, small_volumes):
        # One slice per volume so every normalized depth is identical.
        single = [
            type(v)(
                volume_id=v.volume_id,
                patient_id=v.patient_id,
                v_max=v.v_max,
                slices=v.slices[:1],
                y_weak=v.y_weak,
                y_strong=v.y_strong,
            )
            for v in small_volumes
        ]
        enc_cfg = EncoderConfig(
            seed=1, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        _, wsp_curve = pretrain(single, enc_cfg, self.optim("wsp", seed=1))
        _, sup_curve = pretrain(single, enc_cfg, self.optim("supcon", seed=1))
        for a, b in zip(wsp_curve, sup_curve):
            assert a.mean_loss == pytest.approx(b.mean_loss, abs=1e-9)

    def test_replay_is_bit_identical(self, small_volumes):
        enc_cfg = EncoderConfig(
            seed=2, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        ckpt_a, curve_a = pretrain(small_volumes, enc_cfg, self.optim(seed=2))
        ckpt_b, curve_b = pretrain(small_volumes, enc_cfg, self.optim(seed=2))
        assert [c.mean_loss for c in curve_a] == [c.mean_loss for c in curve_b]
        for name in ckpt_a.params:
            assert np.array_equal(ckpt_a.params[name], ckpt_b.params[name])

    def test_checkpoint_records_loss_kind_and_steps(self, small_volumes):
        enc_cfg = EncoderConfig(
            seed=3, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        ckpt, curve = pretrain(small_volumes, enc_cfg, self.optim("depth_aware", seed=3))
        assert ckpt.loss_kind == "depth_aware"
        assert ckpt.loss_sigma == 0.1
        assert ckpt.step == len(curve) * 2  # ceil(16 patients / 8) batches per epoch

    def test_fallback_mode_used_for_tiny_cohorts(self, small_volumes):
        few = small_volumes[:4]
        enc_cfg = EncoderConfig(
            seed=4, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        ckpt, curve = pretrain(few, enc_cfg, self.optim(seed=4, epochs=1))
        assert ckpt.step == len(curve)  # one fallback batch per epoch

    def test_non_finite_loss_reports_batch(self, small_volumes, monkeypatch):
        enc_cfg = EncoderConfig(
            seed=5, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )

        def poisoned(z, meta, cfg):
            return Tensor(np.array(np.nan))

        monkeypatch.setattr("wsp.training.compute_loss", poisoned)
        with pytest.raises(NonFiniteError) as err:
            pretrain(small_volumes, enc_cfg, self.optim(seed=5, epochs=1))
        assert err.value.details["epoch"] == 0
        assert len(err.value.details["slice_ids"]) == 16  # two views per slice

    def test_checkpoint_bytes_match_per_view_oracle(self, small_volumes, tmp_path, monkeypatch):
        enc_cfg = EncoderConfig(
            seed=7, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        batched, _ = pretrain(small_volumes, enc_cfg, self.optim(seed=7))
        save_checkpoint(batched, tmp_path / "batched.ckpt")

        def per_view(pixels, cfg, seeds):
            return np.stack([oracle_augment(p, cfg, seed) for p, seed in zip(pixels, seeds)])

        monkeypatch.setattr("wsp.training.augment_views", per_view)
        reference, _ = pretrain(small_volumes, enc_cfg, self.optim(seed=7))
        save_checkpoint(reference, tmp_path / "reference.ckpt")
        assert (tmp_path / "batched.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()

    def test_sgd_momentum_trains_to_finite_loss(self, small_volumes):
        enc_cfg = EncoderConfig(
            seed=8, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        ckpt, curve = pretrain(small_volumes, enc_cfg, replace(self.optim(seed=8), optimizer="sgd_momentum"))
        assert ckpt.step == len(curve) * 2
        assert all(math.isfinite(rec.mean_loss) for rec in curve)

    def test_augmentation_disabled_still_trains(self, small_volumes):
        enc_cfg = EncoderConfig(
            seed=6, conv_channels=SMALL_ENC.conv_channels, repr_dim=32, proj_dim=8, proj_hidden=16
        )
        ckpt, curve = pretrain(
            small_volumes, enc_cfg, self.optim(seed=6, epochs=1), AugmentConfig(enabled=False)
        )
        assert math.isfinite(curve[0].mean_loss)


def test_spent_step_graph_is_released_before_the_next_step(small_volumes, traced_peak):
    # With batch 16 each epoch of the 16-patient cohort is one step. Nothing of a spent step, neither
    # its graph nor its gradients, may be alive during the next one, so later steps add no peak.
    enc_cfg = EncoderConfig()
    one = traced_peak(lambda: pretrain(small_volumes, enc_cfg, OptimConfig(epochs=1, batch_size=16)))
    three = traced_peak(lambda: pretrain(small_volumes, enc_cfg, OptimConfig(epochs=3, batch_size=16)))
    assert three - one <= 2**19


def test_spent_step_graph_is_released_before_the_next_step_with_prefetch(small_volumes, traced_peak, monkeypatch):
    # The same bound with the next batch's views made during each step: only that one batch is added.
    monkeypatch.setattr(training, "_spare_cpu", lambda: True)
    test_spent_step_graph_is_released_before_the_next_step(small_volumes, traced_peak)


class TestPrefetch:
    """The step loop with the next batch made on a worker thread (``_spare_cpu`` true) against the serial loop."""

    def optim(self):
        return OptimConfig(lr=1e-3, epochs=2, batch_size=8, loss=LossConfig(tau=0.2, sigma=0.1), seed=9)

    def enc(self):
        return replace(SMALL_ENC, seed=9)

    @staticmethod
    def run(monkeypatch, prefetch, *args):
        """``pretrain(*args)`` down one path; asserts that it leaves no worker thread behind, whether it returns or
        raises."""
        monkeypatch.setattr(training, "_spare_cpu", lambda: prefetch)
        before = set(threading.enumerate())
        try:
            return pretrain(*args)
        finally:
            assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("n_volumes", [16, 4], ids=["strict", "fallback"])
    def test_both_paths_give_the_same_bytes(self, small_volumes, tmp_path, monkeypatch, n_volumes):
        volumes = small_volumes[:n_volumes]
        results = {}
        for prefetch in (False, True):
            ckpt, curve = self.run(monkeypatch, prefetch, volumes, self.enc(), self.optim())
            save_checkpoint(ckpt, tmp_path / f"{prefetch}.ckpt")
            results[prefetch] = ((tmp_path / f"{prefetch}.ckpt").read_bytes(), curve)
        assert results[False] == results[True]
        assert len(results[True][1]) == 2

    def failing_assembly(self, monkeypatch, failed: threading.Event):
        """Make the assembly of batch 1 raise a ContractError, and set ``failed`` when it does."""
        assemble = training._assemble_batch

        def patched(batch, aug_cfg, key, enc_cfg):
            if key[2] == 1:
                failed.set()
                raise ContractError("assembly of batch 1")
            return assemble(batch, aug_cfg, key, enc_cfg)

        monkeypatch.setattr(training, "_assemble_batch", patched)

    @pytest.mark.parametrize("prefetch", [False, True], ids=["serial", "prefetch"])
    def test_assembly_error_surfaces_after_the_step_before(self, small_volumes, monkeypatch, prefetch):
        steps = []
        step = training.optimizer_step
        monkeypatch.setattr(training, "optimizer_step", lambda *args: (step(*args), steps.append(args[2].step)))
        self.failing_assembly(monkeypatch, threading.Event())
        with pytest.raises(ContractError, match="assembly of batch 1"):
            self.run(monkeypatch, prefetch, small_volumes, self.enc(), self.optim())
        assert steps == [1]  # step 0's optimizer_step ran, and only it

    @pytest.mark.parametrize("prefetch", [False, True], ids=["serial", "prefetch"])
    def test_a_failing_step_raises_its_own_error(self, small_volumes, monkeypatch, prefetch):
        failed = threading.Event()
        self.failing_assembly(monkeypatch, failed)

        def poisoned(z, meta, cfg):
            if prefetch:  # let batch 1's assembly fail on the worker first
                assert failed.wait(timeout=60)
            return Tensor(np.array(np.nan))

        monkeypatch.setattr(training, "compute_loss", poisoned)
        with pytest.raises(NonFiniteError) as err:
            self.run(monkeypatch, prefetch, small_volumes, self.enc(), self.optim())
        assert (err.value.details["epoch"], err.value.details["batch"]) == (0, 0)


class TestEpochRecords:
    """Each epoch's record: the mean of its steps' losses and the lr of its first step, on both paths."""

    @pytest.mark.parametrize("prefetch", [False, True], ids=["serial", "prefetch"])
    @pytest.mark.parametrize("n_volumes, batch_size, steps_per_epoch", [(16, 4, 4), (4, 8, 1)],
                             ids=["strict", "fallback"])
    def test_mean_step_loss_and_first_step_lr(self, small_volumes, monkeypatch, prefetch, n_volumes, batch_size,
                                              steps_per_epoch):
        step_losses, lrs = [], {}
        loss_fn, lr_fn = training.compute_loss, training.cosine_lr

        def recorded_loss(*args):
            loss = loss_fn(*args)
            step_losses.append(loss.item())
            return loss

        def recorded_lr(step, total_steps, lr):
            lr_t = lr_fn(step, total_steps, lr)
            lrs.setdefault(step, lr_t)
            return lr_t

        monkeypatch.setattr(training, "compute_loss", recorded_loss)
        monkeypatch.setattr(training, "cosine_lr", recorded_lr)
        monkeypatch.setattr(training, "_spare_cpu", lambda: prefetch)
        optim = OptimConfig(lr=1e-3, epochs=3, batch_size=batch_size, loss=LossConfig(tau=0.2, sigma=0.1), seed=3)
        ckpt, curve = pretrain(small_volumes[:n_volumes], replace(SMALL_ENC, seed=3), optim)
        assert len(step_losses) == ckpt.step == 3 * steps_per_epoch
        assert sorted(lrs) == list(range(3 * steps_per_epoch))
        for e, rec in enumerate(curve):
            first = e * steps_per_epoch
            assert rec.epoch == e
            assert rec.mean_loss == float(np.mean(step_losses[first : first + steps_per_epoch]))
            assert rec.lr == lrs[first] == cosine_lr(first, 3 * steps_per_epoch, 1e-3)
        assert len({rec.lr for rec in curve}) == 3


class TestSpareCpu:
    """The rule that picks the prefetch path: more usable CPUs than BLAS threads."""

    @pytest.fixture(autouse=True)
    def no_thread_variables(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)

    def spare(self, monkeypatch, cpus, **env):
        monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        return training._spare_cpu()

    def test_one_blas_thread_on_two_cpus_leaves_one_spare(self, monkeypatch):
        assert self.spare(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")

    def test_unset_means_blas_uses_every_cpu(self, monkeypatch):
        assert not self.spare(monkeypatch, 2)

    def test_one_cpu_has_none_spare(self, monkeypatch):
        assert not self.spare(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")

    def test_as_many_blas_threads_as_cpus(self, monkeypatch):
        assert not self.spare(monkeypatch, 2, OPENBLAS_NUM_THREADS="2")

    def test_omp_is_read_only_without_openblas(self, monkeypatch):
        assert self.spare(monkeypatch, 2, OMP_NUM_THREADS="1")
        assert not self.spare(monkeypatch, 2, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="2")

    def test_goto_comes_before_omp(self, monkeypatch):
        assert self.spare(monkeypatch, 2, GOTO_NUM_THREADS="1", OMP_NUM_THREADS="2")

    @pytest.mark.parametrize("value", ["", "0", "-1", "x"])
    def test_a_value_that_is_no_positive_count_is_unset(self, monkeypatch, value):
        assert self.spare(monkeypatch, 2, OPENBLAS_NUM_THREADS=value, OMP_NUM_THREADS="1")


def test_write_loss_curve(tmp_path):
    path = tmp_path / "curve.csv"
    curve = [EpochRecord(0, 1.5, 1e-3), EpochRecord(1, 1.25, 5e-4)]
    write_csv(path, ("epoch", "mean_loss", "lr"), [(rec.epoch, rec.mean_loss, rec.lr) for rec in curve])
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,lr"
    assert lines[1] == "0,1.5,0.001"
    assert lines[2] == "1,1.25,0.0005"
