from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsp.benchmark import run_benchmark
from wsp.encoders import EncoderCheckpoint, EncoderConfig, init_encoder, untrained_checkpoint
from wsp.errors import ConfigError, ContractError, write_csv
from wsp.evaluation import (
    DEFAULT_SWEEP_SIGMAS,
    ProbeConfig,
    RepresentationTable,
    aggregate_patient,
    auc,
    balanced_accuracy,
    extract_representations,
    fit_logistic_probe,
    pca_project,
    predict_probe,
    probe_representations,
    run_grid,
    run_probe_protocol,
    stratified_kfold,
)
from wsp.losses import LossConfig
from wsp.sampling import AugmentConfig
from wsp.training import OptimConfig, pretrain

from oracles import brute_force_auc

SMALL_ENC = EncoderConfig(conv_channels=(4, 8, 8, 16, 16), repr_dim=32, proj_dim=8, proj_hidden=16)


class TestExtract:
    def test_row_count_and_determinism(self, small_volumes):
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(SMALL_ENC), 0, "random")
        table_a = extract_representations(ckpt, small_volumes)
        table_b = extract_representations(ckpt, small_volumes)
        expected_rows = sum(len(v.slices) for v in small_volumes)
        assert len(table_a) == expected_rows
        assert np.array_equal(table_a.repr, table_b.repr)
        assert table_a.repr.shape[1] == SMALL_ENC.repr_dim

    def test_pretrained_representation_differs_from_random(self, small_volumes):
        random_ckpt = EncoderCheckpoint.from_encoder(init_encoder(SMALL_ENC), 0, "random")
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        trained_ckpt, _ = pretrain(small_volumes, SMALL_ENC, optim)
        a = extract_representations(random_ckpt, small_volumes)
        b = extract_representations(trained_ckpt, small_volumes)
        assert not np.allclose(a.repr, b.repr)

    def test_to_encoder_is_frozen(self):
        enc = EncoderCheckpoint.from_encoder(init_encoder(SMALL_ENC), 0, "random").to_encoder()
        assert not any(p.requires_grad for p in enc.params.values())

    @pytest.mark.parametrize("arch", ["tiny_cnn", "mlp"])
    def test_peak_memory_grows_only_with_the_output_table(self, small_volumes, traced_peak, monkeypatch, arch):
        # 48 and 96 slices: three and six full chunks of 16. No graph and no float64 copy of the
        # cohort may grow with the chunk count; the table, with its Python lists, may.
        cfg = EncoderConfig(arch=arch, input_shape=(1024,)) if arch == "mlp" else EncoderConfig()
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(cfg), 0, "random")
        tables = {}
        monkeypatch.setattr("wsp.evaluation.EXTRACT_CHUNK", 16)

        def extract(n_volumes):
            tables[n_volumes] = extract_representations(ckpt, small_volumes[:n_volumes])

        small, large = traced_peak(lambda: extract(8)), traced_peak(lambda: extract(16))
        assert (len(tables[8]), len(tables[16])) == (48, 96)
        table_bytes = {n: sum(a.nbytes for a in (t.repr, t.d, t.y_weak, t.y_strong)) for n, t in tables.items()}
        assert large - small <= table_bytes[16] - table_bytes[8] + 48 * 512


class TestLogisticProbe:
    def test_separable_points_reach_perfect_accuracy(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        w, b = fit_logistic_probe(x, y, ProbeConfig(l2_strength=0.01))
        preds = predict_probe(x, w, b) >= 0.5
        assert np.array_equal(preds, y.astype(bool))

    def test_huge_regularization_shrinks_weights_to_prior(self, rng):
        x = rng.normal(size=(40, 3))
        y = (rng.random(40) < 0.25).astype(float)
        w, b = fit_logistic_probe(x, y, ProbeConfig(l2_strength=1e6))
        assert np.abs(w).max() < 1e-3
        prior = y.mean()
        np.testing.assert_allclose(predict_probe(x, w, b), prior, atol=0.02)

    def test_gradient_small_at_optimum(self, rng):
        x = rng.normal(size=(60, 4))
        logits = x @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.3
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
        cfg = ProbeConfig(l2_strength=1.0, tolerance=1e-10)
        w, b = fit_logistic_probe(x, y, cfg)
        n = len(y)
        p = predict_probe(x, w, b)
        grad_w = x.T @ (p - y) / n + (cfg.l2_strength / n) * w
        grad_b = float(np.mean(p - y))
        assert max(np.abs(grad_w).max(), abs(grad_b)) < 1e-8

    def test_objective_monotonically_decreases(self, rng):
        x = rng.normal(size=(50, 5))
        y = (rng.random(50) < 0.5).astype(float)
        trace: list = []
        fit_logistic_probe(x, y, ProbeConfig(), trace=trace)
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            fit_logistic_probe(np.zeros((4, 2)), np.ones(4), ProbeConfig())

    @pytest.mark.parametrize("field", ["tolerance", "l2_strength"])
    def test_non_finite_config_value_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            ProbeConfig(**{field: float("nan")})


class TestAggregate:
    def test_mean(self):
        out = aggregate_patient([0.2, 0.4], ["p", "p"])
        assert out == {"p": pytest.approx(0.3)}

    def test_single_slice(self):
        assert aggregate_patient([0.7], ["p"]) == {"p": pytest.approx(0.7)}

    def test_order_invariant(self, rng):
        probs = rng.random(9)
        pids = ["a", "b", "c"] * 3
        base = aggregate_patient(probs, pids)
        perm = rng.permutation(9)
        shuffled = aggregate_patient(probs[perm], [pids[i] for i in perm])
        for key in base:
            assert shuffled[key] == pytest.approx(base[key], abs=1e-12)

    def test_probability_range_checked(self):
        with pytest.raises(ContractError):
            aggregate_patient([1.5], ["p"])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_tied_scores(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_random_scores_near_half(self, rng):
        scores = rng.random(1000)
        labels = (rng.random(1000) < 0.5).astype(int)
        assert auc(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            auc([0.1, 0.9], [1, 1])

    @given(
        n=st.integers(5, 60),
        tie_fraction=st.floats(0.0, 0.8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_with_ties(self, n, tie_fraction, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(n)
        ties = rng.random(n) < tie_fraction
        scores[ties] = np.round(scores[ties], 1)  # force duplicates
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[: max(1, n // 3)]] = 1
        if labels.sum() in (0, n):
            return
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_positive_predictions(self):
        assert balanced_accuracy([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0]) == 0.5

    def test_hand_counted_mix(self):
        # sensitivity 3/4, specificity 1/2 -> 0.625
        probs = [0.9, 0.8, 0.7, 0.2, 0.9, 0.1]
        labels = [1, 1, 1, 1, 0, 0]
        assert balanced_accuracy(probs, labels) == pytest.approx(0.625)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            balanced_accuracy([0.5, 0.6], [1, 1])


class TestStratifiedKFold:
    def test_equal_classes_split_evenly(self):
        pids = [f"p{i}" for i in range(20)]
        labels = [1] * 10 + [0] * 10
        folds = stratified_kfold(pids, labels, k=5, seed=0)
        for f in range(5):
            mask = folds == f
            assert mask.sum() == 4
            assert np.asarray(labels)[mask].sum() == 2

    def test_uneven_class_within_one(self):
        pids = [f"p{i}" for i in range(21)]
        labels = [1] * 11 + [0] * 10
        folds = stratified_kfold(pids, labels, k=5, seed=1)
        pos_counts = [int(((folds == f) & (np.asarray(labels) == 1)).sum()) for f in range(5)]
        assert set(pos_counts) <= {2, 3}

    def test_partition(self):
        pids = [f"p{i}" for i in range(23)]
        labels = ([0] * 12) + ([1] * 11)
        folds = stratified_kfold(pids, labels, k=5, seed=2)
        assert set(folds.tolist()) <= set(range(5))
        assert len(folds) == 23

    def test_small_class_rejected_by_name(self):
        with pytest.raises(ContractError, match="class 1"):
            stratified_kfold(["a", "b", "c", "d", "e", "f"], [0, 0, 0, 0, 0, 1], k=5, seed=0)

    def test_deterministic(self):
        pids = [f"p{i}" for i in range(20)]
        labels = [i % 2 for i in range(20)]
        a = stratified_kfold(pids, labels, k=5, seed=3)
        b = stratified_kfold(pids, labels, k=5, seed=3)
        assert np.array_equal(a, b)


class TestPca:
    def test_line_data_first_mode_dominates(self, rng):
        direction = np.array([1.0, 2.0, -0.5])
        x = rng.normal(size=(50, 1)) * direction[None, :]
        coords, explained = pca_project(x)
        assert explained[0] >= 1.0 - 1e-9

    def test_isotropic_gaussian_splits_variance(self, rng):
        x = rng.normal(size=(10_000, 2))
        _, explained = pca_project(x)
        np.testing.assert_allclose(explained, [0.5, 0.5], atol=0.03)

    def test_projection_of_mean_is_origin(self, rng):
        x = rng.normal(size=(30, 4))
        coords, _ = pca_project(x)
        np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-12)

    def test_sign_convention_fixed_under_row_permutation(self, rng):
        x = rng.normal(size=(40, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        coords_a, _ = pca_project(x)
        perm = rng.permutation(40)
        coords_b, _ = pca_project(x[perm])
        np.testing.assert_allclose(coords_b, coords_a[perm], atol=1e-9)

    def test_rank_zero_rejected(self):
        with pytest.raises(ContractError):
            pca_project(np.ones((5, 3)))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ContractError):
            pca_project(np.zeros((2, 3)))


def planted_table(small_volumes, plant_signal):
    """Representation table whose first coordinate equals y_strong when planted."""
    rng = np.random.default_rng(0)
    patient_ids, slice_ids, d, y_weak, y_strong = [], [], [], [], []
    for v in small_volumes:
        for s in v.slices:
            patient_ids.append(v.patient_id)
            slice_ids.append(f"{v.volume_id}/{s.p}")
            d.append(s.d)
            y_weak.append(v.y_weak)
            y_strong.append(v.y_strong)
    n = len(slice_ids)
    reps = rng.normal(size=(n, 8))
    if plant_signal:
        reps[:, 0] = np.asarray(y_strong, dtype=np.float64)
    return RepresentationTable(
        patient_ids=patient_ids,
        slice_ids=slice_ids,
        d=np.asarray(d),
        y_weak=np.asarray(y_weak),
        y_strong=np.asarray(y_strong),
        repr=reps,
    )


class TestProbeProtocol:
    def test_planted_signal_reaches_auc_one_every_fold(self, small_volumes):
        table = planted_table(small_volumes, plant_signal=True)
        report = probe_representations(table, ProbeConfig(folds=4, seed=0))
        assert all(a == 1.0 for a in report.fold_auc_patient)
        assert report.std_auc_patient == 0.0  # identical folds by construction

    def test_label_independent_features_stay_near_chance(self):
        # 48 patients x 3 slices with features independent of the labels;
        # the fold-mean AUC should sit inside the null band.
        rng = np.random.default_rng(3)
        patient_ids = [f"p{i}" for i in range(48) for _ in range(3)]
        slice_ids = [f"p{i}/{j}" for i in range(48) for j in range(3)]
        labels = np.repeat(np.arange(48) % 2, 3)
        table = RepresentationTable(
            patient_ids=patient_ids,
            slice_ids=slice_ids,
            d=np.tile(np.linspace(0, 1, 3), 48),
            y_weak=labels.copy(),
            y_strong=labels,
            repr=rng.normal(size=(144, 8)),
        )
        report = probe_representations(table, ProbeConfig(folds=4, seed=0))
        assert 0.3 <= report.mean_auc_patient <= 0.7

    def test_full_protocol_runs_on_checkpoint(self, small_volumes):
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(SMALL_ENC), 0, "random")
        report = run_probe_protocol(ckpt, small_volumes, ProbeConfig(folds=4, seed=1))
        assert len(report.fold_auc_patient) == 4
        assert len(report.patient_probabilities) == len(small_volumes)
        assert all(0.0 <= v <= 1.0 for v in report.patient_probabilities.values())

    def test_metrics_csv_schema(self, small_volumes, tmp_path):
        ckpt = EncoderCheckpoint.from_encoder(init_encoder(SMALL_ENC), 0, "random")
        report = run_probe_protocol(ckpt, small_volumes, ProbeConfig(folds=4, seed=1))
        path = tmp_path / "metrics.csv"
        folds = zip(report.fold_auc_patient, report.fold_auc_slice, report.fold_bacc)
        rows = [("random", 0.1, f, *scores) for f, scores in enumerate(folds)]
        write_csv(path, ("method", "sigma", "fold", "auc_patient", "auc_slice", "bacc"), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,sigma,fold,auc_patient,auc_slice,bacc"
        assert len(lines) == 5
        assert lines[1].startswith("random,0.1,0,")


def one_run(volumes, cell, optim, probe):
    """(checkpoint, ProbeReport) of the one-cell, one-seed grid of ``cell`` under this recipe."""
    reports, checkpoints = run_grid([cell], [0], lambda seed: (volumes, SMALL_ENC, optim, probe, None), (cell[0],))
    return checkpoints[cell][0], reports[cell][0]


class TestPretrainAndProbe:
    def test_trained_run_is_pretrain_then_probe(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        ckpt, report = one_run(small_volumes, ("wsp", 0.1), optim, ProbeConfig(folds=4, seed=1))
        expected, _ = pretrain(small_volumes, SMALL_ENC, optim)
        assert (ckpt.step, ckpt.loss_kind) == (expected.step, "wsp")
        for name, values in expected.params.items():
            assert np.array_equal(ckpt.params[name], values)
        assert report == run_probe_protocol(expected, small_volumes, ProbeConfig(folds=4, seed=1))

    def test_no_optim_probes_the_untrained_encoder(self, small_volumes):
        ckpt, report = one_run(small_volumes, ("random", 0.1), OptimConfig(), ProbeConfig(folds=4, seed=1))
        assert (ckpt.step, ckpt.loss_kind) == (0, "random")
        for name, param in init_encoder(SMALL_ENC).params.items():
            assert np.array_equal(ckpt.params[name], param.data)
        assert report == run_probe_protocol(ckpt, small_volumes, ProbeConfig(folds=4, seed=1))

    def test_bad_grid_cell_rejected_before_any_run(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("pretrain ran")

        monkeypatch.setattr("wsp.evaluation.pretrain", no_training)
        with pytest.raises(ConfigError):
            run_benchmark(seeds=(0,), cells=[("wsp", 0.1), ("wsp", float("nan"))])

    def test_empty_seed_list_rejected_before_any_run(self, small_volumes, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("pretrain ran")

        monkeypatch.setattr("wsp.evaluation.pretrain", no_training)
        with pytest.raises(ConfigError, match="seed"):
            run_benchmark(seeds=())
        with pytest.raises(ConfigError, match="seed"):
            run_grid([("wsp", 0.1)], [], sweep_recipe(small_volumes, OptimConfig(epochs=1, batch_size=8), ProbeConfig()))


def sweep_recipe(volumes, optim, probe, aug=None):
    """The recipe of ``wsp sweep``: each run's seed goes to the encoder, optim and augment configs."""

    def recipe(seed):
        seeded_aug = None if aug is None else replace(aug, seed=seed)
        return volumes, replace(SMALL_ENC, seed=seed), replace(optim, seed=seed), probe, seeded_aug

    return recipe


def sweep_grid(volumes, optim, probe, sigmas, seeds=(0,), aug=None):
    """``reports[cell][seed]`` of the wsp loss at each sigma."""
    reports, _ = run_grid([("wsp", sigma) for sigma in sigmas], seeds, sweep_recipe(volumes, optim, probe, aug))
    return reports


class TestSigmaSweep:
    def test_default_grid(self):
        assert DEFAULT_SWEEP_SIGMAS == (0.01, 0.1, 0.2, 0.3, 0.5)

    def test_row_per_sigma(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        reports = sweep_grid(small_volumes, optim, ProbeConfig(folds=4, seed=0), sigmas=(0.1, 0.5))
        assert [sigma for _, sigma in reports] == [0.1, 0.5]
        for by_seed in reports.values():
            assert len(by_seed[0].fold_auc_patient) == 4
            assert 0.0 <= by_seed[0].mean_auc_patient <= 1.0

    def test_non_finite_sigma_rejected_before_any_run(self, small_volumes, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("pretrain ran")

        monkeypatch.setattr("wsp.evaluation.pretrain", no_training)
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        with pytest.raises(ConfigError):
            sweep_grid(small_volumes, optim, ProbeConfig(folds=4), sigmas=(0.1, float("nan")))

    def test_augment_config_reseeded_per_run(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        reports = [
            sweep_grid(small_volumes, optim, ProbeConfig(folds=4), sigmas=(0.1,), seeds=(0, 3), aug=aug)
            for aug in (None, AugmentConfig(seed=9))
        ]
        assert reports[0] == reports[1]

    def test_empty_sigma_list_rejected(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        with pytest.raises(ConfigError):
            sweep_grid(small_volumes, optim, ProbeConfig(), sigmas=())

    def test_each_report_is_its_run_alone_and_a_repeated_cell_runs_once(self, small_volumes, monkeypatch):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        probe = ProbeConfig(folds=4, seed=1)
        trained = []

        def counting_pretrain(volumes, enc_cfg, optim_cfg, aug_cfg=None):
            trained.append((optim_cfg.loss.loss_kind, optim_cfg.loss.sigma, optim_cfg.seed))
            return pretrain(volumes, enc_cfg, optim_cfg, aug_cfg)

        monkeypatch.setattr("wsp.evaluation.pretrain", counting_pretrain)
        cells = [("wsp", 0.1), ("supcon", 0.5), ("random", 0.1), ("wsp", 0.1)]
        recipe = sweep_recipe(small_volumes, optim, probe)
        reports, checkpoints = run_grid(cells, [0, 3, 0], recipe, keep_checkpoints=("supcon",))
        assert trained == [("wsp", 0.1, 0), ("supcon", 0.5, 0), ("wsp", 0.1, 3), ("supcon", 0.5, 3)]
        assert list(reports) == cells[:3]
        assert list(checkpoints) == [("supcon", 0.5)]
        for (kind, sigma), by_seed in reports.items():
            assert list(by_seed) == [0, 3]
            for seed, report in by_seed.items():
                volumes, enc, run_optim, _, aug = recipe(seed)
                if kind == "random":
                    ckpt = untrained_checkpoint(enc)
                else:
                    run_optim = replace(run_optim, loss=replace(optim.loss, loss_kind=kind, sigma=sigma))
                    ckpt, _ = pretrain(volumes, enc, run_optim, aug)
                alone = run_probe_protocol(ckpt, volumes, probe)
                assert report == alone
                if kind == "supcon":
                    for name, values in ckpt.params.items():
                        assert np.array_equal(checkpoints[(kind, sigma)][seed].params[name], values)
