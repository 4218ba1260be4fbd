import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsp.encoders import EncoderCheckpoint, EncoderConfig, init_encoder
from wsp.errors import ConfigError, ContractError, DegenerateInputError
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
    run_probe_protocol,
    sigma_sweep,
    stratified_kfold,
    write_metrics_csv,
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
        with pytest.raises(DegenerateInputError):
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
        write_metrics_csv(path, "random", 0.1, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,sigma,fold,auc_patient,auc_slice,bacc"
        assert len(lines) == 5
        assert lines[1].startswith("random,0.1,0,")


class TestSigmaSweep:
    def test_default_grid(self):
        assert DEFAULT_SWEEP_SIGMAS == (0.01, 0.1, 0.2, 0.3, 0.5)

    def test_row_per_sigma(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        rows = sigma_sweep(
            small_volumes,
            SMALL_ENC,
            optim,
            ProbeConfig(folds=4, seed=0),
            sigmas=(0.1, 0.5),
        )
        assert [row.sigma for row in rows] == [0.1, 0.5]
        for row in rows:
            assert len(row.fold_aucs) == 4
            assert 0.0 <= row.auc_mean <= 1.0

    def test_non_finite_sigma_rejected_before_any_run(self, small_volumes, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("pretrain ran")

        monkeypatch.setattr("wsp.evaluation.pretrain", no_training)
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        with pytest.raises(ConfigError):
            sigma_sweep(small_volumes, SMALL_ENC, optim, ProbeConfig(folds=4), sigmas=(0.1, float("nan")))

    def test_augment_config_reseeded_per_run(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        rows = [
            sigma_sweep(small_volumes, SMALL_ENC, optim, ProbeConfig(folds=4), sigmas=(0.1,), seeds=(0, 3), aug_cfg=aug)
            for aug in (None, AugmentConfig(seed=9))
        ]
        assert rows[0] == rows[1]

    def test_empty_sigma_list_rejected(self, small_volumes):
        optim = OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=LossConfig(tau=0.2), seed=0)
        with pytest.raises(ConfigError):
            sigma_sweep(small_volumes, SMALL_ENC, optim, ProbeConfig(), sigmas=())
