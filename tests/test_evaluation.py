import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsp.benchmark import BENCHMARK_BATCH, BENCHMARK_CONFIG, benchmark_encoder, benchmark_generator, benchmark_optim
from wsp.cli import DEFAULT_SWEEP_SIGMAS, load_run_config, sweep_plan, sweep_runs
from wsp.data import GeneratorConfig
from wsp.encoders import EncoderCheckpoint, EncoderConfig, init_encoder, save_checkpoint, untrained_checkpoint
from wsp.errors import ConfigError, ContractError, write_csv
from wsp.evaluation import (
    ProbeConfig,
    RepresentationTable,
    auc,
    balanced_accuracy,
    extract_representations,
    fit_logistic_probe,
    pca_project,
    predict_probe,
    probe_representations,
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

    def test_rows_follow_volume_then_slice_order(self, small_volumes):
        volumes = [small_volumes[5], replace(small_volumes[2], y_strong=None), small_volumes[0]]
        table = extract_representations(EncoderCheckpoint.from_encoder(init_encoder(SMALL_ENC), 0, "random"), volumes)
        rows = [(v, s) for v in volumes for s in v.slices]
        assert table.patient_ids == [v.patient_id for v, _ in rows]
        assert table.slice_ids == [f"{v.volume_id}/{s.p}" for v, s in rows]
        assert table.d.tolist() == [s.d for _, s in rows]
        assert table.y_weak.tolist() == [v.y_weak for v, _ in rows]
        n = len(small_volumes[5].slices)
        assert table.y_strong.tolist() == [small_volumes[5].y_strong] * n + [-1] * n + [small_volumes[0].y_strong] * n
        assert (table.y_weak.dtype, table.y_strong.dtype, table.d.dtype) == (np.int64, np.int64, np.float64)

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
        labels = [1] * 10 + [0] * 10
        folds = stratified_kfold(labels, k=5, seed=0)
        for f in range(5):
            mask = folds == f
            assert mask.sum() == 4
            assert np.asarray(labels)[mask].sum() == 2

    def test_uneven_class_within_one(self):
        labels = [1] * 11 + [0] * 10
        folds = stratified_kfold(labels, k=5, seed=1)
        pos_counts = [int(((folds == f) & (np.asarray(labels) == 1)).sum()) for f in range(5)]
        assert set(pos_counts) <= {2, 3}

    def test_partition(self):
        labels = ([0] * 12) + ([1] * 11)
        folds = stratified_kfold(labels, k=5, seed=2)
        assert set(folds.tolist()) <= set(range(5))
        assert len(folds) == 23

    def test_small_class_rejected_by_name(self):
        with pytest.raises(ContractError, match="class 1"):
            stratified_kfold([0, 0, 0, 0, 0, 1], k=5, seed=0)

    def test_deterministic(self):
        labels = [i % 2 for i in range(20)]
        a = stratified_kfold(labels, k=5, seed=3)
        b = stratified_kfold(labels, k=5, seed=3)
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


def interleaved_table():
    """Ten patients of 1 to 4 slices each, first appearing out of sorted order, their later slices shuffled together."""
    rng = np.random.default_rng(5)
    order = ["p7", "p2", "p9", "p0", "p5", "p3", "p8", "p1", "p6", "p4"]
    extra = [pid for pid, n in zip(order, [0, 2, 1, 3, 0, 1, 2, 0, 3, 1]) for _ in range(n)]
    patient_ids = order + [extra[i] for i in rng.permutation(len(extra))]
    labels = np.asarray([int(pid[1:]) % 2 for pid in patient_ids])
    features = rng.normal(size=(len(patient_ids), 3))
    features[:, 0] += 0.8 * labels
    table = RepresentationTable(
        patient_ids=patient_ids,
        slice_ids=[f"{pid}/{i}" for i, pid in enumerate(patient_ids)],
        d=np.linspace(0, 1, len(patient_ids)),
        y_weak=labels.copy(),
        y_strong=labels,
        repr=features,
    )
    return table, order


def held_out_patient_scores(monkeypatch, slices):
    """Every held-out patient score that ``probe_representations`` forms from ``slices``, a list of (patient id,
    label, probability) rows, with the probe's prediction replaced by each slice's given probability."""
    import wsp.evaluation as evaluation

    monkeypatch.setattr(evaluation, "predict_probe", lambda x, w, b: x[:, 0])
    recorded = []

    def recording_bacc(scores, labels):
        recorded.extend(np.asarray(scores).tolist())
        return balanced_accuracy(scores, labels)

    monkeypatch.setattr(evaluation, "balanced_accuracy", recording_bacc)
    labels = np.asarray([label for _, label, _ in slices])
    table = RepresentationTable(
        patient_ids=[pid for pid, _, _ in slices],
        slice_ids=[f"{pid}/{i}" for i, (pid, _, _) in enumerate(slices)],
        d=np.linspace(0, 1, len(slices)),
        y_weak=labels.copy(),
        y_strong=labels,
        repr=np.asarray([[prob, label] for _, label, prob in slices], dtype=np.float64),
    )
    probe_representations(table, ProbeConfig(folds=3, seed=1))
    return sorted(recorded)


# Six patients, three per class: every fold holds out one of each.
AGGREGATE_SLICES = [
    ("p", 1, 0.2), ("q", 0, 0.7), ("r", 1, 0.9), ("p", 1, 0.4), ("s", 0, 0.1),
    ("t", 1, 0.6), ("u", 0, 0.3), ("q", 0, 0.5), ("t", 1, 0.8), ("q", 0, 0.0),
]  # fmt: skip


class TestAggregate:
    def test_mean(self, monkeypatch):
        scores = held_out_patient_scores(monkeypatch, AGGREGATE_SLICES)
        # p: (0.2 + 0.4) / 2, q: (0.7 + 0.5 + 0.0) / 3, t: (0.6 + 0.8) / 2
        assert scores == pytest.approx(sorted([0.3, 0.4, 0.9, 0.1, 0.7, 0.3]), abs=1e-12)

    def test_single_slice(self, monkeypatch):
        scores = held_out_patient_scores(monkeypatch, AGGREGATE_SLICES)
        for single in (0.9, 0.1, 0.3):  # r, s, u
            assert single in scores

    def test_order_invariant(self, monkeypatch, rng):
        base = held_out_patient_scores(monkeypatch, AGGREGATE_SLICES)
        perm = rng.permutation(len(AGGREGATE_SLICES))
        shuffled = held_out_patient_scores(monkeypatch, [AGGREGATE_SLICES[i] for i in perm])
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestProbeProtocol:
    def test_patient_scores_are_the_means_of_their_slices_probabilities(self):
        table, order = interleaved_table()
        cfg = ProbeConfig(folds=3, seed=2)
        report = probe_representations(table, cfg)
        label_of = dict(zip(table.patient_ids, table.y_strong.tolist()))
        # Folds are drawn over the patients in order of first appearance.
        fold_of = dict(zip(order, stratified_kfold([label_of[pid] for pid in order], 3, 2)))
        pids = np.asarray(table.patient_ids)
        for f in range(3):
            test = np.asarray([fold_of[pid] == f for pid in table.patient_ids])
            w, b = fit_logistic_probe(table.repr[~test], table.y_strong[~test].astype(float), cfg)
            probs = predict_probe(table.repr[test], w, b)
            held_out = sorted(set(pids[test]))
            means = [sum(probs[pids[test] == pid]) / int((pids == pid).sum()) for pid in held_out]
            labels = [label_of[pid] for pid in held_out]
            assert report.fold_auc_patient[f] == auc(means, labels)
            assert report.fold_bacc[f] == balanced_accuracy(means, labels)
            assert report.fold_auc_slice[f] == auc(probs, table.y_strong[test])

    def test_patient_without_strong_label_is_named(self):
        table, _ = interleaved_table()
        table.y_strong[table.patient_ids.index("p9")] = -1
        with pytest.raises(ContractError, match="patient p9 lacks a strong label"):
            probe_representations(table, ProbeConfig(folds=3))

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


# The run-config of a one-epoch sweep of SMALL_ENC on the small volumes.
SMALL_SWEEP = {"encoder": {"conv_channels": [4, 8, 8, 16, 16], "repr_dim": 32, "proj_dim": 8, "proj_hidden": 16},
               "loss": {"tau": 0.2}, "optim": {"lr": 1e-3, "epochs": 1, "batch_size": 8}, "probe": {"folds": 4}}


def small_sweep(volumes, **keys):
    """The runs of ``wsp sweep`` on ``volumes`` with the small run-config and ``keys``, each as
    ``{(method, sigma, seed): (checkpoint, report)}``, in the order they were yielded."""
    record, _ = sweep_plan({**SMALL_SWEEP, **keys})
    return {run[:3]: run[4:] for run in sweep_runs(record, volumes)}


def run_alone(volumes, method, sigma, seed):
    """(checkpoint, report) of one run of the small sweep, built from its configs without the runner."""
    enc = replace(SMALL_ENC, seed=seed)
    if method == "random":
        ckpt = untrained_checkpoint(enc)
    else:
        loss = LossConfig(tau=0.2, sigma=sigma, loss_kind=method)
        ckpt, _ = pretrain(volumes, enc, OptimConfig(lr=1e-3, epochs=1, batch_size=8, loss=loss, seed=seed),
                           AugmentConfig(seed=seed))
    return ckpt, run_probe_protocol(ckpt, volumes, ProbeConfig(folds=4, seed=seed))


def no_training(*args, **kwargs):
    raise AssertionError("pretrain ran")


class TestPretrainAndProbe:
    def test_trained_run_is_pretrain_then_probe(self, small_volumes):
        (ckpt, report), = small_sweep(small_volumes, methods=["wsp"], sigmas=[0.1], seeds=[1]).values()
        expected, expected_report = run_alone(small_volumes, "wsp", 0.1, 1)
        assert (ckpt.step, ckpt.loss_kind) == (expected.step, "wsp")
        for name, values in expected.params.items():
            assert np.array_equal(ckpt.params[name], values)
        assert report == expected_report

    def test_no_optim_probes_the_untrained_encoder(self, small_volumes):
        (ckpt, report), = small_sweep(small_volumes, methods=["random"], sigmas=[0.1], seeds=[1]).values()
        assert (ckpt.step, ckpt.loss_kind) == (0, "random")
        for name, param in init_encoder(replace(SMALL_ENC, seed=1)).params.items():
            assert np.array_equal(ckpt.params[name], param.data)
        assert report == run_probe_protocol(ckpt, small_volumes, ProbeConfig(folds=4, seed=1))

    def test_bad_grid_cell_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        monkeypatch.setattr("wsp.cli.run_probe_protocol", no_training)
        doc = load_run_config(BENCHMARK_CONFIG, "sweep")
        with pytest.raises(ConfigError):
            sweep_plan({**doc, "sigmas": [0.1, float("nan")]})
        # 1e-200 is below loss.sigma's declared range, which every entry of the list obeys.
        with pytest.raises(ConfigError, match="sigmas entries must lie in"):
            sweep_plan({**doc, "sigmas": [0.1, 1e-200], "seeds": [0]})

    # The least sigma and tau that LossConfig accepts (see tests/test_losses.py): a sweep reads both by its rules.
    @pytest.mark.parametrize("key, least, plan", [
        ("sigmas", 5.273843307431499e-155, lambda sigma: {"sigmas": [0.1, sigma]}),
        ("tau", math.nextafter(1 / sys.float_info.max, 1), lambda tau: {"loss": {"tau": tau}}),
    ], ids=["sigma", "tau"])
    def test_sweep_plan_takes_the_loss_ranges_of_loss_config(self, key, least, plan):
        record, _ = sweep_plan(plan(least))
        assert least in (*record["sigmas"], record["loss"].tau)
        with pytest.raises(ConfigError, match=rf"{key}( entries)? must lie in"):
            sweep_plan(plan(math.nextafter(least, 0)))

    def test_empty_seed_list_rejected_before_any_run(self, small_volumes, monkeypatch):
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        with pytest.raises(ConfigError, match="seed"):
            sweep_plan({**load_run_config(BENCHMARK_CONFIG, "sweep"), "seeds": []})
        with pytest.raises(ConfigError, match="seed"):
            small_sweep(small_volumes, seeds=[])


class TestSigmaSweep:
    def test_default_grid(self):
        assert DEFAULT_SWEEP_SIGMAS == (0.01, 0.1, 0.2, 0.3, 0.5)

    def test_row_per_sigma(self, small_volumes):
        runs = small_sweep(small_volumes, sigmas=[0.1, 0.5], seeds=[0])
        assert list(runs) == [("wsp", 0.1, 0), ("wsp", 0.5, 0)]
        for _, report in runs.values():
            assert len(report.fold_auc_patient) == 4
            assert 0.0 <= report.mean_auc_patient <= 1.0

    def test_non_finite_sigma_rejected_before_any_run(self, small_volumes, monkeypatch):
        monkeypatch.setattr("wsp.cli.pretrain", no_training)
        with pytest.raises(ConfigError):
            small_sweep(small_volumes, sigmas=[0.1, float("nan")])

    def test_augment_config_reseeded_per_run(self, small_volumes):
        runs = [small_sweep(small_volumes, sigmas=[0.1], seeds=[0, 3], **aug) for aug in ({}, {"augment": {"seed": 9}})]
        assert [report for _, report in runs[0].values()] == [report for _, report in runs[1].values()]

    def test_empty_sigma_list_rejected(self, small_volumes):
        with pytest.raises(ConfigError):
            small_sweep(small_volumes, sigmas=[])

    def test_each_report_is_its_run_alone_and_a_repeated_cell_runs_once(self, small_volumes, monkeypatch, tmp_path):
        trained = []

        def counting_pretrain(volumes, enc_cfg, optim_cfg, aug_cfg=None):
            trained.append((optim_cfg.loss.loss_kind, optim_cfg.loss.sigma, optim_cfg.seed))
            return pretrain(volumes, enc_cfg, optim_cfg, aug_cfg)

        monkeypatch.setattr("wsp.cli.pretrain", counting_pretrain)
        methods, sigmas = ["wsp", "supcon", "random", "wsp"], [0.1, 0.5, 0.1]
        runs = small_sweep(small_volumes, methods=methods, sigmas=sigmas, seeds=[0, 3, 0])
        # supcon does not read sigma: it trains once per seed, at the first sigma.
        assert trained == [("wsp", 0.1, 0), ("wsp", 0.5, 0), ("supcon", 0.1, 0),
                           ("wsp", 0.1, 3), ("wsp", 0.5, 3), ("supcon", 0.1, 3)]
        assert list(runs) == [(kind, sigma, seed) for seed in (0, 3) for kind in methods[:3] for sigma in sigmas[:2]]
        for (kind, sigma, seed), (ckpt, report) in runs.items():
            alone, alone_report = run_alone(small_volumes, kind, sigma, seed)
            assert report == alone_report
            save_checkpoint(ckpt, tmp_path / "run.ckpt")
            save_checkpoint(alone, tmp_path / "alone.ckpt")
            assert (tmp_path / "run.ckpt").read_bytes() == (tmp_path / "alone.ckpt").read_bytes()


def test_benchmark_recipe_holds_the_published_configs(monkeypatch):
    """The committed recipe, read as ``wsp sweep`` reads it, and the builders that the benchmark harness takes from it,
    give the configs of the published benchmark on every seed."""
    record, volumes = sweep_plan(load_run_config(BENCHMARK_CONFIG, "sweep"))
    assert volumes is None
    assert record["methods"] == ["random", "infonce", "supcon", "depth_aware", "wsp"]
    assert record["sigmas"] == [0.1]
    assert record["seeds"] == [0, 1, 2, 3, 4]
    assert BENCHMARK_BATCH == 32
    assert benchmark_generator() == GeneratorConfig(n_volumes=60, slices_per_volume=24, height=32, width=32,
                                                    noise_rate=0.1)
    assert benchmark_generator(n_volumes=128).n_volumes == 128
    for seed in record["seeds"]:
        assert benchmark_encoder(seed) == EncoderConfig(seed=seed)
        for kind in ("wsp", "supcon", "depth_aware", "infonce"):
            loss = LossConfig(tau=0.2, sigma=0.1, loss_kind=kind)
            assert benchmark_optim(kind, seed) == OptimConfig(lr=1e-3, epochs=30, batch_size=32, loss=loss, seed=seed)
    seen = {}

    def capture_pretrain(volumes, enc, optim, aug):
        seen.update(volumes=volumes, enc=enc, optim=optim, aug=aug)
        return untrained_checkpoint(enc), None

    monkeypatch.setattr("wsp.cli.pretrain", capture_pretrain)
    monkeypatch.setattr("wsp.cli.run_probe_protocol", lambda ckpt, volumes, probe: seen.update(probe=probe))
    (_, _, _, cohort, _, _), = sweep_runs({**record, "methods": ["wsp"], "seeds": [3]})
    assert (seen["enc"], seen["optim"], seen["probe"], seen["aug"]) == (
        EncoderConfig(seed=3), benchmark_optim("wsp", 3), ProbeConfig(seed=3), AugmentConfig(seed=3))
    assert seen["volumes"] is cohort and len(cohort) == 60
