"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy pieces (the five-method benchmark and the bandwidth sweep over five
seeds, and the negative control) are computed once in module-scoped fixtures
and shared across criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from wsp import autodiff as ad
from wsp.autodiff import Tensor
from wsp.benchmark import BENCHMARK_CONFIG
from wsp.cli import DEFAULT_SWEEP_SIGMAS, load_run_config, main, sweep_plan, sweep_runs
from wsp.evaluation import ProbeConfig, auc, extract_representations, pca_project, probe_representations
from wsp.evaluation import stratified_kfold
from wsp.losses import BatchMeta, LossConfig, compute_loss, gradient_check, normalize_rows, pair_weights
from wsp.sampling import BatchSpec, epoch_batches, sample_batch
from wsp.training import cosine_lr

from oracles import brute_force_auc, make_meta, naive_kernel_loss, paired_random_batch
from pins import AUC_TOLERANCE, GRID_AUC_GOLDENS, fingerprint


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def sweep(doc, checkpoint_methods=()):
    """The runs of the sweep that the run-config ``doc`` gives ``wsp sweep``.

    Returns ``auc[cell][seed]`` (fold-mean patient AUC of each (method, sigma) cell), each seed's ``volumes``,
    ``checkpoints[cell][seed]`` for the cells whose method is in ``checkpoint_methods``, and the sweep's ``record``.
    """
    record, _ = sweep_plan(doc)
    grid = {"auc": {}, "volumes": {}, "checkpoints": {}, "record": record}
    for method, sigma, seed, volumes, ckpt, report in sweep_runs(record):
        grid["auc"].setdefault((method, sigma), {})[seed] = report.mean_auc_patient
        grid["volumes"][seed] = volumes
        if method in checkpoint_methods:
            grid["checkpoints"].setdefault((method, sigma), {})[seed] = ckpt
    return grid


@pytest.fixture(scope="module")
def grid():
    """The README's two experiments: the benchmark recipe's methods, then wsp at the other bandwidths of the sweep."""
    doc = load_run_config(BENCHMARK_CONFIG, "sweep")
    grid = sweep(doc, ("random", "wsp"))
    others = [sigma for sigma in DEFAULT_SWEEP_SIGMAS if sigma not in grid["record"]["sigmas"]]
    grid["auc"].update(sweep({**doc, "methods": ["wsp"], "sigmas": others})["auc"])
    return grid


def seed_mean(grid, kind, sigma=None) -> float:
    sigma = grid["record"]["sigmas"][0] if sigma is None else sigma
    return float(np.mean(list(grid["auc"][(kind, sigma)].values())))


@pytest.fixture(scope="module")
def null_control():
    """The benchmark recipe's methods on its first seed, probed on a cohort with the class signal removed."""
    doc = load_run_config(BENCHMARK_CONFIG, "sweep")
    data = {**doc.get("data", {}), "contour_amplitudes": [0.0, 0.0, 0.0, 0.0]}
    grid = sweep({**doc, "seeds": doc["seeds"][:1], "data": data})
    (seed, volumes), = grid["volumes"].items()
    n_pos = sum(1 for v in volumes if v.y_strong == 1)
    n_neg = len(volumes) - n_pos
    sigma_bin = math.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))
    return {kind: by_seed[seed] for (kind, _), by_seed in grid["auc"].items()}, sigma_bin


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    results = gradient_check(seed=0, n_batches=20)
    elapsed = time.perf_counter() - start
    assert set(results) == {"wsp", "supcon", "depth_aware", "infonce"}
    for kind, err in results.items():
        assert err < 1e-5, f"{kind}: max relative error {err:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    ok(1, f"max rel errors {max(results.values()):.2e} across 4 loss kinds in {elapsed:.1f}s")


def test_criterion_02_reduction_identities():
    def loss(kind, z, meta, cfg):
        return compute_loss(z, meta, replace(cfg, loss_kind=kind)).item()

    rng = np.random.default_rng(2)
    worst = {"supcon": 0.0, "depth": 0.0, "infonce": 0.0, "sigma_limit": 0.0}
    for _ in range(50):
        z, meta = paired_random_batch(rng, n_slices=int(rng.integers(2, 5)), dim=8)
        zt = Tensor(z)
        cfg = LossConfig(tau=0.4, sigma=0.15)

        equal_d = BatchMeta(meta.y, np.full(len(meta), 0.5), meta.slice_ids, meta.patient_ids)
        a = loss("wsp", zt, equal_d, cfg)
        b = loss("supcon", zt, equal_d, cfg)
        worst["supcon"] = max(worst["supcon"], abs(a - b))

        equal_y = BatchMeta(np.full(len(meta), 3), meta.d, meta.slice_ids, meta.patient_ids)
        a = loss("wsp", zt, equal_y, cfg)
        b = loss("depth_aware", zt, equal_y, cfg)
        worst["depth"] = max(worst["depth"], abs(a - b))

        unique = BatchMeta(np.repeat(np.arange(len(meta) // 2), 2), meta.d, meta.slice_ids, meta.patient_ids)
        a = loss("wsp", zt, unique, cfg)
        b = loss("infonce", zt, unique, cfg)
        worst["infonce"] = max(worst["infonce"], abs(a - b))

        wide = LossConfig(tau=0.4, sigma=1e6)
        a = loss("wsp", zt, meta, wide)
        b = loss("supcon", zt, meta, wide)
        worst["sigma_limit"] = max(worst["sigma_limit"], abs(a - b))

    assert worst["supcon"] < 1e-9
    assert worst["depth"] < 1e-9
    assert worst["infonce"] < 1e-9
    assert worst["sigma_limit"] < 1e-6
    ok(2, f"identity gaps: supcon {worst['supcon']:.1e}, depth {worst['depth']:.1e}, "
          f"infonce {worst['infonce']:.1e}, sigma=1e6 {worst['sigma_limit']:.1e}")


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for convention in ("exclude_anchor", "literal_paper"):
        for _ in range(25):
            z, meta = paired_random_batch(rng, n_slices=int(rng.integers(2, 7)), dim=10)
            cfg = LossConfig(tau=0.3, sigma=0.12, denominator_convention=convention)
            fast = compute_loss(Tensor(z), meta, cfg).item()
            slow = naive_kernel_loss(
                z, meta.y, meta.d, meta.slice_ids, cfg.tau, cfg.sigma, "wsp", convention
            )
            worst = max(worst, abs(fast - slow))
    assert worst < 1e-12
    ok(3, f"vectorized vs triple-loop enumeration: max gap {worst:.2e} (M <= 12)")


def test_criterion_04_kernel_algebra():
    rng = np.random.default_rng(4)
    for _ in range(200):
        size = int(rng.integers(1, 9))
        weights = np.array([[float(rng.uniform(1e-6, 10.0)) for _ in range(size)]])
        normalized = normalize_rows(weights)
        assert abs(normalized.sum() - 1.0) <= 1e-12
        scale = float(rng.uniform(1e-6, 1e6))
        rescaled = normalize_rows(weights * scale)
        assert np.abs(rescaled - normalized).max() <= 1e-12
    grid = np.linspace(0.0, 1.0, 100)
    # Anchor 0 at depth 0 against one same-label view per grid depth.
    meta = make_meta(y=[0] * 101, d=[0.0, *grid])
    values = pair_weights(meta, LossConfig(sigma=0.1))[0, 1:]
    assert all(b < a for a, b in zip(values, values[1:]))
    ok(4, "normalization sums, scale invariance (1e-12) and 100-point monotonicity hold")


def test_criterion_05_sampler_properties(balanced_volumes):
    for epoch in range(100):
        spec = BatchSpec(batch_size=8, seed=17, epoch=epoch)
        batch = sample_batch(balanced_volumes, spec)
        patients = [s.patient_id for s in batch]
        assert len(set(patients)) == 8
        counts: dict[int, int] = {}
        for s in batch:
            counts[s.y] = counts.get(s.y, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

        partition = epoch_batches(balanced_volumes, spec)
        seen = [s.patient_id for b in partition for s in b]
        assert len(seen) == len(balanced_volumes)
        assert len(set(seen)) == len(seen)
        for b in partition:
            assert len({s.patient_id for s in b}) == len(b)
            per_class: dict[int, int] = {}
            for s in b:
                per_class[s.y] = per_class.get(s.y, 0) + 1
            assert max(per_class.values()) - min(per_class.values()) <= 1
    ok(5, "100 seeded epochs: distinct patients, balance <= 1, full coverage")


def test_criterion_06_synthetic_benchmark(grid):
    means = {kind: seed_mean(grid, kind) for kind in grid["record"]["methods"]}
    gap = means["wsp"] - means["random"]
    rivals = max(means["infonce"], means["supcon"], means["depth_aware"])
    summary = " ".join(f"{kind}={means[kind]:.3f}" for kind in means)
    assert gap >= 0.10, f"wsp-random gap {gap:.3f} ({summary})"
    assert means["wsp"] >= rivals - 0.02, f"wsp {means['wsp']:.3f} vs best rival {rivals:.3f}"
    ok(6, f"{summary} | gap +{gap:.3f}, dominance {means['wsp'] - rivals:+.3f}")


def test_criterion_07_negative_control(null_control):
    aucs, sigma_bin = null_control
    lo, hi = 0.5 - 3 * sigma_bin, 0.5 + 3 * sigma_bin
    for kind, value in aucs.items():
        assert lo <= value <= hi, f"{kind}: {value:.3f} outside [{lo:.3f}, {hi:.3f}]"
    summary = " ".join(f"{k}={v:.3f}" for k, v in aucs.items())
    ok(7, f"zero-amplitude AUCs within [{lo:.3f}, {hi:.3f}]: {summary}")


def test_criterion_08_sigma_sweep_robustness(grid):
    baseline = seed_mean(grid, "random")
    assert {("wsp", sigma) for sigma in DEFAULT_SWEEP_SIGMAS} <= set(grid["auc"])
    sweep_results = {sigma: seed_mean(grid, "wsp", sigma) for sigma in DEFAULT_SWEEP_SIGMAS}
    for sigma, value in sweep_results.items():
        assert value >= baseline, f"sigma={sigma}: {value:.3f} < random baseline {baseline:.3f}"
    summary = " ".join(f"{s}:{v:.3f}" for s, v in sorted(sweep_results.items()))
    ok(8, f"all sweep cells >= random baseline {baseline:.3f} | {summary}")


def test_criterion_09_pca_structure(grid):
    stats = {"wsp": {"corr": [], "auc2d": []}, "random": {"corr": [], "auc2d": []}}
    for kind in ("wsp", "random"):
        for seed in grid["record"]["seeds"]:
            ckpt = grid["checkpoints"][(kind, grid["record"]["sigmas"][0])][seed]
            volumes = grid["volumes"][seed]
            table = extract_representations(ckpt, volumes)
            coords, _ = pca_project(table.repr)
            corr = max(
                abs(float(np.corrcoef(coords[:, mode], table.d)[0, 1])) for mode in range(2)
            )
            report = probe_representations(replace(table, repr=coords), ProbeConfig(seed=seed))
            stats[kind]["corr"].append(corr)
            stats[kind]["auc2d"].append(report.mean_auc_patient)
    wsp_corr = float(np.mean(stats["wsp"]["corr"]))
    wsp_auc = float(np.mean(stats["wsp"]["auc2d"]))
    rnd_corr = float(np.mean(stats["random"]["corr"]))
    rnd_auc = float(np.mean(stats["random"]["auc2d"]))
    assert wsp_corr >= 0.4, f"wsp depth correlation {wsp_corr:.3f}"
    assert wsp_auc >= 0.7, f"wsp 2D probe AUC {wsp_auc:.3f}"
    assert rnd_corr < 0.4 or rnd_auc < 0.7, (
        f"random passes both prongs: corr {rnd_corr:.3f}, auc {rnd_auc:.3f}"
    )
    ok(9, f"wsp corr {wsp_corr:.3f} / 2D-AUC {wsp_auc:.3f}; random corr {rnd_corr:.3f} / "
          f"2D-AUC {rnd_auc:.3f}")


def test_criterion_10_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("one", "two"):
        root = tmp_path / name
        data = root / "data"
        assert main(["generate", "--out", str(data), "--volumes", "14", "--slices", "6", "--seed", "9"]) == 0
        ckpt = root / "enc.ckpt"
        assert main(
            [
                "pretrain", "--data", str(data), "--loss", "wsp", "--epochs", "2",
                "--batch", "4", "--out", str(ckpt), "--seed", "9",
            ]
        ) == 0
        metrics = root / "metrics.csv"
        assert main(
            ["probe", "--data", str(data), "--ckpt", str(ckpt), "--folds", "3", "--out", str(metrics), "--seed", "9"]
        ) == 0
        outputs.append(root)
    first = (outputs[0] / "metrics.csv").read_bytes()
    second = (outputs[1] / "metrics.csv").read_bytes()
    assert first == second
    assert (outputs[0] / "enc.ckpt").read_bytes() == (outputs[1] / "enc.ckpt").read_bytes()
    ok(10, "generate -> pretrain -> probe replay reproduces metrics.csv byte-identically")


def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(10, 201))
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[: int(rng.integers(1, n))] ] = 1
        if labels.sum() in (0, n):
            continue
        worst = max(worst, abs(auc(scores, labels) - brute_force_auc(scores, labels)))
    assert worst < 1e-12

    labels = [1] * 17 + [0] * 20
    folds = stratified_kfold(labels, k=5, seed=5)
    assert len(folds) == 37 and set(folds.tolist()) <= set(range(5))
    for cls, total in ((1, 17), (0, 20)):
        per_fold = [int(((folds == f) & (np.asarray(labels) == cls)).sum()) for f in range(5)]
        assert sum(per_fold) == total
        assert max(per_fold) - min(per_fold) <= 1

    assert cosine_lr(0, 80, 2e-3) == 2e-3
    assert cosine_lr(80, 80, 2e-3) == pytest.approx(0.0, abs=1e-19)
    assert cosine_lr(40, 80, 2e-3) == pytest.approx(1e-3, abs=1e-18)
    ok(11, f"AUC vs brute force gap {worst:.2e}; fold partition exact; cosine endpoints exact")


def test_grid_aucs_match_this_platforms_goldens(grid):
    # Each cell's per-seed AUCs, in seed order: the values behind the ACCEPTANCE 06, 08 and 09 lines.
    aucs = {cell: [by_seed[seed] for seed in sorted(by_seed)] for cell, by_seed in grid["auc"].items()}
    golden = GRID_AUC_GOLDENS.get(fingerprint())
    if golden is None:
        print(f"no grid AUC goldens for platform {fingerprint()!r}; its AUCs are:")
        print("{" + "".join(f"\n    {cell!r}: {values!r}," for cell, values in aucs.items()) + "\n}")
        return
    assert list(aucs) == list(golden)
    for cell, values in golden.items():
        assert np.abs(np.subtract(aucs[cell], values)).max() <= AUC_TOLERANCE, cell
