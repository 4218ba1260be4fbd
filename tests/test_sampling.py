import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_augment
from wsp.data import GeneratorConfig, Slice, Volume, central_view, generate_synthetic_dataset, normalize_depth
from wsp.errors import ConfigError, ContractError
from wsp.sampling import (
    _CHUNK_PIXELS,
    AugmentConfig,
    BatchSpec,
    _draw_values,
    _key_words,
    augment_views,
    epoch_batches,
    make_views,
    sample_batch,
)

NULL_AUG = AugmentConfig(rotation_degrees=0.0, crop_scale=(1.0, 1.0), flip_prob=0.0)

ORACLE_CONFIGS = {
    "default": AugmentConfig(),
    "no_rotation": AugmentConfig(rotation_degrees=0.0),
    "no_crop": AugmentConfig(crop_scale=(1.0, 1.0)),
    "never_flip": AugmentConfig(flip_prob=0.0),
    "always_flip": AugmentConfig(flip_prob=1.0),
    "disabled": AugmentConfig(enabled=False),
    "half_turn_tiny_crop": AugmentConfig(rotation_degrees=180.0, crop_scale=(0.01, 0.02)),
}


def oracle_views(images, cfg, seeds):
    return np.stack([oracle_augment(img, cfg, seed) for img, seed in zip(images, seeds)])


def numpy_draws(cfg, draw_seed):
    """The five values of one view from numpy's own generator for its key."""
    key = [cfg.seed, *(draw_seed if isinstance(draw_seed, tuple) else (draw_seed,))]
    rng = np.random.default_rng(np.random.SeedSequence(key))
    return [
        rng.random(),
        rng.uniform(-cfg.rotation_degrees, cfg.rotation_degrees),
        rng.uniform(cfg.crop_scale[0], cfg.crop_scale[1]),
        rng.random(),
        rng.random(),
    ]


# Key integers of one 32-bit word (0 among them) and of two to six words.
KEY_INTS = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**160))
DRAW_SEEDS = st.one_of(st.tuples(KEY_INTS), st.lists(KEY_INTS, max_size=7).map(tuple))


def random_images(rng, n, size, dtype):
    if dtype == np.uint8:
        return rng.integers(0, 256, size=(n, size, size), dtype=np.uint8)
    return (100.0 * rng.normal(size=(n, size, size))).astype(dtype)


def class_counts(batch):
    counts: dict[int, int] = {}
    for sample in batch:
        counts[sample.y] = counts.get(sample.y, 0) + 1
    return counts


class TestBatchSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BatchSpec(batch_size=3)
        with pytest.raises(ConfigError):
            BatchSpec(batch_size=0)
        with pytest.raises(ConfigError):
            BatchSpec(mode="greedy")


class TestStrictSampler:
    def test_exact_balance_with_two_patients_per_class(self, balanced_volumes):
        batch = sample_batch(balanced_volumes, BatchSpec(batch_size=8, seed=1))
        assert len(batch) == 8
        assert len({s.patient_id for s in batch}) == 8
        assert set(class_counts(batch).values()) == {2}

    def test_balance_within_one_when_not_divisible(self, balanced_volumes):
        for draw in range(100):
            batch = sample_batch(balanced_volumes, BatchSpec(batch_size=6, seed=draw))
            counts = class_counts(batch)
            assert len({s.patient_id for s in batch}) == 6
            assert max(counts.values()) - min(counts.values()) <= 1
            assert set(counts.values()) <= {1, 2}

    def test_too_few_patients_signals_fallback(self, balanced_volumes):
        five = balanced_volumes[:5]
        with pytest.raises(ContractError):
            sample_batch(five, BatchSpec(batch_size=8, seed=0))

    def test_deterministic_given_seed_and_epoch(self, balanced_volumes):
        spec = BatchSpec(batch_size=8, seed=3, epoch=2)
        a = sample_batch(balanced_volumes, spec)
        b = sample_batch(balanced_volumes, spec)
        assert [s.slice_id for s in a] == [s.slice_id for s in b]

    def test_slice_comes_from_retained_window(self, balanced_volumes):
        batch = sample_batch(balanced_volumes, BatchSpec(batch_size=8, seed=4))
        valid_ids = {
            f"{v.volume_id}/{s.p}" for v in balanced_volumes for s in v.slices
        }
        assert all(s.slice_id in valid_ids for s in batch)


def fallback_batch(volumes, spec):
    """The one batch of a fallback_balanced epoch."""
    (batch,) = epoch_batches(volumes, replace(spec, mode="fallback_balanced"))
    return batch


class TestFallbackSampler:
    def test_three_patients_fill_a_batch_of_eight(self, balanced_volumes):
        three = balanced_volumes[:3]
        for draw in range(50):
            batch = fallback_batch(three, BatchSpec(batch_size=8, seed=draw))
            assert len(batch) == 8
            counts = class_counts(batch)
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_single_patient_repeats(self, balanced_volumes):
        solo = balanced_volumes[:1]
        batch = fallback_batch(solo, BatchSpec(batch_size=4, seed=0))
        assert {s.patient_id for s in batch} == {solo[0].patient_id}

    def test_deterministic(self, balanced_volumes):
        spec = BatchSpec(batch_size=6, seed=9, epoch=1)
        a = fallback_batch(balanced_volumes[:5], spec)
        b = fallback_batch(balanced_volumes[:5], spec)
        assert [s.slice_id for s in a] == [s.slice_id for s in b]


class TestEpochPartition:
    def test_coverage_without_repetition(self, balanced_volumes):
        for epoch in range(20):
            batches = epoch_batches(balanced_volumes, BatchSpec(batch_size=8, seed=1, epoch=epoch))
            seen = [s.patient_id for batch in batches for s in batch]
            assert len(seen) == len(balanced_volumes)
            assert len(set(seen)) == len(seen)

    def test_batches_balanced_and_distinct(self, balanced_volumes):
        batches = epoch_batches(balanced_volumes, BatchSpec(batch_size=8, seed=2))
        assert all(len(b) == 8 for b in batches)
        for batch in batches:
            assert len({s.patient_id for s in batch}) == len(batch)
            assert set(class_counts(batch).values()) == {2}

    def test_partitions_differ_across_epochs(self, balanced_volumes):
        first = epoch_batches(balanced_volumes, BatchSpec(batch_size=8, seed=1, epoch=0))
        second = epoch_batches(balanced_volumes, BatchSpec(batch_size=8, seed=1, epoch=1))
        assert [s.patient_id for b in first for s in b] != [
            s.patient_id for b in second for s in b
        ]

    def test_last_batch_may_be_short(self, balanced_volumes):
        subset = balanced_volumes[:10]
        batches = epoch_batches(subset, BatchSpec(batch_size=8, seed=0))
        assert [len(b) for b in batches] == [8, 2]

    def test_fallback_mode_is_one_fallback_batch(self, balanced_volumes):
        spec = BatchSpec(batch_size=8, mode="fallback_balanced", seed=3, epoch=1)
        batches = epoch_batches(balanced_volumes, spec)
        assert [len(b) for b in batches] == [8]
        assert set(class_counts(batches[0]).values()) == {2}


def uneven_cohort():
    """37 patients of one volume each, weak classes of 2, 11, 7 and 17 patients."""
    cfg = GeneratorConfig(n_volumes=37, slices_per_volume=4, class_priors=(0.1, 0.2, 0.3, 0.4))
    return central_view(generate_synthetic_dataset(cfg, seed=5)[1])


def cohort_of_sizes(sizes):
    """One single-slice volume per patient; class c has sizes[c] patients (0 means absent)."""
    pixels = np.zeros((2, 2), np.float32)
    return [
        Volume(f"V{c}.{i}", f"P{c}.{i}", 1, [Slice(pixels, 0, normalize_depth(0, 1))], y_weak=c)
        for c, size in enumerate(sizes)
        for i in range(size)
    ]


def slice_ids(sampler, volumes, spec):
    """The drawn slice ids, batches separated by '|', or the name of the error raised."""
    try:
        batches = sampler(volumes, spec)
    except ContractError:
        return "ContractError"
    return "|".join(",".join(s.slice_id for s in batch) for batch in batches)


# sha256 of the slice-id sequences over seeds 0-2 and epochs 0-2 on the uneven cohort. They pin
# the samplers' draws and numpy's Generator.choice, integers and permutation streams; sample_batch
# raises on every batch of 14 (class 0 has 2 patients, fewer than 14 // 4). A sample_batch_fallback
# row is one epoch_batches epoch in fallback_balanced mode, which is a single batch.
GOLDEN_DIGESTS = {
    ("sample_batch", 6): "24b73ce22f172f0b38503348e20b45b7aba25f760ae98bda7b5dc7586209f7f1",
    ("sample_batch", 10): "9f9b30614fa3894c552897a13bc63b3846ffe3ebc10bb38bc82e3357cfc30c8b",
    ("sample_batch", 14): "182187f39e35ca80b8d7a5f0b9b9703dfe434de3e27fc26f217677cc1b9ef61f",
    ("sample_batch_fallback", 6): "31e446dec71751424825779e8ae53410a4b804115524dbdf6b95b9c4e1309ed5",
    ("sample_batch_fallback", 10): "228e346d29f147fee7b4bfa80a466c33325720452a0d4cba28bd6d90e7b0667b",
    ("sample_batch_fallback", 14): "b8be00086509e03b4195964b10952feedef107961f3ed5a3bc35319573f48009",
    ("epoch_batches", 6): "41c26ce2ccc6025a59480bc1b465c7f2b99dfa130177dd85c0e142360ab6c3c3",
    ("epoch_batches", 10): "4284feca9b3a1fe8fec1e710b15e825135a62d557b787ad02362bcb6e841b9bf",
    ("epoch_batches", 14): "7c82d38baaea1d4a68a978e1691fe68244174a06e73ce830d8f665ad2723adaf",
}


class TestQuotaRule:
    @pytest.mark.parametrize("name, batch_size", sorted(GOLDEN_DIGESTS))
    def test_golden_slice_sequences(self, name, batch_size):
        sampler = {"sample_batch": lambda volumes, spec: [sample_batch(volumes, spec)],
                   "sample_batch_fallback": lambda volumes, spec: [fallback_batch(volumes, spec)],
                   "epoch_batches": epoch_batches}[name]
        volumes = uneven_cohort()
        text = "\n".join(
            slice_ids(sampler, volumes, BatchSpec(batch_size, "one_slice_per_patient", seed, epoch))
            for seed in range(3)
            for epoch in range(3)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name, batch_size]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any), st.integers(1, 12), st.integers(0, 3))
    def test_epoch_is_a_partition_into_full_batches(self, sizes, half_batch, seed):
        volumes = cohort_of_sizes(sizes)
        batches = epoch_batches(volumes, BatchSpec(2 * half_batch, seed=seed))
        remaining = len(volumes)
        for batch in batches:
            assert len(batch) == min(2 * half_batch, remaining)
            assert len({s.patient_id for s in batch}) == len(batch)
            remaining -= len(batch)
        assert sorted(s.patient_id for b in batches for s in b) == sorted(v.patient_id for v in volumes)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any), st.integers(1, 12), st.integers(0, 3))
    def test_strict_batch_is_balanced_iff_the_classes_allow(self, sizes, half_batch, seed):
        n = 2 * half_batch
        present = [size for size in sizes if size]
        base, extras = divmod(n, len(present))
        infeasible = min(present) < base or sum(size > base for size in present) < extras
        volumes = cohort_of_sizes(sizes)
        if infeasible:
            with pytest.raises(ContractError):
                sample_batch(volumes, BatchSpec(n, seed=seed))
            return
        batch = sample_batch(volumes, BatchSpec(n, seed=seed))
        counts = class_counts(batch)
        assert len(batch) == n and len({s.patient_id for s in batch}) == n
        assert max(counts.values()) - min(counts.values()) <= 1


class TestAugment:
    def test_null_augmentation_is_identity(self, rng):
        # Bit for bit, float32 pixels too: a zero angle and a full-size crop resample on the pixel grid.
        imgs = [rng.random((16, 16)), rng.random((16, 16)).astype(np.float32)]
        assert np.array_equal(augment_views(imgs, NULL_AUG, [(0,), (1,)]), imgs)

    def test_flip_is_involution(self, rng):
        img = rng.random((12, 12))
        flip_only = AugmentConfig(rotation_degrees=0.0, crop_scale=(1.0, 1.0), flip_prob=1.0)
        once = augment_views([img], flip_only, [(5,)])[0]
        twice = augment_views([once], flip_only, [(5,)])[0]
        assert np.array_equal(twice, img)

    def test_different_draws_differ(self, rng):
        img = rng.random((16, 16))
        cfg = AugmentConfig(seed=0)
        a = augment_views([img], cfg, [(0,)])[0]
        b = augment_views([img], cfg, [(1,)])[0]
        assert not np.array_equal(a, b)

    def test_bit_for_bit_determinism(self, rng):
        img = rng.random((16, 16))
        cfg = AugmentConfig(seed=7)
        a = augment_views([img], cfg, [(3, 4)])[0]
        b = augment_views([img], cfg, [(3, 4)])[0]
        assert np.array_equal(a, b)

    def test_shape_preserved(self, rng):
        img = rng.random((16, 16))
        out = augment_views([img], AugmentConfig(seed=1), [(2,)])[0]
        assert out.shape == img.shape

    def test_square_required(self, rng):
        with pytest.raises(ContractError):
            augment_views([rng.random((8, 10))], AugmentConfig(), [(0,)])[0]

    def test_square_required_only_when_enabled(self, rng):
        imgs = rng.random((3, 16, 12))
        out = augment_views(imgs, AugmentConfig(enabled=False), [(0,), (1,), (2,)])
        assert out.shape == (3, 16, 12) and np.array_equal(out, imgs)
        with pytest.raises(ContractError, match="square"):
            augment_views(imgs, AugmentConfig(), [(0,), (1,), (2,)])
        with pytest.raises(ContractError, match="equal non-empty"):
            augment_views([imgs[0], imgs[0].T], AugmentConfig(enabled=False), [(0,), (1,)])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AugmentConfig(crop_scale=(0.0, 1.0))
        with pytest.raises(ConfigError):
            AugmentConfig(crop_scale=(0.9, 0.8))
        with pytest.raises(ConfigError):
            AugmentConfig(rotation_degrees=-5)
        with pytest.raises(ConfigError):
            AugmentConfig(flip_prob=1.5)
        for rotation in (float("nan"), float("inf"), 1e308, 10**400):
            with pytest.raises(ConfigError):
                AugmentConfig(rotation_degrees=rotation)
        AugmentConfig(rotation_degrees=sys.float_info.max / 2)  # 2 * rotation is still finite


class TestAugmentViews:
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    @pytest.mark.parametrize("n_views", [1, _CHUNK_PIXELS // (32 * 32) + 1, 257])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_bytes_match_per_view_oracle(self, name, n_views, dtype):
        cfg = ORACLE_CONFIGS[name]
        images = random_images(np.random.default_rng(n_views), n_views, 32, dtype)
        seeds = [(4, 1, j // 2, j % 2) for j in range(n_views)]
        views = augment_views(list(images), cfg, seeds)
        assert views.dtype == np.float64
        assert views.tobytes() == oracle_views(images, cfg, seeds).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        n_views=st.integers(1, 24),
        rotation=st.floats(0.0, 180.0),
        crop=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(sorted),
        flip_prob=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, seed, size, n_views, rotation, crop, flip_prob):
        cfg = AugmentConfig(rotation_degrees=rotation, crop_scale=crop, flip_prob=flip_prob, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        images = random_images(rng, n_views, size, np.float32)
        seeds = [(seed, j) for j in range(n_views)]
        assert augment_views(images, cfg, seeds).tobytes() == oracle_views(images, cfg, seeds).tobytes()

    def test_single_view_entry_points_match_oracle(self, balanced_volumes):
        sample = sample_batch(balanced_volumes, BatchSpec(batch_size=8, seed=0))[0]
        cfg = AugmentConfig(seed=3)
        view_a, view_b, _ = make_views(sample, cfg, seed=(2, 5))
        assert view_a.tobytes() == oracle_augment(sample.pixels, cfg, (2, 5, 0)).tobytes()
        assert view_b.tobytes() == oracle_augment(sample.pixels, cfg, (2, 5, 1)).tobytes()
        single = augment_views([sample.pixels], cfg, [(9,)])[0]
        assert single.tobytes() == oracle_augment(sample.pixels, cfg, (9,)).tobytes()

    def test_malformed_batches_rejected(self, rng):
        with pytest.raises(ContractError):
            augment_views([], AugmentConfig(), [])
        with pytest.raises(ContractError):
            augment_views([rng.random((8, 8))], AugmentConfig(), [(0,), (1,)])
        with pytest.raises(ContractError):
            augment_views([rng.random((8, 8)), rng.random((9, 9))], AugmentConfig(), [(0,), (1,)])
        with pytest.raises(ContractError):
            augment_views([rng.random((2, 8, 8))], AugmentConfig(), [(0,)])
        with pytest.raises(ContractError):
            augment_views([np.zeros((0, 0))], AugmentConfig(), [(0,)])


class TestDrawValues:
    @given(
        cfg_seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
        draw_seeds=st.lists(DRAW_SEEDS, min_size=1, max_size=12),
        rotation=st.one_of(st.floats(0.0, 180.0), st.floats(0.0, sys.float_info.max / 2)),
        crop=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_numpy_generators(self, cfg_seed, draw_seeds, rotation, crop):
        cfg = AugmentConfig(rotation_degrees=rotation, crop_scale=crop, seed=cfg_seed)
        expected = np.array([numpy_draws(cfg, s) for s in draw_seeds]).T
        assert _draw_values(cfg, draw_seeds).tobytes() == expected.tobytes()

    def test_wide_zero_and_mixed_length_keys_in_one_call(self):
        cfg = AugmentConfig(seed=2**40)
        draw_seeds = [
            (0,),
            (0, 0, 0, 0),
            (2**32,),
            (2**32 - 1, 2**64),
            (1, 2, 3, 4, 5, 6, 7),
            (),
            (2**96 + 1,),
            (5, 0, 2**33),
            (4, 1, 0, 1),
            (2**64,),
        ]
        assert sorted({len(_key_words(cfg, s)) for s in draw_seeds}) == [2, 3, 4, 5, 6, 9]
        expected = np.array([numpy_draws(cfg, s) for s in draw_seeds]).T
        assert _draw_values(cfg, draw_seeds).tobytes() == expected.tobytes()

    def test_keys_shorter_than_the_pool_are_zero_padded(self):
        # Keys of 1 to 4 words under a one-word cfg seed: SeedSequence pads a key of fewer than 4 words with zeros.
        cfg = AugmentConfig(seed=7)
        draw_seeds = [(), (1,), (1, 2), (1, 2, 3)]
        assert [len(_key_words(cfg, s)) for s in draw_seeds] == [1, 2, 3, 4]
        expected = np.array([numpy_draws(cfg, s) for s in draw_seeds]).T
        assert _draw_values(cfg, draw_seeds).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("draw_seed", [pytest.param((-1,), id="-1"), (3, -2), (-(2**40),)])
    def test_negative_draw_seed_rejected(self, rng, draw_seed):
        with pytest.raises(ContractError):
            augment_views([rng.random((4, 4))], AugmentConfig(), [draw_seed])


class TestMakeViews:
    def test_shared_meta_is_the_sample(self, balanced_volumes):
        sample = sample_batch(balanced_volumes, BatchSpec(batch_size=8, seed=0))[0]
        view_a, view_b, meta = make_views(sample, AugmentConfig(seed=0), seed=(1,))
        assert meta is sample

    def test_views_differ_under_augmentation(self, balanced_volumes, rng):
        sample = sample_batch(balanced_volumes, BatchSpec(batch_size=8, seed=0))[0]
        view_a, view_b, _ = make_views(sample, AugmentConfig(seed=0), seed=(1,))
        assert not np.array_equal(view_a, view_b)

    def test_inference_mode_returns_original(self, balanced_volumes):
        sample = sample_batch(balanced_volumes, BatchSpec(batch_size=8, seed=0))[0]
        disabled = AugmentConfig(enabled=False)
        view_a, view_b, _ = make_views(sample, disabled, seed=(1,))
        np.testing.assert_array_equal(view_a, np.asarray(sample.pixels, dtype=np.float64))
        np.testing.assert_array_equal(view_a, view_b)
