import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wsp import autodiff as ad
from wsp.autodiff import Tensor
from wsp.errors import ConfigError, ContractError, NonFiniteError
from wsp.losses import (
    DENOMINATOR_CONVENTIONS,
    LOSS_KINDS,
    SIGMA_KINDS,
    BatchMeta,
    LossConfig,
    compute_loss,
    gradient_check,
    pair_weights,
    pairwise_logsumexp,
)

from oracles import make_meta, naive_kernel_loss, naive_pairwise_logsumexp, paired_random_batch


def reordered(meta, perm):
    """``meta``'s views in the order ``perm``."""
    return BatchMeta(meta.y[perm], meta.d[perm], [meta.slice_ids[i] for i in perm], [meta.patient_ids[i] for i in perm])


def loss(kind, z, meta, cfg):
    """compute_loss with the config's loss_kind set to ``kind``."""
    return compute_loss(z, meta, replace(cfg, loss_kind=kind))


def oracle(z, meta, cfg, kind):
    return naive_kernel_loss(
        z, meta.y, meta.d, meta.slice_ids, cfg.tau, cfg.sigma, kind, cfg.denominator_convention
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(tau=0.0)
        with pytest.raises(ConfigError):
            LossConfig(sigma=-1.0)
        with pytest.raises(ConfigError):
            LossConfig(loss_kind="triplet")
        with pytest.raises(ConfigError):
            LossConfig(denominator_convention="both")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["tau", "sigma"])
    def test_non_finite_tau_and_sigma_rejected(self, name, value):
        with pytest.raises(ConfigError):
            LossConfig(**{name: value})

    @pytest.mark.parametrize("sigma", [1e-160, 1e-200])
    def test_sigma_whose_depth_kernel_overflows_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            LossConfig(sigma=sigma)
        assert LossConfig(sigma=1e-154).sigma == 1e-154

    @pytest.mark.parametrize("tau", [1e-310, 5e-324])
    def test_tau_whose_reciprocal_overflows_rejected(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            LossConfig(tau=tau)
        assert LossConfig(tau=1e-307).tau == 1e-307

    # The least sigma and tau that LossConfig accepts, each with the condition its declared range stands for: the
    # depth kernel's 2 * sigma * sigma reaches 1 / max_float, and the similarity scale 1 / tau is finite.
    @pytest.mark.parametrize("name, least, check", [
        ("sigma", 5.273843307431499e-155, lambda sigma: 2 * sigma * sigma >= 1 / sys.float_info.max),
        ("tau", math.nextafter(1 / sys.float_info.max, 1), lambda tau: math.isfinite(1 / tau)),
    ], ids=["sigma", "tau"])
    def test_declared_bound_is_the_least_value_accepted(self, name, least, check):
        below = math.nextafter(least, 0)
        assert getattr(LossConfig(**{name: least}), name) == least
        with pytest.raises(ConfigError, match=rf"{name} must lie in [\[(]"):
            LossConfig(**{name: below})
        assert check(least) and not check(below)


class TestBatchMeta:
    def test_depth_range_enforced(self):
        with pytest.raises(ContractError):
            make_meta(y=[0, 0], d=[0.5, 1.2])

    def test_nan_depth_rejected(self):
        # Each view is its own slice, so no agreement check between views sees the NaN.
        with pytest.raises(NonFiniteError, match="normalized depth"):
            make_meta(y=[0, 0, 0], d=[0.2, float("nan"), 0.5])

    def test_views_of_same_slice_must_agree(self):
        with pytest.raises(ContractError):
            BatchMeta(y=[0, 1], d=[0.5, 0.5], slice_ids=["s", "s"], patient_ids=["p", "p"])
        with pytest.raises(ContractError):
            BatchMeta(y=[0, 0], d=[0.5, 0.6], slice_ids=["s", "s"], patient_ids=["p", "p"])


class TestSimilarityMatrix:
    """The Gram matrix S = z z^T / tau inside compute_loss, seen through the loss against the naive oracle."""

    @staticmethod
    def assert_every_kind_matches_oracle(z, meta, tau):
        for kind in LOSS_KINDS:
            for convention in DENOMINATOR_CONVENTIONS:
                cfg = LossConfig(tau=tau, sigma=0.2, loss_kind=kind, denominator_convention=convention)
                assert compute_loss(Tensor(z), meta, cfg).item() == pytest.approx(oracle(z, meta, cfg, kind), abs=1e-12)

    def test_orthogonal_rows(self):
        z = np.eye(4)
        self.assert_every_kind_matches_oracle(z, four_view_meta(), tau=1.0)
        # S = I: each term is -log(e^0 / (e^0 + e^0)) under exclude_anchor.
        assert compute_loss(Tensor(z), four_view_meta(), LossConfig(tau=1.0)).item() == pytest.approx(math.log(2.0))

    def test_identical_rows(self):
        z = np.tile(np.array([[1.0, 0.0]]), (4, 1))
        self.assert_every_kind_matches_oracle(z, four_view_meta(), tau=0.5)
        # Every S entry is 2: each term is -log(e^2 / (e^2 + e^2)) under exclude_anchor.
        assert compute_loss(Tensor(z), four_view_meta(), LossConfig(tau=0.5)).item() == pytest.approx(math.log(2.0))

    def test_antipodal_rows(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        self.assert_every_kind_matches_oracle(z, four_view_meta(), tau=1.0)

    def test_diagonal_and_symmetry(self, rng):
        z, meta = paired_random_batch(rng, n_slices=3, dim=8)
        self.assert_every_kind_matches_oracle(z, meta, tau=0.2)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ContractError, match="embedding row norms"):
            compute_loss(Tensor(np.array([[2.0, 0.0], [0.0, 1.0]])), make_meta(y=[0, 0], d=[0.1, 0.2]), LossConfig())

    def test_checks_run_in_order_for_one_view(self):
        meta = make_meta(y=[0], d=[0.5])
        with pytest.raises(ContractError, match="do not match batch of 1"):
            compute_loss(Tensor(np.array([[np.nan, 0.0], [1.0, 0.0]])), meta, LossConfig())
        with pytest.raises(NonFiniteError, match="embedding row norms"):
            compute_loss(Tensor(np.array([[np.nan, 0.0]])), meta, LossConfig())
        with pytest.raises(ContractError, match="need at least two views"):
            compute_loss(Tensor(np.array([[1.0, 0.0]])), meta, LossConfig())


class TestPositiveSet:
    def test_examples(self):
        # The label-gated positive set is the support of the supcon pair kernel.
        def positives(meta, t):
            return set(np.flatnonzero(pair_weights(meta, LossConfig(loss_kind="supcon"))[t]).tolist())

        meta = make_meta(y=[0, 0, 1], d=[0.1, 0.2, 0.3])
        assert positives(meta, 0) == {1}
        meta2 = make_meta(y=[0, 1, 2], d=[0.1, 0.2, 0.3])
        assert positives(meta2, 0) == set()
        meta3 = make_meta(y=[4, 4, 4, 4], d=[0.1, 0.2, 0.3, 0.4])
        assert positives(meta3, 2) == {0, 1, 3}


def four_view_meta(d=(0.5, 0.5, 0.5, 0.5)):
    return BatchMeta(
        y=[0, 0, 1, 1], d=list(d), slice_ids=["a", "a", "b", "b"], patient_ids=["p", "p", "q", "q"]
    )


class TestWspLoss:
    def test_orthogonal_two_class_batch_matches_oracle_and_closed_form(self):
        # 2 classes x 2 orthogonal views, tau=1, equal depths: every anchor's
        # denominator holds the two other views at similarity 0, so each term
        # is -log(e^0 / (e^0 + e^0)) = log 2.
        z = np.eye(4)
        meta = four_view_meta()
        cfg = LossConfig(tau=1.0, sigma=0.1)
        value = loss("wsp", Tensor(z), meta, cfg).item()
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        assert value == pytest.approx(oracle(z, meta, cfg, "wsp"), abs=1e-12)

    def test_literal_convention_keeps_anchor_self_similarity(self):
        z = np.eye(4)
        meta = four_view_meta()
        cfg = LossConfig(tau=1.0, sigma=0.1, denominator_convention="literal_paper")
        value = loss("wsp", Tensor(z), meta, cfg).item()
        # Denominator now includes s_tt = 1: -log(e^0 / (e + 2)).
        assert value == pytest.approx(math.log(math.e + 2.0), abs=1e-12)
        assert value == pytest.approx(oracle(z, meta, cfg, "wsp"), abs=1e-12)

    def test_equal_depths_reduce_to_supcon(self, rng):
        for _ in range(10):
            z, meta = paired_random_batch(rng, n_slices=4, dim=8)
            meta = make_meta(y=meta.y, d=[0.4] * len(meta), slice_ids=meta.slice_ids,
                             patient_ids=meta.patient_ids)
            cfg = LossConfig(tau=0.3, sigma=0.1)
            a = loss("wsp", Tensor(z), meta, cfg).item()
            b = loss("supcon", Tensor(z), meta, cfg).item()
            assert a == pytest.approx(b, abs=1e-9)

    def test_unique_labels_reduce_to_infonce(self, rng):
        for _ in range(10):
            n = 4
            z, meta = paired_random_batch(rng, n_slices=n, dim=6)
            meta = make_meta(
                y=np.repeat(np.arange(n), 2), d=meta.d,
                slice_ids=meta.slice_ids, patient_ids=meta.patient_ids,
            )
            cfg = LossConfig(tau=0.5, sigma=0.2)
            assert loss("wsp", Tensor(z), meta, cfg).item() == pytest.approx(
                loss("infonce", Tensor(z), meta, cfg).item(), abs=1e-9
            )

    def test_matches_triple_loop_oracle(self, rng):
        for convention in ("exclude_anchor", "literal_paper"):
            for _ in range(8):
                z, meta = paired_random_batch(rng, n_slices=int(rng.integers(2, 7)), dim=8)
                cfg = LossConfig(tau=0.3, sigma=0.15, denominator_convention=convention)
                assert loss("wsp", Tensor(z), meta, cfg).item() == pytest.approx(
                    oracle(z, meta, cfg, "wsp"), abs=1e-12
                )

    def test_anchor_with_empty_positive_set_is_skipped(self):
        # Views 2..4 each carry their own label and slice, so their positive
        # sets are empty and only the first two anchors contribute.
        z = np.eye(5)
        meta = make_meta(y=[0, 0, 1, 2, 3], d=[0.1, 0.2, 0.3, 0.4, 0.5])
        cfg = LossConfig(tau=1.0, sigma=0.1)
        value = loss("wsp", Tensor(z), meta, cfg).item()
        assert math.isfinite(value)
        assert value == pytest.approx(oracle(z, meta, cfg, "wsp"), abs=1e-12)

    def test_single_view_batches_rejected(self):
        meta = make_meta(y=[0], d=[0.5])
        with pytest.raises(ContractError):
            loss("wsp", Tensor(np.array([[1.0, 0.0]])), meta, LossConfig())

    def test_nan_embedding_row_rejected(self):
        z = np.eye(4)
        z[2] = np.nan
        with pytest.raises(NonFiniteError, match="embedding row norms"):
            compute_loss(Tensor(z), four_view_meta(), LossConfig())

    def test_embeddings_must_match_the_batch(self):
        with pytest.raises(ContractError, match="do not match batch of 4"):
            compute_loss(Tensor(np.eye(3)), four_view_meta(), LossConfig())


class TestSupconLoss:
    def test_two_view_batch_matches_oracle(self):
        # Identical embeddings, tau=1, M=2; under the default convention both
        # pairs have an empty competitor set so the loss is zero, while the
        # literal convention keeps s_tt.
        z = np.tile(np.array([[1.0, 0.0]]), (2, 1))
        meta = BatchMeta(y=[0, 0], d=[0.5, 0.5], slice_ids=["a", "a"], patient_ids=["p", "p"])
        for convention in ("exclude_anchor", "literal_paper"):
            cfg = LossConfig(tau=1.0, sigma=0.1, denominator_convention=convention)
            value = loss("supcon", Tensor(z), meta, cfg).item()
            assert value == pytest.approx(oracle(z, meta, cfg, "supcon"), abs=1e-12)

    def test_matches_oracle_on_random_batches(self, rng):
        for _ in range(8):
            z, meta = paired_random_batch(rng, n_slices=5, dim=6)
            cfg = LossConfig(tau=0.4, sigma=0.3)
            assert loss("supcon", Tensor(z), meta, cfg).item() == pytest.approx(
                oracle(z, meta, cfg, "supcon"), abs=1e-12
            )

    def test_batch_without_a_positive_gives_zero_loss_and_gradient(self):
        # Three single-view slices with distinct labels: no anchor has a positive, so every anchor is skipped.
        z = Tensor(np.eye(3), requires_grad=True)
        value = loss("supcon", z, make_meta(y=[0, 1, 2], d=[0.2, 0.5, 0.8]), LossConfig())
        assert value.item() == 0.0
        assert np.array_equal(ad.backward(value).wrt(z), np.zeros((3, 3)))

    def test_permutation_invariance(self, rng):
        z, meta = paired_random_batch(rng, n_slices=4, dim=8)
        cfg = LossConfig(tau=0.3, sigma=0.2)
        base = loss("supcon", Tensor(z), meta, cfg).item()
        perm = rng.permutation(len(meta))
        permuted = loss("supcon", Tensor(z[perm]), reordered(meta, perm), cfg).item()
        assert permuted == pytest.approx(base, abs=1e-9)


class TestDepthAwareLoss:
    def test_equal_labels_reduce_to_wsp(self, rng):
        for _ in range(10):
            z, meta = paired_random_batch(rng, n_slices=4, dim=8)
            meta = make_meta(y=[2] * len(meta), d=meta.d, slice_ids=meta.slice_ids,
                             patient_ids=meta.patient_ids)
            cfg = LossConfig(tau=0.3, sigma=0.15)
            assert loss("depth_aware", Tensor(z), meta, cfg).item() == pytest.approx(
                loss("wsp", Tensor(z), meta, cfg).item(), abs=1e-9
            )

    def test_huge_sigma_gives_uniform_weights(self, rng):
        z, meta = paired_random_batch(rng, n_slices=4, dim=8)
        single_class = make_meta(y=[0] * len(meta), d=meta.d, slice_ids=meta.slice_ids,
                                 patient_ids=meta.patient_ids)
        wide = LossConfig(tau=0.3, sigma=1e6)
        da = loss("depth_aware", Tensor(z), meta, wide).item()
        sc = loss("supcon", Tensor(z), single_class, wide).item()
        assert da == pytest.approx(sc, abs=1e-6)

    def test_sibling_weight_is_one_after_normalization(self):
        # Two views of one slice: the sibling is the entire positive set.
        z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        meta = four_view_meta(d=(0.2, 0.2, 0.9, 0.9))
        cfg = LossConfig(tau=1.0, sigma=0.1)
        value = loss("depth_aware", Tensor(z), meta, cfg).item()
        assert value == pytest.approx(oracle(z, meta, cfg, "depth_aware"), abs=1e-12)

    def test_matches_oracle(self, rng):
        for _ in range(8):
            z, meta = paired_random_batch(rng, n_slices=5, dim=7)
            cfg = LossConfig(tau=0.25, sigma=0.2)
            assert loss("depth_aware", Tensor(z), meta, cfg).item() == pytest.approx(
                oracle(z, meta, cfg, "depth_aware"), abs=1e-12
            )


class TestInfoNCELoss:
    def test_identical_sibling_orthogonal_rest(self):
        z = np.zeros((4, 4))
        z[0, 0] = 1.0
        z[1, 0] = 1.0
        z[2, 1] = 1.0
        z[3, 2] = 1.0
        meta = four_view_meta()
        cfg = LossConfig(tau=1.0, sigma=0.1)
        value = loss("infonce", Tensor(z), meta, cfg).item()
        # Anchors 0/1: -log(e / (e^0 + e^0)); anchors 2/3: -log(1 / 2).
        expected = 0.5 * ((math.log(2.0) - 1.0) + math.log(2.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(oracle(z, meta, cfg, "infonce"), abs=1e-12)

    def test_literal_convention_value(self):
        # Same batch as above under the literal convention: the anchor's own
        # self-similarity e^1 stays in the denominator.
        z = np.zeros((4, 4))
        z[0, 0] = 1.0
        z[1, 0] = 1.0
        z[2, 1] = 1.0
        z[3, 2] = 1.0
        meta = four_view_meta()
        cfg = LossConfig(tau=1.0, sigma=0.1, denominator_convention="literal_paper")
        value = loss("infonce", Tensor(z), meta, cfg).item()
        e = math.e
        # Anchors 0/1: -log(e / (e + 2)); anchors 2/3: -log(1 / (e + 2)).
        expected = 0.5 * math.log((e + 2.0) / e) + 0.5 * math.log(e + 2.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(oracle(z, meta, cfg, "infonce"), abs=1e-12)

    def test_loss_decreases_as_sibling_similarity_rises(self):
        meta = four_view_meta()
        cfg = LossConfig(tau=0.5, sigma=0.1)

        def batch(angle):
            a = np.array([1.0, 0.0, 0.0])
            b = np.array([math.cos(angle), math.sin(angle), 0.0])
            c = np.array([0.0, 0.0, 1.0])
            d_vec = np.array([0.0, 0.0, -1.0])
            return np.vstack([a, b, c, d_vec])

        closer = loss("infonce", Tensor(batch(0.1)), meta, cfg).item()
        farther = loss("infonce", Tensor(batch(1.2)), meta, cfg).item()
        assert closer < farther

    def test_missing_sibling_rejected(self):
        meta = make_meta(y=[0, 0, 1], d=[0.5, 0.5, 0.5])
        z = np.eye(3)
        with pytest.raises(ContractError):
            loss("infonce", Tensor(z), meta, LossConfig())

    def test_odd_view_count_rejected(self):
        meta = make_meta(y=[0, 0, 0, 1], d=[0.5] * 4, slice_ids=["a", "a", "a", "b"])
        with pytest.raises(ContractError, match="'a' has 3 view"):
            loss("infonce", Tensor(np.eye(4)), meta, LossConfig())

    @pytest.mark.parametrize("convention", DENOMINATOR_CONVENTIONS)
    def test_slice_drawn_twice_pairs_views_in_order(self, rng, convention):
        # A batch that draws slice a twice holds its four views as two side-by-side pairs.
        # They pair first with second and third with fourth: the loss of the same batch
        # in which the second draw is its own slice a2.
        z = rng.normal(size=(8, 6))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y, d = [0, 0, 1, 1, 0, 0, 2, 2], [0.2, 0.2, 0.5, 0.5, 0.2, 0.2, 0.9, 0.9]
        twice = make_meta(y, d, slice_ids=list("aabbaacc"), patient_ids=list("ppqqpprr"))
        split = make_meta(y, d, slice_ids=["a", "a", "b", "b", "a2", "a2", "c", "c"], patient_ids=list("ppqqpprr"))
        cfg = LossConfig(tau=0.3, loss_kind="infonce", denominator_convention=convention)
        np.testing.assert_array_equal(pair_weights(twice, cfg), pair_weights(split, cfg))
        value = compute_loss(Tensor(z), twice, cfg).item()
        assert value == compute_loss(Tensor(z), split, cfg).item()
        assert value == pytest.approx(oracle(z, split, cfg, "infonce"), abs=1e-12)

    def test_permutation_invariance(self, rng):
        z, meta = paired_random_batch(rng, n_slices=4, dim=5)
        cfg = LossConfig(tau=0.3, sigma=0.2)
        base = loss("infonce", Tensor(z), meta, cfg).item()
        perm = rng.permutation(len(meta))
        assert loss("infonce", Tensor(z[perm]), reordered(meta, perm), cfg).item() == pytest.approx(
            base, abs=1e-9
        )


class TestInvariants:
    def test_gradient_check_all_kinds(self):
        results = gradient_check(seed=3, n_batches=5)
        assert all(err < 1e-5 for err in results.values()), results

    def test_gradient_check_literal_convention(self):
        results = gradient_check(seed=4, n_batches=3, convention="literal_paper")
        assert all(err < 1e-5 for err in results.values()), results

    def test_batch_permutation_invariance_all_kinds(self, rng):
        z, meta = paired_random_batch(rng, n_slices=5, dim=8)
        for kind in ("wsp", "supcon", "depth_aware", "infonce"):
            cfg = LossConfig(tau=0.4, sigma=0.2, loss_kind=kind)
            base = compute_loss(Tensor(z), meta, cfg).item()
            for _ in range(3):
                perm = rng.permutation(len(meta))
                value = compute_loss(Tensor(z[perm]), reordered(meta, perm), cfg).item()
                assert value == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_only_the_sigma_kinds_read_sigma(self, rng, kind):
        _, meta = paired_random_batch(rng, n_slices=5, dim=8)  # 5 slices in 4 classes: two slices share a label
        narrow, wide = (pair_weights(meta, LossConfig(sigma=sigma, loss_kind=kind)) for sigma in (0.05, 0.5))
        assert np.array_equal(narrow, wide) == (kind not in SIGMA_KINDS)

    def test_sign_of_influence(self, rng):
        z, meta = paired_random_batch(rng, n_slices=4, dim=8)
        cfg = LossConfig(tau=0.5, sigma=0.2)
        same_label = meta.y[:, None] == meta.y[None, :]
        diff = meta.d[:, None] - meta.d[None, :]
        gauss = np.exp(-(diff**2) / (2 * cfg.sigma**2))
        raw = np.where(same_label & ~np.eye(len(meta), dtype=bool), gauss, 0.0)
        w_hat = raw / raw.sum(axis=1, keepdims=True)
        # dL/dS = w + vjp(-w) with w = -w_hat / n_anchors (every anchor here has its sibling as a positive), and
        # compute_loss's z-gradient is that S-gradient through the Gram matrix.
        w = -w_hat / len(meta)
        grad = w + pairwise_logsumexp(z @ z.T / cfg.tau, exclude_anchor=True)[1](-w)
        leaf = Tensor(z, requires_grad=True)
        through_gram = (grad @ z + grad.T @ z) / cfg.tau
        np.testing.assert_allclose(ad.backward(compute_loss(leaf, meta, cfg)).wrt(leaf), through_gram, atol=1e-12)
        for t in range(len(meta)):
            for j in range(len(meta)):
                if j != t and not same_label[t, j]:
                    assert grad[t, j] >= 0.0  # pure negatives are pushed away
        # For a positive pair, the derivative of its own -log term w.r.t.
        # s_ti is exactly -w_hat(t, i), which is negative whenever w_hat > 0.
        assert np.all(w_hat[raw > 0] > 0.0)

    def test_temperature_consistency(self, rng):
        z, meta = paired_random_batch(rng, n_slices=4, dim=8)
        for tau in (0.05, 0.25, 1.0):
            cfg = LossConfig(tau=tau, sigma=0.2)
            assert loss("wsp", Tensor(z), meta, cfg).item() == pytest.approx(oracle(z, meta, cfg, "wsp"), abs=1e-12)


def near_duplicate_rows(rng, n_slices, dim, jitter, n_classes=4):
    """Raw rows where each slice's second view is its first moved by ``jitter``, with their metadata."""
    z, meta = paired_random_batch(rng, n_slices, dim, n_classes)
    z[1::2] = z[0::2] + jitter * rng.normal(size=z[0::2].shape)
    return z, meta


def near_duplicate_similarity(rng, n_slices, dim, tau, jitter):
    """S = z z^T / tau over ``near_duplicate_rows`` made unit."""
    z, _ = near_duplicate_rows(rng, n_slices, dim, jitter)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z @ z.T / tau


def largest_share(s, exclude_anchor):
    """Largest share of one entry in its row's exp-mass over the convention's row set."""
    row = np.where(np.eye(len(s), dtype=bool) & exclude_anchor, -np.inf, s)
    shares = np.exp(row - row.max(axis=1, keepdims=True))
    return float((shares / shares.sum(axis=1, keepdims=True)).max())


def assert_matches_oracle(s, exclude_anchor):
    out = pairwise_logsumexp(s, exclude_anchor)[0]
    atol = 1e-12 * max(1.0, float(np.abs(s).max()))
    np.testing.assert_allclose(out, naive_pairwise_logsumexp(s, exclude_anchor), rtol=0.0, atol=atol)


class TestPairwiseLogSumExp:
    """The O(m^2) denominator against one explicit log-sum-exp per pair."""

    # Near-duplicate siblings dominate their row under exclude_anchor; under
    # literal_paper the anchor's own entry does once the sibling moves away.
    DOMINANT_CASES = [(True, 1e-3), (False, 0.3)]

    @pytest.mark.parametrize("tau", [0.01, 0.05])
    @pytest.mark.parametrize("exclude_anchor,jitter", DOMINANT_CASES)
    def test_near_duplicate_views(self, rng, tau, exclude_anchor, jitter):
        for n_slices in (2, 5, 12):
            s = near_duplicate_similarity(rng, n_slices, 16, tau, jitter)
            assert largest_share(s, exclude_anchor) > 0.5
            assert_matches_oracle(s, exclude_anchor)

    @given(
        st.integers(3, 9).flatmap(
            lambda m: arrays(np.float64, (m, m), elements=st.floats(-700.0, 700.0))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_over_wide_range(self, s):
        for exclude_anchor in (True, False):
            assert_matches_oracle(s, exclude_anchor)

    def test_single_competitor_copied_exactly(self, rng):
        for _ in range(50):
            s = rng.normal(scale=30.0, size=(2, 2))
            out = pairwise_logsumexp(s, exclude_anchor=False)[0]
            np.testing.assert_array_equal(out, naive_pairwise_logsumexp(s, False))
            s = rng.normal(scale=30.0, size=(3, 3))
            out = pairwise_logsumexp(s, exclude_anchor=True)[0]
            off = ~np.eye(3, dtype=bool)
            np.testing.assert_array_equal(out[off], naive_pairwise_logsumexp(s, True)[off])
            assert_matches_oracle(s, True)

    @staticmethod
    def assert_vjp_matches(s, w, exclude_anchor):
        def f(t):  # sum L * w, whose gradient is the vjp of w
            return Tensor((pairwise_logsumexp(t.data, exclude_anchor)[0] * w).sum())

        analytic = pairwise_logsumexp(s, exclude_anchor)[1](w)
        numeric = ad.finite_diff_gradient(f, Tensor(s), eps=1e-5).data
        assert ad.max_relative_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("exclude_anchor,jitter", DOMINANT_CASES)
    def test_gradient_with_dominant_pair(self, rng, exclude_anchor, jitter):
        s = near_duplicate_similarity(rng, 4, 8, 0.05, jitter)
        assert largest_share(s, exclude_anchor) > 0.5
        self.assert_vjp_matches(s, rng.uniform(-1.0, 1.0, s.shape), exclude_anchor)

    @pytest.mark.parametrize("exclude_anchor", [True, False])
    def test_gradient_on_a_general_matrix(self, rng, exclude_anchor):
        # An asymmetric S whose diagonal need not lead its row: no z z^T / tau is one.
        self.assert_vjp_matches(rng.uniform(-3.0, 3.0, (8, 8)), rng.uniform(-1.0, 1.0, (8, 8)), exclude_anchor)

    def test_memory_quadratic_at_512_views(self):
        z, meta = paired_random_batch(np.random.default_rng(0), n_slices=256, dim=32)
        leaf = Tensor(z, requires_grad=True)
        tracemalloc.start()
        try:
            ad.backward(compute_loss(leaf, meta, LossConfig()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestOpGradients:
    """The loss is one tape op above z, whose hand-written backward is checked against finite differences."""

    def test_loss_adds_one_tape_node_above_z(self, rng):
        z, meta = paired_random_batch(rng, n_slices=4, dim=6)
        leaf = Tensor(z, requires_grad=True)
        nodes = ad.Tape(compute_loss(leaf, meta, LossConfig())).nodes
        assert [node._parents for node in nodes] == [(), (leaf,)]

    @staticmethod
    def assert_gradient_matches(x, meta, cfg):
        def f(t):
            return compute_loss(ad.l2_normalize(t), meta, cfg)

        leaf = Tensor(x, requires_grad=True)
        analytic = ad.backward(f(leaf)).wrt(leaf)
        numeric = ad.finite_diff_gradient(f, Tensor(x)).data
        assert np.abs(analytic).max() > 0.0
        assert ad.max_relative_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_similarity_matrix(self, rng, tau):
        # General rows, no dominant entry required: the Gram backward at a mild and a sharp temperature.
        for kind in LOSS_KINDS:
            for convention in DENOMINATOR_CONVENTIONS:
                cfg = LossConfig(tau=tau, sigma=0.2, loss_kind=kind, denominator_convention=convention)
                self.assert_gradient_matches(*paired_random_batch(rng, n_slices=3, dim=5), cfg)

    @pytest.mark.parametrize("convention", DENOMINATOR_CONVENTIONS)
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_similarity_loss(self, rng, kind, convention):
        # Near-duplicate views at tau 0.05: some row of S holds a dominant entry (p_ti > 1/2).
        cfg = LossConfig(tau=0.05, sigma=0.2, loss_kind=kind, denominator_convention=convention)
        exclude_anchor = convention == "exclude_anchor"
        jitter = dict(TestPairwiseLogSumExp.DOMINANT_CASES)[exclude_anchor]
        x, meta = near_duplicate_rows(rng, 4, 8, jitter, n_classes=2)
        z = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert largest_share(z @ z.T / cfg.tau, exclude_anchor) > 0.5
        self.assert_gradient_matches(x, meta, cfg)
