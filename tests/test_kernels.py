"""The loss's pair kernel (``pair_weights``) and its row normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsp.errors import ConfigError
from wsp.losses import BatchMeta, LossConfig, normalize_rows, pair_weights

from oracles import make_meta

depths = st.floats(0.0, 1.0)
sigmas = st.floats(1e-3, 10.0)


def weight(kind, y_a, y_b, d_a, d_b, sigma=0.1):
    """Raw kernel value that view a gives view b in a two-view batch."""
    meta = make_meta(y=[y_a, y_b], d=[d_a, d_b])
    return pair_weights(meta, LossConfig(sigma=sigma, loss_kind=kind))[0, 1]


def gaussian_weight(d_a, d_b, sigma):
    return weight("depth_aware", 0, 0, d_a, d_b, sigma)


def test_gaussian_peak():
    assert gaussian_weight(0.3, 0.3, 0.1) == 1.0


def test_gaussian_one_bandwidth_away():
    assert gaussian_weight(0.2, 0.3, 0.1) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert gaussian_weight(0.2, 0.3, 0.1) == pytest.approx(0.60653, abs=1e-5)


def test_gaussian_half_range():
    assert gaussian_weight(0.0, 0.5, 0.1) == pytest.approx(math.exp(-12.5), rel=1e-12)
    assert gaussian_weight(0.0, 0.5, 0.1) == pytest.approx(3.73e-6, rel=1e-2)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        gaussian_weight(0.1, 0.2, 0.0)
    with pytest.raises(ConfigError):
        gaussian_weight(0.1, 0.2, -1.0)


def test_dirac():
    assert weight("supcon", 2, 2, 0.1, 0.9) == 1.0
    assert weight("supcon", 0, 3, 0.5, 0.5) == 0.0


def test_composite_cases():
    assert weight("wsp", 1, 1, 0.4, 0.4) == 1.0
    assert weight("wsp", 0, 2, 0.4, 0.9) == 0.0
    assert weight("wsp", 3, 3, 0.2, 0.3) == pytest.approx(0.60653, abs=1e-5)


def test_kernel_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(sigma=-0.1)
    with pytest.raises(ConfigError):
        LossConfig(loss_kind="triangular")


def test_kernel_weight_dispatch():
    # Slice a (views 0, 1) has label 1 at depth 0; slice b (views 2, 3) has label 3 at depth 1.
    meta = BatchMeta(y=[1, 1, 3, 3], d=[0.0, 0.0, 1.0, 1.0], slice_ids=["a", "a", "b", "b"],
                     patient_ids=["p", "p", "q", "q"])

    def row(kind):
        return pair_weights(meta, LossConfig(sigma=0.5, loss_kind=kind))[0].tolist()

    assert row("wsp") == [0.0, 1.0, 0.0, 0.0]
    assert row("supcon") == [0.0, 1.0, 0.0, 0.0]
    assert row("depth_aware") == pytest.approx([0.0, 1.0, math.exp(-2.0), math.exp(-2.0)], abs=1e-15)
    assert row("infonce") == [0.0, 1.0, 0.0, 0.0]
    assert pair_weights(meta, LossConfig(loss_kind="infonce"))[2].tolist() == [0.0, 0.0, 0.0, 1.0]


class TestNormalizeOverPositives:
    def test_already_normalized(self):
        out = normalize_rows(np.array([[0.0, 0.5, 0.5]]))
        assert out.tolist() == [[0.0, 0.5, 0.5]]

    def test_scale(self):
        out = normalize_rows(np.array([[0.0, 2.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.5, 0.5]]

    def test_direct_division(self):
        # Frozen from direct division: 0.6065 / 1.6065 and 1.0 / 1.6065.
        out = normalize_rows(np.array([[0.6065, 1.0]]))[0]
        assert out[0] == pytest.approx(0.3775, abs=1e-4)
        assert out[1] == pytest.approx(0.6225, abs=1e-4)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_and_zero_signal_anchor_skip(self):
        # A row with no positive mass marks a skipped anchor: it stays all-zero.
        out = normalize_rows(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 3.0]]))
        assert out.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.25, 0.75]]


@given(d_a=depths, d_b=depths, sigma=sigmas)
@settings(max_examples=100, deadline=None)
def test_gaussian_symmetric_and_in_range(d_a, d_b, sigma):
    w_ab = gaussian_weight(d_a, d_b, sigma)
    assert w_ab == gaussian_weight(d_b, d_a, sigma)
    assert 0.0 <= w_ab <= 1.0
    exponent = -((d_a - d_b) ** 2) / (2.0 * sigma * sigma)
    if exponent > -700.0:  # within float64 range the kernel is strictly positive
        assert w_ab > 0.0


@given(y_a=st.integers(0, 3), y_b=st.integers(0, 3), d_a=depths, d_b=depths, sigma=sigmas)
@settings(max_examples=100, deadline=None)
def test_composite_symmetric_and_in_range(y_a, y_b, d_a, d_b, sigma):
    w = weight("wsp", y_a, y_b, d_a, d_b, sigma)
    assert w == weight("wsp", y_b, y_a, d_b, d_a, sigma)
    assert 0.0 <= w <= 1.0


@given(
    weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
    scale=st.floats(1e-6, 1e6),
)
@settings(max_examples=100, deadline=None)
def test_normalization_scale_invariance(weights, scale):
    raw = np.array([weights])
    base = normalize_rows(raw)
    scaled = normalize_rows(raw * scale)
    assert base.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(scaled, base, rtol=0.0, atol=1e-12)


def test_gaussian_strictly_decreasing_in_distance():
    grid = [i / 99 for i in range(100)]
    meta = make_meta(y=[0] * 101, d=[0.0, *grid])
    values = pair_weights(meta, LossConfig(sigma=0.1))[0, 1:]
    for a, b in zip(values, values[1:]):
        assert b < a
