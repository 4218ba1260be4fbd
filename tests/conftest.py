import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wsp.data import GeneratorConfig, central_view, generate_synthetic_dataset


@pytest.fixture(scope="session")
def small_volumes():
    """16 small volumes, central slices selected; enough for training smokes."""
    cfg = GeneratorConfig(n_volumes=16, slices_per_volume=8)
    _, volumes = generate_synthetic_dataset(cfg, seed=7)
    return central_view(volumes)


@pytest.fixture(scope="session")
def balanced_volumes():
    """64 volumes with exactly 16 patients per weak class (no label noise)."""
    cfg = GeneratorConfig(
        n_volumes=256, slices_per_volume=6, noise_rate=0.0, class_priors=(0.25,) * 4
    )
    _, volumes = generate_synthetic_dataset(cfg, seed=11)
    by_class: dict[int, list] = {}
    for v in volumes:
        by_class.setdefault(v.y_weak, []).append(v)
    picked = []
    for cls in sorted(by_class):
        picked.extend(by_class[cls][:16])
    assert len(picked) == 64
    return central_view(picked)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the peak bytes that tracemalloc traces while ``fn()`` runs."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
