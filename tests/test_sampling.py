import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measurelab
from measurelab import sampling
from measurelab.sampling import (
    Histogram,
    chi_square_pvalue,
    normalize_weights,
    sample_counts,
    sample_histogram,
)


def inverse_cdf_oracle(weights, shots, seed):
    # independent rebuild of the sampler: same generator family, same
    # cumulative-edge walk, written from scratch
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    draws = gen.random(int(shots))
    edges = np.cumsum(w)
    edges[-1] = 1.0
    idx = np.searchsorted(edges, draws, side="right")
    idx = np.minimum(idx, w.size - 1)
    return np.bincount(idx, minlength=w.size)


FROZEN = [
    ((0.3, 0.7), 1000, 7, [318, 682]),
    ((0.3, 0.7), 100000, 42, [30004, 69996]),
    ((0.25, 0.25, 0.25, 0.25), 4000, 11, [969, 1001, 988, 1042]),
    ((1.0, 0.0), 500, 3, [500, 0]),
    ((0.1, 0.2, 0.3, 0.4), 10000, 2026, [968, 1960, 2987, 4085]),
]


def test_sample_counts_frozen_values():
    for weights, shots, seed, want in FROZEN:
        got = sample_counts(weights, shots, seed)
        assert got.tolist() == want
        assert inverse_cdf_oracle(weights, shots, seed).tolist() == want


@pytest.mark.parametrize("chunk", [None, 1001])
def test_chunked_draws_match_one_whole_draw(monkeypatch, chunk):
    # a chunk size off the generator's 4-word buffer checks that the stream
    # carries across chunk boundaries
    if chunk is not None:
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
    shots = 2 * sampling._CHUNK + 777
    weights = [0.1, 0.2, 0.3, 0.4]
    got = sample_counts(weights, shots, 2026)
    assert got.tolist() == inverse_cdf_oracle(weights, shots, 2026).tolist()


def test_sampling_is_deterministic_per_seed():
    a = sample_counts([0.5, 0.5], 1000, 9)
    b = sample_counts([0.5, 0.5], 1000, 9)
    c = sample_counts([0.5, 0.5], 1000, 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_counts_sum_to_shots():
    got = sample_counts([0.2, 0.5, 0.3], 12345, 1)
    assert int(got.sum()) == 12345


def test_degenerate_weight_takes_every_shot():
    got = sample_counts([0.0, 1.0, 0.0], 777, 4)
    assert got.tolist() == [0, 777, 0]


def test_binomial_counts_stay_within_four_sigma():
    w0 = 0.3
    shots = 100000
    got = sample_counts([w0, 1.0 - w0], shots, 42)
    sigma = np.sqrt(shots * w0 * (1.0 - w0))
    assert abs(got[0] - shots * w0) <= 4.0 * sigma


def test_histogram_fields_and_labels():
    h = sample_histogram([0.3, 0.7], 1000, 7)
    assert isinstance(h, Histogram)
    assert h.shots == 1000 and h.seed == 7
    assert h.counts.tolist() == [318, 682]
    assert np.allclose(h.probabilities, [0.3, 0.7])
    assert h.labels == ("E1", "E2")
    named = sample_histogram([0.5, 0.5], 10, 0, labels=("a", "b"))
    assert named.labels == ("a", "b")


def test_normalize_weights_errors():
    # guards genuine probability vectors: clips float dust, rejects anything
    # that is not already normalized
    with pytest.raises(ValueError):
        normalize_weights([0.5, -0.1])
    with pytest.raises(ValueError):
        normalize_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        normalize_weights([2.0, 2.0])
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, 0.5, np.nan], [-np.inf, 1.0]):
        with pytest.raises(ValueError):
            normalize_weights(bad)
    out = normalize_weights([0.5 + 1e-13, 0.5 - 1e-13, -1e-15])
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) < 1e-12


def test_chi_square_accepts_matched_samples():
    counts = sample_counts([0.3, 0.7], 100000, 42)
    stat, p = chi_square_pvalue(counts, [0.3, 0.7])
    assert p > 1e-3
    assert stat >= 0.0


def test_chi_square_rejects_grossly_wrong_weights():
    counts = sample_counts([0.9, 0.1], 100000, 5)
    _, p = chi_square_pvalue(counts, [0.5, 0.5])
    assert p < 1e-10


def test_chi_square_zero_weight_bin_hit():
    stat, p = chi_square_pvalue([10, 5], [1.0, 0.0])
    assert np.isinf(stat)
    assert p == 0.0


def test_chi_square_ignores_dead_bins_without_hits():
    counts = sample_counts([0.5, 0.5, 0.0], 10000, 6)
    _, p = chi_square_pvalue(counts, [0.5, 0.5, 0.0])
    assert p > 1e-3


def test_package_import_leaves_scipy_stats_unloaded():
    # the chi-square tail comes from scipy.special; scipy.stats alone would
    # add most of the package's import time to every CLI call
    code = "import sys, measurelab; print('scipy.stats' in sys.modules)"
    src = str(Path(measurelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
