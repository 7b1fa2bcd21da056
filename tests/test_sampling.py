import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@st.composite
def _cut_weights(draw):
    """A seed, a shot count and weights cut at multiples of 2**-54 that sum
    to 1: zero weights where cuts repeat, an edge of exactly 1.0 before the
    last outcome, and edges at one of the draws u and half a step of 2**-53
    either side of it (exact below 1/2), where u < edge and u <= edge
    differ and where rounding the cut down or up would miscount u; or float
    weights with zeros, whose edges can round past 1.0 before the last
    outcome."""
    seed = draw(st.integers(0, 2**128 - 1))
    shots = draw(st.integers(1, 4096))
    if draw(st.booleans()):
        w = draw(st.lists(st.sampled_from([0.0, 1.0, 0.3, 1e-300]) | st.floats(0, 1),
                          min_size=1, max_size=6).filter(lambda w: sum(w) > 0))
        return seed, shots, list(np.asarray(w) / np.sum(w))
    drawn = (np.random.Philox(key=seed).random_raw(shots) >> 11).tolist()
    near = st.tuples(st.sampled_from(drawn), st.integers(-1, 1)).map(
        lambda t: 2 * t[0] + t[1])
    cut = st.just(0) | st.just(2**54) | st.integers(0, 2**54) | near
    cuts = sorted(min(max(c, 0), 2**54) for c in draw(st.lists(cut, max_size=6)))
    return seed, shots, list(np.diff([0, *cuts, 2**54]) * 2.0**-54)


@given(_cut_weights())
@example((3, 500, [1.0, 0.0]))
@example((7, 4096, [0.6800624569609365, 0.23672774826727888, 0.08320979477178461, 0.0]))
@settings(max_examples=300, deadline=None)
def test_integer_cuts_count_as_the_float_inverse_cdf(case):
    # the second example's third edge rounds to 1.0000000000000002
    seed, shots, weights = case
    got = sample_counts(weights, shots, seed)
    assert got.tolist() == inverse_cdf_oracle(weights, shots, seed).tolist()


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


def test_shot_ceiling_is_refused_before_any_draw(monkeypatch):
    assert sampling.MAX_SHOTS == 10**9

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(sampling.np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        sample_counts([0.3, 0.7], sampling.MAX_SHOTS + 1, 42)
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        sample_histogram([0.3, 0.7], 10**12, 42)


def test_shot_ceiling_itself_is_allowed(monkeypatch):
    monkeypatch.setattr(sampling, "MAX_SHOTS", 1000)
    assert sample_counts([0.3, 0.7], 1000, 7).tolist() == [318, 682]
    with pytest.raises(ValueError):
        sample_counts([0.3, 0.7], 1001, 7)


@pytest.mark.parametrize("seed", [-1, 2**128, np.int64(-5), 1.5, np.float64(2.0),
                                  "3", True, None])
def test_seed_outside_the_philox_key_range_is_refused_before_any_draw(
        monkeypatch, seed):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(sampling.np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
        sample_counts([0.3, 0.7], 1000, seed)


@pytest.mark.parametrize("seed", [0, 2**128 - 1, np.uint64(2**64 - 1), np.int32(7)])
def test_seeds_in_the_key_range_draw_as_their_python_int(seed):
    got = sample_counts([0.3, 0.7], 1000, seed)
    assert got.tolist() == inverse_cdf_oracle([0.3, 0.7], 1000, int(seed)).tolist()


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
    assert [f.name for f in dataclasses.fields(h)] == ["counts", "probabilities"]
    assert h.counts.tolist() == [318, 682]
    assert np.allclose(h.probabilities, [0.3, 0.7])


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


def _tail_grid():
    """(dof, stat) for dof 1-1000 and 1e5 at stats from 0 to 1e7: the bulk
    and both tails of every law, and far past them."""
    rng = np.random.default_rng(0)
    for dof in [*range(1, 1001), 10**5]:
        spread = 10 * np.sqrt(2.0 * dof)
        stats = [0.0, 1e-300, 1e-10, 0.01, 0.5, 1.0, dof / 2, dof - 1.0,
                 float(dof), dof + 1.0, 1.5 * dof, 2.0 * dof, 3.0 * dof,
                 dof + spread, 1e3, 1e4, 1e5, 1e7,
                 float(rng.uniform(0, 3 * dof + 10)),
                 float(10 ** rng.uniform(-3, 7))]
        for stat in stats:
            yield dof, stat


def test_chi_square_tail_matches_scipy():
    from scipy.special import chdtrc

    worst = 0.0
    for dof, stat in _tail_grid():
        want, got = float(chdtrc(dof, stat)), sampling.chi_square_tail(dof, stat)
        assert 0.0 <= got <= 1.0
        # scipy's own relative error reaches about 5e-13 in the far tail
        # (see the mpmath comparison below); below 1e-290 both underflow
        assert abs(got - want) <= 2e-12 * want + 1e-290, (dof, stat, got, want)
        if want > 1e-290:
            worst = max(worst, abs(got - want) / want)
    assert worst > 0.0  # the grid reaches the tail, where the two differ


def test_chi_square_tail_is_accurate_to_a_few_ulps():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(1)
    for _ in range(200):
        dof = int(rng.integers(1, 1001))
        stat = abs(dof + float(rng.normal()) * 4 * np.sqrt(2.0 * dof))
        want = float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2,
                                     regularized=True))
        got = sampling.chi_square_tail(dof, stat)
        assert abs(got - want) <= 2e-14 * want, (dof, stat, got, want)


def test_chi_square_tail_edges():
    assert sampling.chi_square_tail(3, 0.0) == 1.0
    assert sampling.chi_square_tail(3, float("inf")) == 0.0
    assert sampling.chi_square_tail(1, 2.0) == math.erfc(1.0)
    assert sampling.chi_square_tail(2, 2.0) == math.exp(-1.0)
    assert sampling.chi_square_tail(2, 1e7) == 0.0
