"""Deterministic outcome sampling. Counter-based bit generator keyed by the
seed plus inverse-CDF lookup, so equal seeds give byte-identical streams
across runs and platforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Histogram:
    counts: np.ndarray
    probabilities: np.ndarray
    shots: int
    seed: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"E{i + 1}" for i in range(self.counts.size)))


WEIGHT_TOL = 1e-9  # negative weight and unit-sum slack, per outcome


def normalize_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("outcome weights must be finite")
    if np.min(w) < -WEIGHT_TOL:
        raise ValueError(f"negative outcome weight {np.min(w):.2e}")
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_TOL * w.size:
        raise ValueError(f"outcome weights sum to {total}, not 1")
    return w / total


_CHUNK = 1 << 20   # uniforms drawn at a time: bounds memory at any shot count
MAX_SHOTS = 10**9  # about 40 s of drawing; larger requests are refused


def sample_counts(weights, shots: int, seed: int) -> np.ndarray:
    """Draw outcome counts for the weight vector by inverse CDF over a
    counter-based stream, consumed in chunks of _CHUNK uniforms (the same
    stream as one whole draw, so the counts do not depend on the chunk).
    Shot counts above MAX_SHOTS are refused before any draw."""
    if shots <= 0:
        raise ValueError("shot count must be positive")
    if shots > MAX_SHOTS:
        raise ValueError(f"shot count {shots} exceeds the ceiling {MAX_SHOTS}")
    w = normalize_weights(weights)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    edges = np.cumsum(w)
    edges[-1] = 1.0
    counts = np.zeros(w.size, dtype=np.int64)
    left = int(shots)
    while left:
        u = rng.random(min(left, _CHUNK))
        idx = np.searchsorted(edges, u, side="right")
        idx = np.minimum(idx, w.size - 1)
        counts += np.bincount(idx, minlength=w.size)
        left -= u.size
    return counts


def sample_histogram(weights, shots: int, seed: int,
                     labels: tuple[str, ...] = ()) -> Histogram:
    w = normalize_weights(weights)
    counts = sample_counts(w, shots, seed)
    return Histogram(counts=counts, probabilities=w, shots=int(shots),
                     seed=int(seed), labels=tuple(labels))


def chi_square_pvalue(counts, weights) -> tuple[float, float]:
    """Pearson statistic and upper tail probability against the exact
    weights; zero-weight bins are excluded (a hit there gives p = 0)."""
    from scipy.special import chdtrc

    counts = np.asarray(counts, dtype=float)
    w = np.asarray(weights, dtype=float)
    shots = float(np.sum(counts))
    live = w > 0
    if np.any(counts[~live] > 0):
        return float("inf"), 0.0
    expected = w[live] * shots
    stat = float(np.sum((counts[live] - expected) ** 2 / expected))
    dof = int(np.sum(live)) - 1
    if dof <= 0:
        return stat, 1.0
    return stat, float(chdtrc(dof, stat))
