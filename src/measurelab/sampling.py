"""Deterministic outcome sampling. Counter-based bit generator keyed by the
seed plus inverse-CDF lookup, so equal seeds give byte-identical streams
across runs and platforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc


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


def normalize_weights(weights, tol: float = 1e-9) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("outcome weights must be finite")
    if np.min(w) < -tol:
        raise ValueError(f"negative outcome weight {np.min(w):.2e}")
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if abs(total - 1.0) > max(tol * w.size, 1e-12 * w.size):
        raise ValueError(f"outcome weights sum to {total}, not 1")
    return w / total


def sample_counts(weights, shots: int, seed: int) -> np.ndarray:
    """Draw outcome counts for the weight vector by inverse CDF over a
    counter-based stream."""
    if shots <= 0:
        raise ValueError("shot count must be positive")
    w = normalize_weights(weights)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    u = rng.random(int(shots))
    edges = np.cumsum(w)
    edges[-1] = 1.0
    idx = np.searchsorted(edges, u, side="right")
    idx = np.minimum(idx, w.size - 1)
    return np.bincount(idx, minlength=w.size).astype(np.int64)


def sample_histogram(weights, shots: int, seed: int,
                     labels: tuple[str, ...] = ()) -> Histogram:
    w = normalize_weights(weights)
    counts = sample_counts(w, shots, seed)
    return Histogram(counts=counts, probabilities=w, shots=int(shots),
                     seed=int(seed), labels=tuple(labels))


def chi_square_pvalue(counts, weights) -> tuple[float, float]:
    """Pearson statistic and upper tail probability against the exact
    weights; zero-weight bins are excluded (a hit there gives p = 0)."""
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
