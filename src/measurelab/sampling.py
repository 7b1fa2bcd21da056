"""Deterministic outcome sampling. Counter-based bit generator keyed by the
seed plus inverse-CDF lookup, so equal seeds give byte-identical streams
across runs and platforms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Histogram:
    counts: np.ndarray
    probabilities: np.ndarray


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
MAX_SHOTS = 10**9  # about 40 s of drawing at few outcomes; larger requests are refused


def sample_counts(weights, shots: int, seed: int) -> np.ndarray:
    """Draw outcome counts for the weight vector by inverse CDF over a
    counter-based stream, consumed in chunks of _CHUNK uniforms (the same
    stream as one whole draw, so the counts do not depend on the chunk),
    every chunk into one buffer. Shot counts above MAX_SHOTS, and a seed
    that is not an integer in [0, 2**128), the Philox key range, are
    refused before any draw.

    Outcome j takes the draws u with edge[j-1] <= u < edge[j], edge the
    cumulative weights with the last set to 1.0. The counts are the
    differences of the running totals of u < edge[j], counted one edge at
    a time into one chunk of bools. That is one pass over the draws per
    edge, so the time grows with the outcome count: against a binary
    search per draw it is faster up to about 150 outcomes and slower above
    (about 5 times at 1024 outcomes, 15 times at 4096)."""
    if shots <= 0:
        raise ValueError("shot count must be positive")
    if shots > MAX_SHOTS:
        raise ValueError(f"shot count {shots} exceeds the ceiling {MAX_SHOTS}")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= int(seed) < 2**128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    w = normalize_weights(weights)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    edges = np.cumsum(w)
    edges[-1] = 1.0
    buf = np.empty(min(int(shots), _CHUNK))
    hit = np.empty(buf.size, dtype=bool)
    below = np.zeros(w.size, dtype=np.int64)
    below[-1] = shots  # every draw lies below the last edge, 1.0
    left = int(shots)
    while left:
        u = rng.random(out=buf[:min(left, _CHUNK)])
        for j in range(w.size - 1):
            below[j] += np.count_nonzero(np.less(u, edges[j], out=hit[:u.size]))
        left -= u.size
    return np.diff(below, prepend=0)


def sample_histogram(weights, shots: int, seed: int) -> Histogram:
    w = normalize_weights(weights)
    return Histogram(counts=sample_counts(w, shots, seed), probabilities=w)


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
    return stat, chi_square_tail(dof, stat)


def chi_square_tail(dof: int, stat: float) -> float:
    """Upper tail of the chi-square law with dof degrees of freedom at stat,
    Q(dof/2, stat/2), in closed form. With x = stat/2, k = dof // 2 and
    h = 1/2 for odd dof, else 0,

        Q = [erfc(sqrt x) if dof is odd] + sum_{j<k} e^-x x^(j+h) / Gamma(j+h+1).

    Each term is the previous one times x/(j+h); the sum runs on terms
    scaled by e^x, and e^-x is paid in factors of e^-345 whenever a scaled
    term passes 1e150, so no term overflows and none underflows before the
    sum is complete. Rounding can carry the sum past 1; it is capped there.

    The sum runs up to dof/2 terms, so the time grows linearly with dof
    (about 16 ms at dof 1e5 on a 2 vCPU machine), and the rounding grows too.
    The accuracy is tested against scipy.special.chdtrc for dof 1-1000 at
    stats 0-1e7 and at dof 1e5; against a 40-digit reference the relative
    error is at most 5e-15 over dof 1-1000, 4e-14 at dof 1e5 and 2e-13 at
    dof 1e6. Other dof are not tested."""
    x = stat / 2.0
    if x == math.inf:
        return 0.0
    if not x > 0.0:
        return 1.0
    k, odd = divmod(dof, 2)
    term = 2.0 * math.sqrt(x / math.pi) if odd else 1.0
    total, owed = 0.0, x
    for j in range(k):
        total += term
        if j > x and term < total * 1e-17:
            break
        term *= x / (j + 1 + 0.5 * odd)
        if term > 1e150 and owed > 0.0:
            pay = min(owed, 345.0)
            scale = math.exp(-pay)
            term, total, owed = term * scale, total * scale, owed - pay
    while owed > 0.0 and total > 0.0:
        pay = min(owed, 345.0)
        total, owed = total * math.exp(-pay), owed - pay
    return min(1.0, (math.erfc(math.sqrt(x)) if odd else 0.0) + total)
