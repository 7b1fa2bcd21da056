"""Measurement realization of a verified instrument (Ozawa's realization
theorem at finite dimension): a measuring process whose probe vector,
meter and interaction induce an instrument that reproduces the original
branch maps exactly.

Construction: take Kraus families from the Choi spectra, pad every outcome
to the common maximal rank r, and stack them into the Stinespring isometry
V from C^d into C^d (x) C^m (x) C^r. The process holds V itself: a unitary
interaction extending it exists because V is an isometry, and every
prediction factors through V. The result is a plain MeasuringProcess;
kraus_rank(p) reads r back off its dimensions and slab meter.
"""

from __future__ import annotations

import numpy as np

from ._linalg import basis_vector, dagger
from .instruments import Instrument, MeasuringProcess, instrument_from_process


def kraus_rank(p: MeasuringProcess) -> int:
    """The padded Kraus rank r of a realization's C^m (x) C^r probe;
    refused unless the outcome count m divides the probe dimension and the
    meter is the realization's slab meter repeat(arange(m), r)."""
    if not p.outcomes or p.probe_dim % p.outcomes:
        raise ValueError(f"{p.outcomes} outcomes do not divide probe "
                         f"dimension {p.probe_dim}")
    r = p.probe_dim // p.outcomes
    if not np.array_equal(p.meter, np.repeat(np.arange(p.outcomes), r)):
        raise ValueError(f"meter is not the slab meter repeat(arange({p.outcomes}), {r}) "
                         "of a Kraus layout")
    return r


def _kraus_families(E: Instrument, psd_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Kraus amplitudes of every outcome from one stacked eigh of the
    Hermitian parts of the Choi blocks, each block with the bits it has
    alone. Outcome i keeps the eigenvectors whose eigenvalue passes
    psd_tol times max(1, its largest eigenvalue), in ascending order; an
    eigenvalue below minus that floor refuses the first such outcome.
    Returns the outcome i and slot t of each kept amplitude, the amplitudes
    sqrt(lam) vec as rows (p, a), and the common rank r, at least 1."""
    lam, vec = np.linalg.eigh((E.chois + dagger(E.chois)) / 2)
    scale = np.maximum(lam[:, -1], 1.0)
    bad = np.flatnonzero(lam[:, 0] < -psd_tol * scale)
    if bad.size:
        raise ValueError(
            f"outcome {bad[0]}: Choi block violates the PSD tolerance "
            f"{psd_tol:.1e} (min eigenvalue {lam[bad[0], 0]:.2e})")
    keep = lam > psd_tol * scale[:, None]
    i, s = np.nonzero(keep)
    slot = np.cumsum(keep, axis=1)[i, s] - 1
    amps = np.sqrt(lam[i, s])[:, None] * vec[i, :, s]
    return i, slot, amps, int(keep.sum(axis=1).max(initial=1))


def realize_instrument(E: Instrument, psd_tol: float = 1e-8) -> MeasuringProcess:
    """Probe realization of a verified instrument.

    The probe space is C^m (x) C^r (m outcomes, r the common padded Kraus
    rank); the probe vector is the first basis vector; outcome i reads the
    i-th slab of the first register, the r basis vectors (i, t).
    """
    E.validate(psd_tol=psd_tol)
    d, m = E.observed_dim, E.outcomes
    i, slot, amps, r = _kraus_families(E, psd_tol)
    P = m * r
    # row (a, (i, t)) of column p holds the Kraus amplitude K_it[a, p], the
    # amplitude row's entry (p, a); += writes its -0.0 entries as 0.0
    A = np.zeros((d, m, r, d), dtype=complex)
    A[:, i, slot, :] += amps.reshape(-1, d, d).transpose(2, 0, 1)
    return MeasuringProcess(observed_dim=d, probe_vector=basis_vector(0, P),
                            meter=np.repeat(np.arange(m), r),
                            isometry=A.reshape(d * P, d), labels=E.labels)


def instrument_of(dil: MeasuringProcess) -> Instrument:
    """Instrument induced by a realization's measuring process."""
    return instrument_from_process(dil)
