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


def _kraus_families(E: Instrument, psd_tol: float) -> tuple[list[list[np.ndarray]], int]:
    d = E.observed_dim
    families = []
    rank = 1
    for idx, c in enumerate(E.chois):
        h = (c + dagger(c)) / 2
        lam, vec = np.linalg.eigh(h)
        scale = max(float(lam[-1]), 1.0)
        if float(lam[0]) < -psd_tol * scale:
            raise ValueError(
                f"outcome {idx}: Choi block violates the PSD tolerance "
                f"{psd_tol:.1e} (min eigenvalue {float(lam[0]):.2e})")
        keep = lam > psd_tol * scale
        ops = []
        for s in np.flatnonzero(keep):
            k_op = np.sqrt(lam[s]) * vec[:, s].reshape(d, d).T
            ops.append(k_op)
        families.append(ops)
        rank = max(rank, len(ops))
    return families, rank


def realize_instrument(E: Instrument, psd_tol: float = 1e-8) -> MeasuringProcess:
    """Probe realization of a verified instrument.

    The probe space is C^m (x) C^r (m outcomes, r the common padded Kraus
    rank); the probe vector is the first basis vector; outcome i reads the
    i-th slab of the first register, the r basis vectors (i, t).
    """
    E.validate(psd_tol=psd_tol)
    d, m = E.observed_dim, E.outcomes
    families, r = _kraus_families(E, psd_tol)
    P = m * r
    # row (a, (i, t)) of column p holds the Kraus amplitude K_it[a, p];
    # += writes the -0.0 entries of a Kraus operator as 0.0
    A = np.zeros((d, m, r, d), dtype=complex)
    for i, ops in enumerate(families):
        for t, k_op in enumerate(ops):
            A[:, i, t, :] += k_op
    return MeasuringProcess(observed_dim=d, probe_vector=basis_vector(0, P),
                            meter=np.repeat(np.arange(m), r),
                            isometry=A.reshape(d * P, d), labels=E.labels)


def instrument_of(dil: MeasuringProcess) -> Instrument:
    """Instrument induced by a realization's measuring process."""
    return instrument_from_process(dil)
