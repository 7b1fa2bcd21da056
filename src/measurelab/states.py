"""States on finite-dimensional matrix algebras.

A state is represented by its density matrix: phi(x) = Tr(rho x). Vector
and diagonal states are provided as constructors; fidelity uses the
square-root formula and is clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import dagger, frob, herm_residual

STATE_TOL = 1e-10


@dataclass(frozen=True)
class State:
    """State on the d x d matrices, held as a density matrix."""

    density: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=complex)
        object.__setattr__(self, "density", rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def __call__(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.density @ x))

    def validate(self) -> None:
        rho = self.density
        if herm_residual(rho) > STATE_TOL * max(1.0, frob(rho)):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > STATE_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < -STATE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")

    def is_pure(self) -> bool:
        ev = np.linalg.eigvalsh(self.density)
        return bool(ev[:-1].max(initial=0.0) <= STATE_TOL)


def vector_state(v: np.ndarray) -> State:
    v = np.asarray(v, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise ValueError("amplitudes must be finite")
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ValueError("zero vector has no associated state")
    v = v / n
    return State(np.outer(v, v.conj()))


def diagonal_state(weights) -> State:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if w.min() < -1e-14:
        raise ValueError("negative weight")
    if w.sum() <= 0.0:
        raise ValueError("weights have zero total mass")
    return State(np.diag(w / w.sum()).astype(complex))


def fidelity(a: State, b: State) -> float:
    """Uhlmann fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    sqrt(a) is the PSD root from the eigendecomposition of a's Hermitian
    part with negative rounding clipped, so rank-deficient a is fine.
    """
    w, v = np.linalg.eigh((a.density + dagger(a.density)) / 2)
    ra = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    m = ra @ b.density @ ra
    ev = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return float(np.clip(np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2, 0.0, 1.0))
