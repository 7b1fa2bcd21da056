import warnings

import numpy as np
import pytest

from measurelab._linalg import basis_vector, random_density
from measurelab.states import (
    State,
    diagonal_state,
    fidelity,
    vector_state,
)


def test_uniform_superposition_density():
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    phi = vector_state(psi)
    assert np.abs(phi.density - 0.5 * np.ones((2, 2))).max() < 1e-15
    assert phi.is_pure()


def test_vector_state_normalizes_input():
    phi = vector_state(np.array([3.0, 4.0j]))
    assert abs(np.trace(phi.density) - 1.0) < 1e-14
    assert abs(phi.density[0, 0] - 0.36) < 1e-14


def test_diagonal_state_normalizes_weights():
    phi = diagonal_state(np.array([2.0, 6.0]))
    assert np.allclose(np.diag(phi.density).real, [0.25, 0.75])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0], []])
def test_diagonal_state_rejects_degenerate_weights(weights):
    with pytest.raises(ValueError):
        diagonal_state(np.array(weights))


def test_tracial_state_is_uniform():
    phi = diagonal_state(np.ones(3))
    assert np.array_equal(phi.density, np.eye(3) / 3.0)


def test_state_evaluates_by_trace():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    phi = State(density=rho)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(phi(x) - np.trace(rho @ x)) < 1e-13


def test_fidelity_extremes():
    e0 = vector_state(basis_vector(0, 2))
    e1 = vector_state(basis_vector(1, 2))
    assert abs(fidelity(e0, e0) - 1.0) < 1e-12
    assert abs(fidelity(e0, e1)) < 1e-12
    assert abs(fidelity(e0, diagonal_state(np.ones(2))) - 0.5) < 1e-12


def test_fidelity_of_phase_twisted_superposition_vanishes():
    # diag(1,-1) flips |+> to |->, an orthogonal vector
    plus = vector_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    v = np.diag([1.0, -1.0]).astype(complex)
    twisted = State(density=v @ plus.density @ v.conj().T)
    assert abs(fidelity(plus, twisted)) < 1e-12


def test_fidelity_pure_pair_is_squared_overlap():
    rng = np.random.default_rng(1)
    from measurelab._linalg import random_state_vector

    a = random_state_vector(4, rng)
    b = random_state_vector(4, rng)
    got = fidelity(vector_state(a), vector_state(b))
    # square roots of near-null eigenvalues cost half the machine precision
    assert abs(got - abs(np.vdot(a, b)) ** 2) < 1e-7


def test_fidelity_of_rank_deficient_densities_does_not_warn():
    # singular densities have a PSD square root; taking it must not go
    # through a matrix-function solve that warns about singularity
    rng = np.random.default_rng(4)
    from measurelab._linalg import random_state_vector

    v = random_state_vector(4, rng)
    b = random_density(4, rng, rank=2)
    p = State(density=np.diag([0.5, 0.5, 0.0]).astype(complex))
    q = State(density=np.diag([0.0, 0.5, 0.5]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pure = fidelity(vector_state(v), State(density=b))
        classical = fidelity(p, q)
    assert abs(pure - np.vdot(v, b @ v).real) < 1e-7
    assert abs(classical - 0.25) < 1e-12


def test_validate_rejects_bad_density():
    bad_trace = State(density=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        bad_trace.validate()
    not_psd = State(density=np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        not_psd.validate()
    not_herm = State(density=np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        not_herm.validate()


def test_is_pure_on_mixtures():
    assert not diagonal_state(np.ones(2)).is_pure()
    assert vector_state(basis_vector(1, 3)).is_pure()
