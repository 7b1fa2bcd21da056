import numpy as np
import pytest

from measurelab._linalg import (
    basis_vector,
    dagger,
    frob,
    haar_unitary,
    matrix_unit,
    random_density,
    random_state_vector,
    unitary_residual,
)
from measurelab.algebra import commutant
from measurelab.gns import gns, gns_intertwiner
from measurelab.states import State, diagonal_state, vector_state
from measurelab.uhf import AdjointAction, gamma_step, symmetry_unitary


def gram_rank_oracle(phi):
    """Representation dimension straight from the sesquilinear form on
    matrix units: rank of G[(p,q),(r,s)] = phi(e_pq* e_rs)."""
    n = phi.dim
    rho = phi.density
    g = np.zeros((n * n, n * n), dtype=complex)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    x = dagger(matrix_unit(p, q, n)) @ matrix_unit(r, s, n)
                    g[p * n + q, r * n + s] = np.trace(rho @ x)
    sv = np.linalg.svd(g, compute_uv=False)
    return int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))


def test_rep_dims_match_gram_oracle():
    pure2 = vector_state(basis_vector(0, 2))
    trace2 = diagonal_state(np.ones(2))
    pure3 = vector_state(random_state_vector(3, np.random.default_rng(0)))
    partial3 = diagonal_state(np.array([0.5, 0.5, 0.0]))
    for phi, want in [(pure2, 2), (trace2, 4), (pure3, 3), (partial3, 6)]:
        rep = gns(phi)
        assert rep.rep_dim == want
        assert rep.rep_dim == gram_rank_oracle(phi)


def test_cyclic_vector_generates_the_space():
    phi = diagonal_state(np.array([0.7, 0.3]))
    rep = gns(phi)
    vecs = [rep.vector(matrix_unit(p, q, 2)) for p in range(2) for q in range(2)]
    rank = np.linalg.matrix_rank(np.array(vecs), tol=1e-10)
    assert rank == rep.rep_dim
    assert abs(np.linalg.norm(rep.omega) - 1.0) < 1e-12


def test_expectation_reproduces_the_state():
    rng = np.random.default_rng(1)
    phi = State(density=random_density(3, rng))
    rep = gns(phi)
    for _ in range(5):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert abs(np.vdot(rep.omega, rep.vector(x)) - phi(x)) < 1e-11


def test_rep_commutant_dimension_is_rank_squared():
    for phi, rank in [(vector_state(basis_vector(0, 2)), 1),
                      (diagonal_state(np.ones(2)), 2),
                      (diagonal_state(np.array([0.5, 0.5, 0.0])), 2)]:
        rep = gns(phi)
        assert rep.rank == rank
        imgs = [np.kron(matrix_unit(i, j, phi.dim), np.eye(rank))
                for i in range(phi.dim) for j in range(phi.dim)]
        assert commutant(imgs).dim == rank * rank


def test_gns_is_deterministic():
    phi = diagonal_state(np.array([0.6, 0.4]))
    a, b = gns(phi), gns(phi)
    assert np.array_equal(a.omega, b.omega)


def test_symmetry_implementing_unitary_has_finite_order():
    # the source state must be pinned: the trace has a fully degenerate
    # spectrum, and letting the pullback side re-diagonalize it would pair
    # the two GNS spaces through an arbitrary frame
    for k in (2, 3):
        sigma = AdjointAction(symmetry_unitary(k, 2))
        phi = diagonal_state(np.ones(k ** 2))
        vi = gns_intertwiner(sigma, phi, source_state=phi)
        v = vi.matrix
        assert v.shape[0] == v.shape[1]
        assert unitary_residual(v) < 1e-10
        assert vi.isometry_residual < 1e-10
        assert vi.intertwining_residual < 1e-9
        assert frob(np.linalg.matrix_power(v, k) - np.eye(v.shape[0])) < 1e-12


def test_intertwiner_unitary_for_invariant_mixed_state():
    sigma = AdjointAction(symmetry_unitary(2, 2))
    phi = diagonal_state(np.array([0.4, 0.1, 0.1, 0.4]))
    vi = gns_intertwiner(sigma, phi)
    m = vi.matrix
    assert m.shape[0] == m.shape[1]
    assert frob(dagger(m) @ m - np.eye(m.shape[1])) < 1e-10


def test_ladder_intertwiner_is_a_strict_isometry():
    step = gamma_step(2, 2)
    vi = gns_intertwiner(step, diagonal_state(np.ones(4)))
    m = vi.matrix
    assert m.shape == (16, 4)
    assert frob(dagger(m) @ m - np.eye(4)) < 1e-10
    assert vi.cyclic_residual < 1e-10


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (2, 6), (4, 3), (3, 4)])
def test_ladder_intertwiner_matches_the_generic_engine(k, n):
    # (1/sqrt k) sum_j W_j read off the step's index map, as the chi
    # report reads it, is the matrix the generic engine solves for over all
    # matrix units of the source
    step = gamma_step(k, n)
    N, m = step.target_dim, step.source_dim
    rows, values = step.rows, step.phases / np.sqrt(k)
    assert rows.shape == values.shape == (k, m)
    V = np.zeros((N, m), dtype=complex)
    V[rows, np.arange(m)] = values
    solved = gns_intertwiner(step, vector_state(np.ones(N)))
    assert np.abs(V - solved.matrix).max() < 1e-14
    assert solved.intertwining_residual < 1e-14


def test_generic_engine_refuses_an_anti_homomorphism():
    # the transpose keeps the trace, and its solved V (the flip of the two
    # tensor factors) is a unitary carrying the cyclic vector over, but it
    # reverses products: the relation fails on the generators

    class Transpose:
        source_dim = target_dim = 3

        def __call__(self, x):
            return np.asarray(x).T

    phi = diagonal_state(np.ones(3))
    with pytest.raises(ValueError, match="intertwining residual"):
        gns_intertwiner(Transpose(), phi, source_state=phi)


def test_the_source_state_is_the_trace_dual_pullback():
    # the engine pulls the target state back through the unit images,
    # rho_a[q, p] = Tr(rho_b gamma(e_pq)), so Tr(rho_a x) = Tr(rho_b gamma(x)):
    # u* rho u for an inner automorphism, and for a step the density read
    # off that duality here; a pinned source state that is the transpose of
    # the pullback is refused
    rng = np.random.default_rng(0)
    u, rho = haar_unitary(4, rng), random_density(4, rng)
    step, rho9 = gamma_step(3, 2, "generic"), random_density(9, rng)
    m = step.source_dim
    stepped = np.array([[np.trace(rho9 @ step(matrix_unit(p, q, m)))
                         for p in range(m)] for q in range(m)])
    for gamma, target, pulled in ((AdjointAction(u), rho, dagger(u) @ rho @ u),
                                  (step, rho9, stepped)):
        vi = gns_intertwiner(gamma, State(target), source_state=State(pulled))
        assert vi.intertwining_residual < 1e-9
        assert vi.cyclic_residual < 1e-10
        with pytest.raises(ValueError, match="not invariant"):
            gns_intertwiner(gamma, State(target), source_state=State(pulled.T))


def test_intertwiner_rejects_non_invariant_state():
    sigma = AdjointAction(symmetry_unitary(2, 2))
    skew = diagonal_state(np.array([0.7, 0.1, 0.1, 0.1]))
    with pytest.raises(ValueError, match="not invariant"):
        gns_intertwiner(sigma, skew, source_state=diagonal_state(np.ones(4)))
