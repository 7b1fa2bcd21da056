import numpy as np
import pytest

from measurelab._linalg import (
    _ROW_CHUNK,
    basis_vector,
    cyclic_shift,
    dagger,
    eig_normal,
    frob,
    haar_unitary,
    matrix_unit,
    opnorm,
    random_density,
    row_chunks,
    tensor,
    unitary_completion,
    unitary_residual,
)


def kron_oracle(a, b):
    # elementwise definition, no np.kron
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s), dtype=complex)
    for i in range(p):
        for j in range(q):
            for x in range(r):
                for y in range(s):
                    out[i * r + x, j * s + y] = a[i, j] * b[x, y]
    return out


def test_tensor_matches_elementwise_definition():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.abs(tensor(a, b) - kron_oracle(a, b)).max() < 1e-14


def test_tensor_of_three():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    got = tensor(*mats)
    want = kron_oracle(kron_oracle(mats[0], mats[1]), mats[2])
    assert np.abs(got - want).max() < 1e-14


def test_matrix_unit_and_basis_vector():
    e = matrix_unit(1, 2, 4)
    assert e.shape == (4, 4)
    assert e[1, 2] == 1.0 and np.count_nonzero(e) == 1
    v = basis_vector(3, 5)
    assert v[3] == 1.0 and np.count_nonzero(v) == 1


def test_cyclic_shift_permutes_basis():
    s = cyclic_shift(3)
    v = basis_vector(0, 3)
    assert np.array_equal(s @ v, basis_vector(1, 3))
    assert np.array_equal(np.linalg.matrix_power(s, 3), np.eye(3))


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(6)
    for dim in (2, 5, 9):
        u = haar_unitary(dim, rng)
        assert unitary_residual(u) < 1e-12


def test_random_density_is_a_state():
    rng = np.random.default_rng(7)
    rho = random_density(5, rng)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-13


@pytest.mark.parametrize("n, m", [(6, 2), (324, 3), (1, 1)])
def test_unitary_completion_extends_isometry(n, m):
    rng = np.random.default_rng(9)
    v = np.linalg.qr(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))[0]
    u = unitary_completion(v)
    assert u.shape == (n, n)
    assert unitary_residual(u) < 1e-12
    assert np.array_equal(u[:, :m], v)


def test_unitary_completion_refuses_more_columns_than_rows():
    with pytest.raises(ValueError, match="more columns than rows"):
        unitary_completion(np.eye(2, 3, dtype=complex))


def test_eig_normal_reconstructs():
    rng = np.random.default_rng(10)
    u = haar_unitary(4, rng)
    d = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
    x = u @ d @ dagger(u)
    lam, vec = eig_normal(x)
    assert np.abs(vec @ np.diag(lam) @ dagger(vec) - x).max() < 1e-11
    assert unitary_residual(vec) < 1e-11


def test_principal_log_round_trip():
    # a unitary's eigenphases from eig_normal rebuild it, z e^{i theta} z* = u,
    # with theta on the principal branch
    rng = np.random.default_rng(11)
    u = haar_unitary(5, rng)
    lam, z = eig_normal(u)
    theta = np.angle(lam)
    assert unitary_residual(z) < 1e-12
    assert opnorm((z * np.exp(1j * theta)) @ dagger(z) - u) < 1e-10
    assert theta.max() <= np.pi and theta.min() > -np.pi


def test_norms_on_known_matrices():
    x = np.diag([3.0, -4.0]).astype(complex)
    assert abs(frob(x) - 5.0) < 1e-14
    assert abs(opnorm(x) - 4.0) < 1e-14
    from measurelab._linalg import trace_norm

    assert abs(trace_norm(x) - 7.0) < 1e-12


def test_trace_norm_of_a_stack_is_each_matrix_alone():
    from measurelab._linalg import trace_norm

    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        x = rng.normal(size=(3, 2, n, n)) + 1j * rng.normal(size=(3, 2, n, n))
        x[0] = x[0] + dagger(x[0])  # Hermitian rows take the eigenvalue path
        got = trace_norm(x)
        assert got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            alone = trace_norm(x[idx])
            assert type(alone) is float
            assert got[idx].tobytes() == np.float64(alone).tobytes()
            assert abs(alone - np.linalg.svd(x[idx], compute_uv=False).sum()) < 1e-12


@pytest.mark.parametrize("rows", [1, 4, 1000, _ROW_CHUNK, _ROW_CHUNK + 1,
                                  2 * _ROW_CHUNK + 3])
def test_unitary_residual_sums_row_chunks(rows):
    # one chunk is u itself, not a split copy, and has dagger(u) @ u's bits;
    # more chunks agree to rounding
    rng = np.random.default_rng(rows)
    u = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    u /= np.linalg.norm(u, axis=0)
    dense = frob(dagger(u) @ u - np.eye(4))
    chunks = row_chunks(u)
    assert [len(c) for c in chunks] == [
        min(_ROW_CHUNK, rows - s) for s in range(0, rows, _ROW_CHUNK)]
    if rows <= _ROW_CHUNK:
        assert chunks[0] is u
        assert unitary_residual(u) == dense
    else:
        assert abs(unitary_residual(u) - dense) < 1e-12
