import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from measurelab import algebra
from measurelab._linalg import (cyclic_shift, dagger, frob, haar_unitary,
                                matrix_unit, tensor)
from measurelab.algebra import (
    MatrixUnits,
    SubAlgebra,
    center,
    commutant,
    commutant_dimension_bruteforce,
    conjugation_fixed_dimension_bruteforce,
    full_matrix_algebra,
    generated_algebra,
    intertwiner_space,
    minimal_central_projections,
    scalar_algebra,
    unitary_in_space,
)
from measurelab.uhf import gamma_step, symmetry_unitary


def commutant_dim_svd_oracle(mats, n):
    """Null-space count of the stacked commutator equations, done the blunt
    way: one dense SVD over the realified system."""
    rows = []
    eye = np.eye(n)
    for a in mats:
        rows.append(np.kron(a, eye) - np.kron(eye, a.T))
        ah = dagger(a)
        rows.append(np.kron(ah, eye) - np.kron(eye, ah.T))
    m = np.vstack(rows)
    big = np.block([[m.real, -m.imag], [m.imag, m.real]])
    sv = np.linalg.svd(big, compute_uv=False)
    scale = max(sv[0], 1.0)
    # complex solution space counted twice in the realified picture
    return int(np.sum(sv <= 1e-9 * scale) // 2)


def test_full_and_scalar_algebras():
    full = full_matrix_algebra(2)
    assert full.dim == 4
    assert commutant(full).dim == 1
    assert commutant(scalar_algebra(2)).dim == 4


def test_single_offdiagonal_unit_generates_everything():
    e12 = matrix_unit(0, 1, 2)
    alg = generated_algebra([e12])
    assert alg.dim == 4
    assert alg.contains(np.array([[0.3, 0.0], [1.0, 2.0]], dtype=complex))


def test_commutant_of_signature_diagonal():
    d = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    alg = commutant([d])
    assert alg.dim == 8
    assert alg.dim == commutant_dim_svd_oracle([d], 4)
    # block pattern: anything mixing the two eigenvalue groups is excluded
    assert alg.contains(matrix_unit(0, 3, 4))
    assert not alg.contains(matrix_unit(0, 1, 4))


def test_commutant_of_left_factor():
    gens = [tensor(matrix_unit(i, j, 2), np.eye(3)) for i in range(2) for j in range(2)]
    alg = commutant(gens)
    assert alg.dim == 9
    assert alg.contains(tensor(np.eye(2), matrix_unit(1, 2, 3)))


def test_double_commutant_closes_the_generated_algebra():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    alg = generated_algebra([g])
    again = commutant(commutant(alg))
    assert again.dim == alg.dim
    for b in alg.basis:
        assert again.contains(b)


def test_center_of_two_blocks():
    units = [tensor(np.eye(2), matrix_unit(i, j, 2)) for i in range(2) for j in range(2)]
    # embed M2 (+) M2 as block-diagonal 4x4, blocks free
    blocks = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((4, 4), dtype=complex)
            m[i, j] = 1.0
            blocks.append(m)
            m2 = np.zeros((4, 4), dtype=complex)
            m2[2 + i, 2 + j] = 1.0
            blocks.append(m2)
    alg = generated_algebra(blocks)
    assert alg.dim == 8
    z = center(alg)
    assert z.dim == 2


def test_minimal_central_projections_of_two_blocks():
    blocks = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((4, 4), dtype=complex)
            m[i, j] = 1.0
            blocks.append(m)
            m2 = np.zeros((4, 4), dtype=complex)
            m2[2 + i, 2 + j] = 1.0
            blocks.append(m2)
    alg = generated_algebra(blocks)
    projs = minimal_central_projections(alg)
    assert len(projs) == 2
    ranks = [round(float(np.trace(p).real)) for p in projs]
    assert ranks == [2, 2]
    assert frob(sum(projs) - np.eye(4)) < 1e-10
    for p in projs:
        assert frob(p @ p - p) < 1e-10
        assert frob(p - dagger(p)) < 1e-10


def test_projection_ordering_is_stable():
    blocks = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((4, 4), dtype=complex)
            m[i, j] = 1.0
            blocks.append(m)
    m_last = np.zeros((4, 4), dtype=complex)
    m_last[3, 3] = 1.0
    alg = generated_algebra(blocks + [m_last, np.eye(4, dtype=complex)])
    projs = minimal_central_projections(alg)
    ranks = [round(float(np.trace(p).real)) for p in projs]
    # larger blocks come first
    assert ranks == sorted(ranks, reverse=True)


def test_staged_commutant_agrees_with_oracle_on_randoms():
    rng = np.random.default_rng(1)
    for n, gens_count in [(3, 1), (4, 2), (6, 1)]:
        gens = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                for _ in range(gens_count)]
        alg = commutant(gens)
        assert alg.dim == commutant_dim_svd_oracle(gens, n)
        for b in alg.basis:
            for g in gens:
                assert frob(b @ g - g @ b) < 1e-8


def test_bruteforce_matches_staged_on_structured_input():
    d = np.diag([1.0, 1.0, -1.0]).astype(complex)
    assert commutant_dimension_bruteforce([d]) == commutant([d]).dim == 5


def test_bruteforce_large_ambient_path():
    # 36x36 ambient (1296 unknowns): the exact sparsity of u (x) I6 splits
    # the operator into 36 blocks of 36 columns, each ranked by dense SVD
    rng = np.random.default_rng(2)
    u = haar_unitary(6, rng)
    g = tensor(u, np.eye(6))
    assert commutant_dimension_bruteforce([g]) == 216
    assert commutant([g]).dim == 216


def test_bruteforce_gram_rule_on_a_wide_dense_block(monkeypatch):
    # a Haar unitary has no zero pattern to split on: one block of
    # 33^2 = 1089 columns, past the dense-SVD limit, ranked by zpstrf
    calls = []
    zpstrf = algebra.lapack.zpstrf

    def counting_zpstrf(*args, **kwargs):
        calls.append(args[0].shape)
        return zpstrf(*args, **kwargs)

    monkeypatch.setattr(algebra.lapack, "zpstrf", counting_zpstrf)
    u = haar_unitary(33, np.random.default_rng(4))
    assert commutant_dimension_bruteforce([u]) == 33
    assert calls == [(1089, 1089)]


def _structured_set(kind, n, rng):
    if kind == "permuted":
        a = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        perm = rng.permutation(n)
        g = tensor(haar_unitary(a, rng), np.eye(n // a))
        return [g[np.ix_(perm, perm)]]
    if kind == "diagonal":
        vals = rng.choice([1.0, -1.0, 1j], size=n)
        return [np.diag(vals).astype(complex)]
    return [haar_unitary(n, rng)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["permuted", "diagonal", "haar"]),
       n=st.integers(1, 6), count=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bruteforce_matches_blunt_svd_oracle(kind, n, count, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        mats += _structured_set(kind, n, rng)
    assert commutant_dimension_bruteforce(mats) == commutant_dim_svd_oracle(mats, n)


def test_bruteforce_uses_no_spectral_split(monkeypatch):
    step = gamma_step(2, 3)
    m = step.source_dim
    gens = [step(cyclic_shift(m)), step(matrix_unit(0, 0, m)),
            symmetry_unitary(2, 3)]
    rng = np.random.default_rng(5)
    u = tensor(haar_unitary(2, rng), np.eye(3))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use a spectral split")

    for name in ("_split_element", "_eigen_groups", "_split_candidates",
                 "_split_candidates_pair", "_restrict"):
        monkeypatch.setattr(algebra, name, forbidden)
    for mod in (np.linalg, scipy.linalg):
        for name in ("eigh", "eig"):
            monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    assert commutant_dimension_bruteforce(gens) == 2
    assert conjugation_fixed_dimension_bruteforce(u) == 18


def test_conjugation_fixed_dimension_of_a_noisy_scalar():
    # every entry of u (x) conj(u) - I is rounding noise; the absolute floor
    # keeps the cut from pruning them as if they were constraints
    w = np.exp(2j * np.pi / 3)
    assert conjugation_fixed_dimension_bruteforce(np.diag([w, w, w])) == 9


def test_conjugation_fixed_dimension_of_phase_flip():
    v = np.diag([1.0, -1.0]).astype(complex)
    assert conjugation_fixed_dimension_bruteforce(v) == 2
    w = np.diag([1.0, 1.0, -1.0]).astype(complex)
    assert conjugation_fixed_dimension_bruteforce(w) == 5


def test_intertwiner_space_finds_the_conjugator():
    # pairs (a, b) carve out {X: a X = X b}; the first pair seeds a spectral
    # split, so it has to be normal on both sides
    rng = np.random.default_rng(3)
    u = haar_unitary(3, rng)
    h1 = rng.normal(size=(3, 3))
    h1 = (h1 + h1.T).astype(complex)
    h2 = rng.normal(size=(3, 3))
    h2 = (h2 + h2.T).astype(complex)
    pairs = [(u @ h @ dagger(u), h) for h in (h1, h2)]
    space = intertwiner_space(pairs)
    assert space.shape[0] == 1
    got = unitary_in_space(space)
    for h in (h1, h2):
        assert frob(got @ h - (u @ h @ dagger(u)) @ got) < 1e-9
    assert frob(got @ dagger(got) - np.eye(3)) < 1e-10


def test_subalgebra_projection_and_residuals():
    alg = generated_algebra([np.diag([1.0, -1.0]).astype(complex)])
    assert alg.dim == 2
    x = np.array([[2.0, 5.0], [7.0, 3.0]], dtype=complex)
    px = alg.project(x)
    assert np.abs(px - np.diag([2.0, 3.0])).max() < 1e-12
    assert alg.span_residual(np.diag([1.0, 9.0]).astype(complex)) < 1e-12
    assert alg.span_residual(matrix_unit(0, 1, 2)) > 0.5
    assert alg.closure_residual() < 1e-10


def test_matrix_units_relations():
    units = MatrixUnits(d=3)
    assert units.relations_residual() < 1e-14
    assert np.array_equal(units[0, 2], matrix_unit(0, 2, 3))
