import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from measurelab import algebra
from measurelab._linalg import (cyclic_shift, dagger, frob, haar_unitary,
                                matrix_unit, tensor)
from measurelab.algebra import (
    SubAlgebra,
    center,
    commutant,
    commutant_dimension_bruteforce,
    full_matrix_algebra,
    intertwiner_space,
    minimal_central_projections,
    unitary_in_space,
)
from measurelab.uhf import gamma_step, surrogate_commutant, symmetry_unitary


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


def conjugation_fixed_dimension(u):
    """dim {x: u x u* = x}, the null dimension of u (x) conj(u) - I by the
    brute-force oracle's own routine."""
    u = scipy.sparse.csr_array(np.asarray(u, dtype=complex))
    return algebra._null_dimension(
        scipy.sparse.kron(u, u.conj()) - scipy.sparse.identity(u.shape[0] ** 2))


def test_full_and_scalar_algebras():
    full = full_matrix_algebra(2)
    assert full.dim == 4
    units = [matrix_unit(i, j, 2) for i in range(2) for j in range(2)]
    assert np.array_equal(full.basis, units)
    assert commutant(full).dim == 1
    assert commutant([np.eye(2)]).dim == 4


def test_single_offdiagonal_unit_generates_everything():
    # the double commutant of {e12} is the algebra it generates
    alg = commutant(commutant([matrix_unit(0, 1, 2)]))
    assert alg.dim == 4
    assert alg.span_residual(np.array([[0.3, 0.0], [1.0, 2.0]])) < 1e-10


def test_commutant_of_signature_diagonal():
    d = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    alg = commutant([d])
    assert alg.dim == 8
    assert alg.dim == commutant_dim_svd_oracle([d], 4)
    # block pattern: anything mixing the two eigenvalue groups is excluded
    assert alg.span_residual(matrix_unit(0, 3, 4)) < 1e-10
    assert alg.span_residual(matrix_unit(0, 1, 4)) > 0.5


def test_commutant_of_left_factor():
    gens = [tensor(matrix_unit(i, j, 2), np.eye(3)) for i in range(2) for j in range(2)]
    alg = commutant(gens)
    assert alg.dim == 9
    assert alg.span_residual(tensor(np.eye(2), matrix_unit(1, 2, 3))) < 1e-10


def test_double_commutant_closes_the_generated_algebra():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # a generic g generates all of M_4
    again = commutant(commutant([g]))
    assert again.dim == 16
    assert again.span_residual(g) < 1e-10 * frob(g)


def two_block_algebra():
    """M2 (+) M2 embedded block-diagonally in 4x4, blocks free, with its
    matrix units as the basis."""
    blocks = []
    for i in range(2):
        for j in range(2):
            for off in (0, 2):
                blocks.append(matrix_unit(off + i, off + j, 4))
    return SubAlgebra(np.array(blocks))


def test_center_of_two_blocks():
    alg = two_block_algebra()
    assert alg.dim == 8
    z = center(alg)
    assert z.dim == 2


def intersection_reference(s1, s2):
    """Basis of span(s1) meet span(s2), the dense way: the null space of the
    stacked coefficient system [v1^T | -v2^T] c = 0, mapped back through v1."""
    v1 = s1.basis.reshape(s1.dim, -1)
    v2 = s2.basis.reshape(s2.dim, -1)
    _, w, vh = np.linalg.svd(np.concatenate([v1.T, -v2.T], axis=1))
    null = vh[int(np.sum(w > 1e-9 * w[0])):].conj().T
    return (null[:s1.dim].T @ v1).reshape(-1, s1.ambient_dim, s1.ambient_dim)


@pytest.mark.parametrize("name, build, want", [
    ("two blocks", two_block_algebra, 2),
    ("(2,3) image", lambda: gamma_step(2, 3).image_subalgebra(), 1),
    ("(3,2) image", lambda: gamma_step(3, 2).image_subalgebra(), 1),
    # a copy of M_2 with no recorded generators: restricted by its basis
    ("(2,3) plain surrogate", lambda: surrogate_commutant(
        gamma_step(2, 3).image_subalgebra()), 1),
])
def test_center_matches_the_dense_intersection(name, build, want):
    s = build()
    ref = intersection_reference(s, commutant(s))
    assert ref.shape[0] == want
    z = center(s)
    assert z.dim == ref.shape[0]
    assert np.allclose(np.einsum("pij,qij->pq", z.basis.conj(), z.basis),
                       np.eye(z.dim), atol=1e-10)
    for c in z.basis:
        assert s.span_residual(c) < 1e-9
        for b in s.basis:
            assert frob(c @ b - b @ c) < 1e-9
    for c in ref:
        assert z.span_residual(c) < 1e-9 * max(1.0, frob(c))


def test_center_needs_no_commutant_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("center must not solve a second commutant")

    monkeypatch.setattr(algebra, "commutant", forbidden)
    assert center(two_block_algebra()).dim == 2
    assert center(gamma_step(2, 3).image_subalgebra()).dim == 1


def test_minimal_central_projections_of_two_blocks():
    projs = minimal_central_projections(two_block_algebra())
    assert len(projs) == 2
    ranks = [round(float(np.trace(p).real)) for p in projs]
    assert ranks == [2, 2]
    assert frob(sum(projs) - np.eye(4)) < 1e-10
    for p in projs:
        assert frob(p @ p - p) < 1e-10
        assert frob(p - dagger(p)) < 1e-10


def test_projection_ordering_is_stable():
    # M2 (+) C (+) C, the top-left block first in the basis
    units = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)]
    alg = SubAlgebra(np.array([matrix_unit(i, j, 4) for i, j in units]))
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
    zpstrf = scipy.linalg.lapack.zpstrf

    def counting_zpstrf(*args, **kwargs):
        calls.append(args[0].shape)
        return zpstrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zpstrf", counting_zpstrf)
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


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["permuted", "diagonal", "haar"]),
       n=st.integers(1, 6), count=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_intertwiner_space_of_equal_pairs_is_the_commutant(kind, n, count, seed):
    # {X: gX = Xg, g*X = Xg*} over a normal set is its commutant; the
    # intertwiner route splits on the first g, the oracle on no spectrum
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        mats += _structured_set(kind, n, rng)
    pairs = []
    for g in mats:
        pairs += [(g, g), (dagger(g), dagger(g))]
    assert intertwiner_space(pairs).shape[0] == commutant_dimension_bruteforce(mats)


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
                 "_split_gram", "_split_basis", "_dense_gram", "_restrict",
                 "_solve"):
        monkeypatch.setattr(algebra, name, forbidden)
    for mod in (np.linalg, scipy.linalg):
        for name in ("eigh", "eig"):
            monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    assert commutant_dimension_bruteforce(gens) == 2
    assert conjugation_fixed_dimension(u) == 18


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.mark.parametrize("la, lb", [
    # square, repeated eigenvalues on both sides
    ([1.0, 1.0, 2.0, 3.0, 3.0, 3.0], [3.0, 1.0, 2.0, 2.0, 3.0, 4.0]),
    # rectangular N != M
    ([1.0, 2.0, 2.0, 5.0], [2.0, 5.0, 2.0, 1.0, 1.0, 2.0, 7.0]),
    ([1j, 1j, -1j], [1j, 1.0]),
])
def test_split_gram_matches_the_dense_gram(la, lb):
    rng = np.random.default_rng(8)
    la, lb = np.array(la, dtype=complex), np.array(lb, dtype=complex)
    N, M = la.size, lb.size
    za, zb = haar_unitary(N, rng), haar_unitary(M, rng)
    I, J = algebra._split_candidates(la, lb)
    want = sorted((i, j) for i in range(N) for j in range(M) if la[i] == lb[j])
    assert sorted(zip(I.tolist(), J.tolist())) == want
    cands = np.einsum("ac,bc->cab", za[:, I], zb[:, J].conj())
    for a, b in [(random_matrix(rng, N), random_matrix(rng, M)),
                 (za @ np.diag(la) @ dagger(za), random_matrix(rng, M))]:
        img = (a @ cands - cands @ b).reshape(len(I), -1)
        dense = img.conj() @ img.T
        got = algebra._split_gram(za, zb, I, J, a, b)
        assert np.abs(got - dense).max() < 1e-12 * np.abs(dense).max()
    # the commutant frame: one eigenbasis and the same matrix on both sides
    if N == M:
        a = random_matrix(rng, N)
        got = algebra._split_gram(za, za, I, J, a, a)
        cands_a = np.einsum("ac,bc->cab", za[:, I], za[:, J].conj())
        img = (a @ cands_a - cands_a @ a).reshape(len(I), -1)
        assert np.abs(got - img.conj() @ img.T).max() < 1e-12 * np.abs(got).max()
    X = algebra._split_basis(np.eye(len(I)), za, zb, I, J)
    assert np.abs(X - cands).max() < 1e-14


def dense_restrict_reference(pairs, N, M):
    """{X: aX = Xb over pairs} by the dense route: start from all N*M
    matrix units, and per pair take the null space of the Gram matrix of
    the dense images, with the solver's cut."""
    basis = np.eye(N * M, dtype=complex).reshape(-1, N, M)
    for a, b in pairs:
        if basis.shape[0] == 0:
            break
        img = (a @ basis - basis @ b).reshape(basis.shape[0], -1)
        G = img.conj() @ img.T
        w, V = np.linalg.eigh((G + dagger(G)) / 2)
        scale = max(1.0, np.linalg.norm(a, 2), np.linalg.norm(b, 2))
        cut = max((algebra.SOLVE_TOL * scale) ** 2, 1e-13 * max(w[-1], 1.0))
        basis = np.einsum("rij,rp->pij", basis, V[:, w <= cut])
    return basis


def smallest_principal_cosine(x, y):
    qx = x.reshape(x.shape[0], -1).T
    qy = y.reshape(y.shape[0], -1).T
    return float(np.linalg.svd(qx.conj().T @ qy, compute_uv=False).min())


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["permuted", "diagonal", "haar"]),
       n=st.integers(1, 6), count=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_staged_solves_match_the_dense_restrict(kind, n, count, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        mats += _structured_set(kind, n, rng)
    got = commutant(mats).basis
    want = dense_restrict_reference([(g, g) for g in algebra._with_adjoints(mats)], n, n)
    assert got.shape == want.shape
    assert smallest_principal_cosine(got, want) >= 1 - 1e-12
    # intertwiners from the conjugated copy w g w* to g: w times the commutant
    w = haar_unitary(n, rng)
    pairs = []
    for g in mats:
        pairs += [(w @ g @ dagger(w), g), (w @ dagger(g) @ dagger(w), dagger(g))]
    got = intertwiner_space(pairs)
    want = dense_restrict_reference(pairs, n, n)
    assert got.shape == want.shape
    assert smallest_principal_cosine(got, want) >= 1 - 1e-12


def test_a_split_above_the_candidate_cap_is_refused():
    # the identity splits nothing: one eigenvalue group of 55, so
    # 55^2 = 3025 candidates, past _CANDIDATE_CAP
    assert 54 ** 2 <= algebra._CANDIDATE_CAP < 55 ** 2
    with pytest.raises(RuntimeError, match="spectral split too coarse"):
        commutant([np.eye(55, dtype=complex)])
    with pytest.raises(RuntimeError, match="spectral split too coarse"):
        intertwiner_space([(np.eye(55), np.eye(55))])


def test_conjugation_fixed_dimension_of_a_noisy_scalar():
    # every entry of u (x) conj(u) - I is rounding noise; the absolute floor
    # keeps the cut from pruning them as if they were constraints
    w = np.exp(2j * np.pi / 3)
    assert conjugation_fixed_dimension(np.diag([w, w, w])) == 9


def test_conjugation_fixed_dimension_of_phase_flip():
    v = np.diag([1.0, -1.0]).astype(complex)
    assert conjugation_fixed_dimension(v) == 2
    w = np.diag([1.0, 1.0, -1.0]).astype(complex)
    assert conjugation_fixed_dimension(w) == 5


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


def test_intertwiner_space_pairs_only_equal_eigenvalues():
    # aX = Xb for diagonal a, b leaves X_ij free exactly where a_i = b_j
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.diag([2.0, 3.0, 4.0]).astype(complex)
    space = intertwiner_space([(a, b)])
    support = np.abs(space).sum(axis=0) > 1e-12
    assert space.shape[0] == 2
    assert np.array_equal(np.argwhere(support), [[1, 0], [2, 1]])
    # disjoint spectra leave nothing
    assert intertwiner_space([(a, a + 10 * np.eye(3))]).shape == (0, 3, 3)


def test_subalgebra_projection_and_residuals():
    alg = SubAlgebra(np.array([matrix_unit(0, 0, 2), matrix_unit(1, 1, 2)]))
    x = np.array([[2.0, 5.0], [7.0, 3.0]], dtype=complex)
    px = alg.project(x)
    assert np.abs(px - np.diag([2.0, 3.0])).max() < 1e-12
    assert alg.span_residual(np.diag([1.0, 9.0]).astype(complex)) < 1e-12
    assert alg.span_residual(matrix_unit(0, 1, 2)) > 0.5
