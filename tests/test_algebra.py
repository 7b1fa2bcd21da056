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
    intertwiner_space,
    minimal_central_projections,
)
from measurelab.scenarios import tensor_power_report
from measurelab.uhf import gamma_step, surrogate_commutant, symmetry_map, symmetry_unitary

from helpers import frame


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
    op = scipy.sparse.coo_array(
        scipy.sparse.kron(u, u.conj()) - scipy.sparse.identity(u.shape[0] ** 2))
    op.sum_duplicates()
    op.eliminate_zeros()
    return algebra._null_dimension(op.row, op.col, op.data, op.shape)


def project(s, x):
    """Orthogonal projection of x on the span of s, taken densely over the
    orthonormal s.basis."""
    B = s.basis.reshape(s.dim, -1)
    return ((B.conj() @ np.ravel(x)) @ B).reshape(np.shape(x))


def span_residual(s, x):
    return frob(x - project(s, x))


def dense_generators(step):
    """The step's shift and corner images as dense matrices."""
    m = step.source_dim
    return [step(cyclic_shift(m)), step(matrix_unit(0, 0, m))]


def test_full_and_scalar_algebras():
    full = commutant([np.eye(2)])
    assert full.dim == 4
    units = [matrix_unit(i, j, 2) for i in range(2) for j in range(2)]
    assert np.array_equal(full.basis, units)
    assert commutant(list(full.basis)).dim == 1
    # a span is no constraint set: its basis is
    with pytest.raises(TypeError):
        commutant(full)


def test_single_offdiagonal_unit_generates_everything():
    # the double commutant of {e12} is the algebra it generates
    alg = commutant(list(commutant([matrix_unit(0, 1, 2)]).basis))
    assert alg.dim == 4
    assert span_residual(alg, np.array([[0.3, 0.0], [1.0, 2.0]])) < 1e-10


def test_commutant_of_signature_diagonal():
    d = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    alg = commutant([d])
    assert alg.dim == 8
    assert alg.dim == commutant_dim_svd_oracle([d], 4)
    # block pattern: anything mixing the two eigenvalue groups is excluded
    assert span_residual(alg, matrix_unit(0, 3, 4)) < 1e-10
    assert span_residual(alg, matrix_unit(0, 1, 4)) > 0.5


def test_commutant_of_left_factor():
    gens = [tensor(matrix_unit(i, j, 2), np.eye(3)) for i in range(2) for j in range(2)]
    alg = commutant(gens)
    assert alg.dim == 9
    assert span_residual(alg, tensor(np.eye(2), matrix_unit(1, 2, 3))) < 1e-10


def test_double_commutant_closes_the_generated_algebra():
    # a cyclic shift and a diagonal of distinct entries generate all of M_4
    gens = [cyclic_shift(4), np.diag([1.0, 2.0, 3.0, 5.0]).astype(complex)]
    assert commutant(gens).dim == 1
    again = commutant(list(commutant(gens).basis))
    assert again.dim == 16
    for g in gens:
        assert span_residual(again, g) < 1e-10 * frob(g)


def two_block_algebra():
    """M2 (+) M2 embedded block-diagonally in 4x4, blocks free, with its
    matrix units as the frame, (i, j, block) row-major."""
    labels = np.full((4, 4), -1)
    for i in range(2):
        for j in range(2):
            for b, off in enumerate((0, 2)):
                labels[off + i, off + j] = (2 * i + j) * 2 + b
    return frame(labels, (labels >= 0).astype(float))


def unit_frame(units, N):
    """The frame of single matrix units e_ij, in the order of units."""
    labels = np.full((N, N), -1)
    for p, (i, j) in enumerate(units):
        labels[i, j] = p
    return frame(labels, (labels >= 0).astype(float))


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
    # a copy of M_2 with no step: restricted by its basis
    ("(2,3) plain surrogate", lambda: surrogate_commutant(
        gamma_step(2, 3).image_subalgebra()), 1),
])
def test_center_matches_the_dense_intersection(name, build, want):
    s = build()
    ref = intersection_reference(s, commutant(list(s.basis)))
    assert ref.shape[0] == want
    z = center(s)
    assert z.dim == ref.shape[0]
    assert np.allclose(np.einsum("pij,qij->pq", z.basis.conj(), z.basis),
                       np.eye(z.dim), atol=1e-10)
    for c in z.basis:
        assert span_residual(s, c) < 1e-9
        for b in s.basis:
            assert frob(c @ b - b @ c) < 1e-9
    for c in ref:
        assert span_residual(z, c) < 1e-9 * max(1.0, frob(c))


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
    alg = unit_frame(units, 4)
    projs = minimal_central_projections(alg)
    ranks = [round(float(np.trace(p).real)) for p in projs]
    # larger blocks come first
    assert ranks == sorted(ranks, reverse=True)


def test_staged_commutant_agrees_with_oracle_on_randoms():
    rng = np.random.default_rng(1)
    for n, kinds in [(3, ["phased"]), (4, ["phased", "partial"]), (6, ["partial", "diagonal"])]:
        gens = monomial_set(kinds, n, rng)
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
    # a 6-cycle has six distinct eigenvalues, as a Haar unitary has
    shift = tensor(cyclic_shift(6), np.eye(6))
    assert commutant([shift]).dim == commutant_dimension_bruteforce([shift]) == 216


def test_bruteforce_ranks_a_wide_dense_block_by_one_svd(monkeypatch):
    # a Haar unitary has no zero pattern to split on: u and u* stack into
    # one block of 2 * 33^2 rows and 33^2 = 1089 columns, ranked by one
    # complex SVD under the cut every narrower block takes
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    u = haar_unitary(33, np.random.default_rng(4))
    assert commutant_dimension_bruteforce([u]) == 33
    assert calls == [(2178, 1089)]


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
@given(kinds=st.lists(st.sampled_from(["phased", "partial", "diagonal"]), min_size=1, max_size=3),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_intertwiner_space_of_equal_pairs_is_the_commutant(kinds, n, seed):
    # {X: gX = Xg, g*X = Xg*} over a set is its commutant; the intertwiner
    # space takes row links from the left and column links from the right
    # matrix of each pair, the oracle reads no structure but zero patterns
    rng = np.random.default_rng(seed)
    mats = monomial_set(kinds, n, rng)
    pairs = []
    for g in mats:
        pairs += [(g, g), (dagger(g), dagger(g))]
    space = intertwiner_space(pairs)
    assert space.shape == (commutant_dimension_bruteforce(mats), n, n)
    for x in space:
        for g in mats:
            assert frob(g @ x - x @ g) < 1e-12


def test_bruteforce_uses_no_spectral_split(monkeypatch):
    step = gamma_step(2, 3)
    m = step.source_dim
    gens = [step(cyclic_shift(m)), step(matrix_unit(0, 0, m)),
            symmetry_unitary(2, 3)]
    rng = np.random.default_rng(5)
    u = tensor(haar_unitary(2, rng), np.eye(3))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use a spectral split")

    for name in ("commutant", "center", "intertwiner_space", "_structure",
                 "_product", "_coalesce", "_blocks", "_null_rows", "_central_projections",
                 "_index_maps", "_orbit_equations", "_orbit_union", "_orbit_commutant"):
        monkeypatch.setattr(algebra, name, forbidden)
    for mod in (np.linalg, scipy.linalg):
        for name in ("eigh", "eig"):
            monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    assert commutant_dimension_bruteforce(gens) == 2
    assert conjugation_fixed_dimension(u) == 18


def ladder_constraint_sets():
    """Surrogate constraint sets, plain and with the symmetry, and a tensor
    power's: every one holds constraints that seed the split."""
    sets = []
    for k, n in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)]:
        gens = dense_generators(gamma_step(k, n))
        sets += [gens, gens + [symmetry_unitary(k, n)]]
    placed = dense_generators(gamma_step(2, 2)) + [symmetry_unitary(2, 2)]
    sets.append([tensor(g, np.eye(4)) for g in placed]
                + [tensor(np.eye(4), g) for g in placed])
    return sets


def phased_permutation(n, rng):
    """A random permutation matrix with phases from the fourth roots of unity."""
    w = np.zeros((n, n), dtype=complex)
    w[rng.permutation(n), np.arange(n)] = 1j ** rng.integers(0, 4, n)
    return w


def test_verification_catches_an_element_off_the_commutant(monkeypatch):
    # a union-find that reports no broken link keeps the component of a
    # cycle whose phases do not close; with S and S diag(1, 1, i) only the
    # scalars commute, and the kept element does not
    union = algebra._orbit_union

    def no_broken_links(p, w, u, v, ratio):
        return union(p, w, u, v, ratio)[:0]

    cons = [cyclic_shift(3), cyclic_shift(3) @ np.diag([1, 1, 1j])]
    assert commutant(cons).dim == 1 == commutant_dimension_bruteforce(cons)
    monkeypatch.setattr(algebra, "_orbit_union", no_broken_links)
    with pytest.raises(RuntimeError, match="commutant verification failed"):
        commutant(cons)


def test_center_catches_a_pair_planted_at_the_last_index_pair():
    # every pair commutes but the last, sigma_x/sqrt2 and sigma_z/sqrt2 on
    # the first two basis vectors, which have disjoint supports; their
    # product -i sigma_y/2 leaves the span, so the product check refuses it
    # where a test of the first pairs would take the span for abelian
    labels = np.array([[3, 2, -1, -1], [2, 3, -1, -1], [-1, -1, 0, -1], [-1, -1, -1, 1]])
    values = np.diag([1, -1, 1, 1]) + (labels == 2)
    values = values / np.sqrt(np.where(labels >= 2, 2.0, 1.0))
    with pytest.raises(RuntimeError, match="center verification failed"):
        center(frame(labels, values))
    # closed by the matrix units of M_2, with e_01 and e_10 last: the center
    # is cut to e_00 + e_11, e_22 and e_33
    s = unit_frame([(2, 2), (3, 3), (0, 0), (1, 1), (0, 1), (1, 0)], 4)
    z = center(s)
    assert z is not s and z.dim == 3
    assert span_residual(s, np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12
    assert span_residual(z, np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12


@settings(max_examples=25, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       min_size=2, max_size=3, unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_commutant_of_a_conjugated_block_algebra(blocks, seed):
    # A = (+)_i M_{d_i} (x) 1_{m_i}, conjugated by a phased permutation, has
    # the commutant (+)_i 1_{d_i} (x) M_{m_i}, of dimension sum m_i^2; the
    # blocks' cyclic shifts and a diagonal of distinct entries generate A
    N = sum(d * m for d, m in blocks)
    rng = np.random.default_rng(seed)
    w = phased_permutation(N, rng)
    shift = scipy.linalg.block_diag(*[tensor(cyclic_shift(d), np.eye(m)) for d, m in blocks])
    labels = np.repeat(np.arange(sum(d for d, _ in blocks)), [m for d, m in blocks for _ in range(d)])
    gens = [w @ g @ dagger(w) for g in (shift, np.diag(labels + 1.0))]
    alg = commutant(gens)
    assert alg.dim == sum(m * m for _, m in blocks) == commutant_dimension_bruteforce(gens)
    for x in alg.basis:
        for g in gens:
            assert frob(x @ g - g @ x) < 1e-9 * frob(g)


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
@given(kinds=st.lists(st.sampled_from(["phased", "partial", "diagonal"]), min_size=1, max_size=2),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_staged_solves_match_the_dense_restrict(kinds, n, seed):
    rng = np.random.default_rng(seed)
    mats = monomial_set(kinds, n, rng)
    got = commutant(mats).basis
    want = dense_restrict_reference([(h, h) for g in mats for h in (g, dagger(g))], n, n)
    assert got.shape == want.shape
    assert smallest_principal_cosine(got, want) >= 1 - 1e-12
    # intertwiners from the conjugated copy w g w* to g: w times the commutant
    w = phased_permutation(n, rng)
    pairs = []
    for g in mats:
        pairs += [(w @ g @ dagger(w), g), (w @ dagger(g) @ dagger(w), dagger(g))]
    got = intertwiner_space(pairs)
    want = dense_restrict_reference(pairs, n, n)
    assert got.shape == want.shape
    assert smallest_principal_cosine(got, want) >= 1 - 1e-12


@pytest.mark.parametrize("n", [16, 512])
def test_a_gram_eigenvalue_just_above_the_floor_is_cut(n):
    # one row sqrt(1.05e-13) v* over n columns: its Gram 1.05e-13 v v* has
    # ||G||_F = 1.05e-13, past the skip bound, so the eigenvalue meets the
    # cut 1e-13 and its vector goes
    rng = np.random.default_rng(12)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    got = algebra._null_rows(np.zeros(n, dtype=int), np.arange(n), np.sqrt(1.05e-13) * v.conj(), n)
    assert got.shape == (n - 1, n)
    assert np.abs(got.conj() @ v).max() < 1e-12


def test_one_cut_serves_every_component():
    # a 1x2 component on columns 0 and 2 with Gram eigenvalues 0 and 2e4, and
    # a 1x1 one on column 1 with 1e-10: the cut 1e-13 * 2e4 is set over all
    # blocks, so column 1 is null, and so is column 3, which no row reads
    got = algebra._null_rows(np.array([0, 0, 1]), np.array([0, 2, 1]),
                             np.array([100, 100, 1e-5 + 0j]), 4)
    v = np.array([1, 0, 1, 0]) / np.sqrt(2)
    assert got.shape == (3, 4)
    assert np.abs(got.conj().T @ got - (np.eye(4) - np.outer(v, v))).max() < 1e-12


def test_a_gram_below_the_floor_cuts_nothing(monkeypatch):
    # A = sqrt(1e-14 diag(x)), so A*A = 1e-14 diag(x): every eigenvalue is
    # at most ||A*A||_F <= 1e-13, at or below every cut, though ||A||_F^2
    # is above it; nothing is cut, and no eigensolve runs
    def forbidden(*args, **kwargs):
        raise AssertionError("a Gram below the floor needs no eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    x = np.random.default_rng(13).random(20)
    assert 1e-14 * x.sum() > 1e-13
    assert algebra._null_rows(np.arange(20), np.arange(20), np.sqrt(1e-14 * x) + 0j, 20) is None


@settings(max_examples=60, deadline=None)
@given(height=st.integers(1, 12), width=st.integers(1, 12), count=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_are_the_connected_components_scipy_finds(height, width, count, seed):
    # random triplets, the first (row, col) pair drawn at least twice: the
    # blocks partition the entries, share no row or column, each is the
    # dense matrix on its nodes, and their nodes are scipy's components
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(seed)
    rows, cols = (np.append(x, x[0]) for x in (rng.integers(0, height, count),
                                               rng.integers(0, width, count)))
    count += 1
    vals = rng.normal(size=count) + 1j * rng.normal(size=count)
    dense = np.zeros((height, width), dtype=complex)
    np.add.at(dense, (rows, cols), vals)
    graph = scipy.sparse.coo_array((np.ones(count), (rows, height + cols)),
                                   shape=(height + width,) * 2)
    labels = connected_components(graph, directed=False)[1]
    seen_rows, seen_cols, comps, entries = [], [], [], 0
    for C, B in algebra._blocks(rows, cols, vals):
        assert C.shape == (B.shape[0], B.shape[2])
        for c, b in zip(C, B):
            at = np.isin(cols, c)
            r = np.unique(rows[at])
            entries += at.sum()
            seen_rows += list(r)
            seen_cols += list(c)
            comps.append(set(labels[height + c]) | set(labels[r]))
            assert np.array_equal(c, np.sort(c))
            assert np.array_equal(b, dense[np.ix_(r, c)])
    assert entries == count
    assert sorted(seen_rows) == list(np.unique(rows))
    assert sorted(seen_cols) == list(np.unique(cols))
    assert all(len(x) == 1 for x in comps)
    assert len(set.union(*comps)) == len(comps) == len(np.unique(labels[rows]))


def test_no_eigensolve_outgrows_its_component(monkeypatch):
    # the (2,1,8) tensor-power surrogate's center splits into 256 singletons,
    # solved by one stacked call; the (3,4) image's largest component is 27
    sides, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sides.append(a.shape) or eigh(a))
    assert tensor_power_report(2, 1, 8).all_pass
    assert sides == [(256, 1, 1)]
    sides.clear()
    assert center(gamma_step(3, 4).image_subalgebra()).dim == 1
    assert max(shape[-1] for shape in sides) == 27


@pytest.mark.parametrize("n", [12, 16, 30])
def test_a_scalar_constraint_constrains_nothing(n):
    # with the identity, or a multiple of it, in the set, a nilpotent phased
    # shift J and its adjoint, which generate M_n, leave only the scalars
    rng = np.random.default_rng(n)
    J = np.diag(1j ** rng.integers(0, 4, n - 1), 1)
    for scalar in (np.eye(n), 2.5 * np.eye(n)):
        cons = [scalar, J]
        assert commutant(cons).dim == 1 == commutant_dimension_bruteforce(cons)
    full = commutant([np.eye(8)])
    assert (full.dim, full.ambient_dim) == (64, 8)


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
    # pairs (a, b) carve out {X: a X = X b}; a shift and a diagonal of
    # distinct entries leave only the scalars in their commutant, so the
    # space from them to their conjugates by u is spanned by u
    u = phased_permutation(3, np.random.default_rng(3))
    hs = (cyclic_shift(3), np.diag([1.0, 2.0, 4.0]).astype(complex))
    space = intertwiner_space([(u @ h @ dagger(u), h) for h in hs])
    assert space.shape[0] == 1
    # the span's unit-norm element is the conjugator over sqrt(3), up to a
    # phase
    got = space[0] * np.sqrt(3)
    for h in hs:
        assert frob(got @ h - (u @ h @ dagger(u)) @ got) < 1e-9
    assert frob(got @ dagger(got) - np.eye(3)) < 1e-10
    assert abs(np.vdot(u, got)) == pytest.approx(3)


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
    # an empty row of a kills its row of X, while the other row stays free:
    # the verification's sums see dead entries on one side of a pair only
    space = intertwiner_space([(np.diag([1.0, 0.0]), np.eye(2))])
    assert space.shape == (2, 2, 2) and not space[:, 1].any()


def test_subalgebra_projection_and_residuals():
    alg = unit_frame([(0, 0), (1, 1)], 2)
    x = np.array([[2.0, 5.0], [7.0, 3.0]], dtype=complex)
    px = project(alg, x)
    assert np.abs(px - np.diag([2.0, 3.0])).max() < 1e-12
    assert span_residual(alg, np.diag([1.0, 9.0]).astype(complex)) < 1e-12
    assert span_residual(alg, matrix_unit(0, 1, 2)) > 0.5


# ---------------------------------------------------------------------------
# the orbit route: monomial constraint sets
# ---------------------------------------------------------------------------

def scattered_units(step, mutation=None):
    """W_i W_j* for i, j < k, row-major in (i, j), scattered from the step's
    index map: W_i W_j* e_{rows[j, q]} = phases[i, q] conj(phases[j, q])
    e_{rows[i, q]}. mutation plants one of three slips in the scatter."""
    k, m, N = step.k, step.source_dim, step.target_dim
    rows, phases = step.rows, step.phases
    if mutation == "rows.T":
        rows = rows.T.reshape(k, m)
    units = np.zeros((k, k, N, N), dtype=complex)
    for i in range(k):
        for j in range(k):
            src, dst = (rows[i], rows[j]) if mutation == "swap" else (rows[j], rows[i])
            conj = phases[j] if mutation == "no conjugate" else phases[j].conj()
            units[i, j, dst, src] = phases[i] * conj
    return units.reshape(k * k, N, N)


def closed_form_defect(step, mutation=None):
    """How far the scattered W_i W_j* are from the products of the dense
    isometries, unit by unit, and their span from the plain surrogate's."""
    units = scattered_units(step, mutation)
    N = step.target_dim
    W = np.eye(N, dtype=complex)[step.rows].swapaxes(1, 2) * step.phases[:, None, :]
    dense = np.einsum("iam,jbm->ijab", W, W.conj()).reshape(units.shape)
    plain = surrogate_commutant(step.image_subalgebra())
    return max(np.abs(units - dense).max(),
               1 - smallest_principal_cosine(plain.basis, units))


@pytest.mark.parametrize("flavor", ["natural", "generic"])
@pytest.mark.parametrize("k,n", [(2, 2), (2, 4), (3, 3), (4, 2), (4, 3)])
def test_the_surrogates_are_the_scattered_closed_form(k, n, flavor):
    step = gamma_step(k, n, flavor)
    assert closed_form_defect(step) < 1e-12
    # with the symmetry adjoined: the digit classes W_j W_j*
    img = step.image_subalgebra()
    sym = surrogate_commutant(img, adjoin_symmetry=True)
    classes = np.array([np.diag((step.meter() == j).astype(complex)) for j in range(k)])
    assert sym.dim == k
    assert smallest_principal_cosine(sym.basis, classes) >= 1 - 1e-12


@pytest.mark.parametrize("mutation", ["swap", "no conjugate", "rows.T"])
def test_a_slip_in_the_closed_form_scatter_is_caught(mutation):
    assert closed_form_defect(gamma_step(3, 3, "generic"), mutation) > 0.1


def monomial_set(kinds, n, rng):
    """Phased permutations, partial permutations (phased, some columns
    empty) and 0/1 diagonals, with phases from the fourth roots of unity so
    that the orbit potentials meet and cancel."""
    out = []
    for kind in kinds:
        g = np.zeros((n, n), dtype=complex)
        if kind == "diagonal":
            g[np.diag_indices(n)] = rng.integers(0, 2, n)
        else:
            cols = np.flatnonzero(rng.random(n) < 0.7) if kind == "partial" else np.arange(n)
            g[rng.permutation(n)[:cols.size], cols] = 1j ** rng.integers(0, 4, cols.size)
        out.append(g)
    return out


def _triplet_sets():
    rng = np.random.default_rng(7)
    mono = monomial_set(["phased", "partial", "diagonal", "phased"], 6, rng)
    u = haar_unitary(6, rng)
    return {
        "monomial": mono,
        "haar-rotated": [u @ g @ dagger(u) for g in mono],
        # equal diagonal entries cancel on the operator's diagonal
        "repeated-diagonal": [np.diag([1, 1, -1, 2j, 2j, 1]).astype(complex),
                              np.diag([0, 0, 3, 3, 0, 3]).astype(complex)],
    }


@pytest.mark.parametrize("kind", ["monomial", "haar-rotated", "repeated-diagonal"])
def test_stacked_triplets_are_the_dense_stacked_operator(kind):
    cons = _triplet_sets()[kind]
    eye = np.eye(cons[0].shape[0])
    want = np.vstack([np.kron(b, eye) - np.kron(eye, b.T) for b in cons])
    rows, cols, vals, shape = algebra._stacked_triplets(cons)
    assert shape == want.shape
    got = np.zeros(shape, dtype=complex)
    got[rows, cols] = vals
    assert np.array_equal(got, want)
    # no (row, col) pair twice and no stored exact zero
    assert np.unique(rows * shape[1] + cols).size == rows.size
    assert np.all(vals != 0)


def test_pruning_cascades_through_the_rows_it_leaves_single(monkeypatch):
    # row 0 pins x0; without x0, row 1 holds x1 alone and pins it, and then
    # row 2 pins x2: no block is left to rank and x3 is free
    def forbidden(*args, **kwargs):
        raise AssertionError("the cascade must prune every row")

    A = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0]], dtype=complex)
    rows, cols = np.nonzero(A)
    monkeypatch.setattr(algebra, "_block_null", forbidden)
    assert algebra._null_dimension(rows, cols, A[rows, cols], A.shape) == 1


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(["phased", "partial", "diagonal"]), min_size=1, max_size=3),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_the_orbit_route_matches_the_oracle_and_the_spectral_route(kinds, n, seed):
    rng = np.random.default_rng(seed)
    mats = monomial_set(kinds, n, rng)
    assert len(algebra._index_maps(mats, "commutant")[0]) == len(mats)
    got = commutant(mats)
    assert got.dim == commutant_dimension_bruteforce(mats)
    assert np.abs(np.einsum("pij,qij->pq", got.basis.conj(), got.basis)
                  - np.eye(got.dim)).max(initial=0.0) < 1e-14


def normal_set(kinds, n, rng):
    """Normal monomial maps, mostly not Hermitian: phased permutations,
    diagonals of moduli 1 and 2, and a scaled phased permutation of a
    subset of the indices, zero elsewhere."""
    out = []
    for kind in kinds:
        g = np.zeros((n, n), dtype=complex)
        cols = np.flatnonzero(rng.random(n) < 0.7) if kind == "partial" else np.arange(n)
        rows = cols if kind == "diagonal" else rng.permutation(cols)
        vals = 1j ** rng.integers(0, 4, cols.size)
        g[rows, cols] = vals * (rng.integers(1, 3, cols.size) if kind == "diagonal"
                                else rng.integers(1, 3))
        out.append(g)
    return out


def solved_map_counts(cons):
    """(number of maps commutant hands the orbit solver, the commutant)."""
    seen = []
    solve = algebra._orbit_commutant
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_orbit_commutant",
                   lambda monos, *args: seen.append(len(monos)) or solve(monos, *args))
        got = commutant(cons)
    return seen, got


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["phased", "diagonal", "partial"]), min_size=1, max_size=3),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_a_normal_constraint_is_solved_without_its_adjoint(kinds, n, seed):
    # whatever commutes with a normal g commutes with g* (Fuglede), so the
    # adjoints change neither the span nor its frame
    mats = normal_set(kinds, n, np.random.default_rng(seed))
    seen, got = solved_map_counts(mats)
    scalars = sum(np.array_equal(g, g[0, 0] * np.eye(n)) for g in mats)
    assert seen == [len(mats) - scalars]
    both = commutant(mats + [dagger(g) for g in mats])
    for f in ("idx", "lab", "val"):
        assert np.array_equal(getattr(got, f), getattr(both, f))
    assert got.dim == commutant_dimension_bruteforce(mats)


@pytest.mark.parametrize("mats, solved, dim", [
    ([np.diag([1, 2j, 0])], 1, 3),
    ([cyclic_shift(3) * 1j, np.diag([1, 2j, 0])], 2, 1),
    ([matrix_unit(0, 1, 2)], 2, 1),
    ([np.eye(3, k=1)], 2, 1),
    ([np.diag([1, 2j, 0]), np.eye(3, k=1)], 3, 1),
], ids=["diag(1, 2j, 0)", "phased shift", "e_01", "partial shift", "normal and not"])
def test_only_a_non_normal_constraint_gets_its_adjoint(mats, solved, dim):
    mats = [np.asarray(g, dtype=complex) for g in mats]
    seen, got = solved_map_counts(mats)
    assert seen == [solved]
    assert got.dim == dim == commutant_dimension_bruteforce(mats)


def test_the_symmetric_surrogate_links_only_its_shift(monkeypatch):
    # shift, corner and symmetry: the corner and the symmetry are diagonal
    # and form no link, and the normal shift and symmetry add no adjoint
    links = []
    union = algebra._orbit_union
    monkeypatch.setattr(algebra, "_orbit_union",
                        lambda p, w, u, *rest: links.append(len(u)) or union(p, w, u, *rest))
    seen, got = solved_map_counts(gamma_step(3, 3).generators() + [symmetry_map(3, 3)])
    assert (seen, got.dim) == ([3], 3)
    assert links == [27 * 27]


def test_the_orbit_route_runs_no_spectral_split(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a commutant must take no Gram null space or eigensolve")

    for name in ("_null_rows", "_blocks", "_structure", "_product",
                 "_central_projections"):
        monkeypatch.setattr(algebra, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for cons in ladder_constraint_sets():
        assert commutant(cons).dim == commutant_dimension_bruteforce(cons)


def _no_kills(equations):
    return lambda mono: (np.zeros(0, dtype=int),) + equations(mono)[1:]


def _no_links(equations):
    def planted(mono):
        killed, u, v, ratio = equations(mono)
        return killed, u[:0], v[:0], ratio[:0]
    return planted


def _no_phases(equations):
    def planted(mono):
        killed, u, v, ratio = equations(mono)
        return killed, u, v, np.abs(ratio)
    return planted


def _moduli_on_links(equations):
    # phi -> |phi| on the link blocks: the same links with ratios alpha / |phi|
    def planted(mono):
        sigma, alpha, pi, phi = mono
        return equations(mono)[:1] + equations((sigma, alpha, pi, np.abs(phi)))[1:]
    return planted


def _swapped_link_block(equations):
    # u and v trade places on the first link block, moving rows x live columns
    def planted(mono):
        killed, u, v, ratio = equations(mono)
        sigma, alpha, pi, phi = mono
        moving = (alpha != 0) & (sigma != np.arange(len(sigma)))
        n = np.count_nonzero(moving) * np.count_nonzero(phi)
        return killed, np.concatenate([v[:n], u[n:]]), np.concatenate([u[:n], v[n:]]), ratio
    return planted


def _no_loop_kills(equations):
    # a self-loop, sigma_a = a and pi_j = j, kills nothing
    def planted(mono):
        killed, u, v, ratio = equations(mono)
        sigma, alpha, pi, phi = mono
        a, j = np.divmod(killed, len(sigma))
        loop = (alpha[a] != 0) & (sigma[a] == a) & (phi[j] != 0) & (pi[j] == j)
        return killed[~loop], u, v, ratio
    return planted


@pytest.mark.parametrize("fault", [_no_kills, _no_links, _no_phases, _moduli_on_links])
def test_a_planted_orbit_fault_fails_verification(monkeypatch, fault):
    # the generic flavor's shift image links entries by phases other than 1
    monkeypatch.setattr(algebra, "_orbit_equations", fault(algebra._orbit_equations))
    with pytest.raises(RuntimeError, match="commutant verification failed"):
        commutant(dense_generators(gamma_step(3, 3, "generic")))


@pytest.mark.parametrize("fault", [_no_kills, _no_links, _no_phases, _moduli_on_links])
def test_a_planted_pair_equation_fault_fails_intertwiner_verification(monkeypatch, fault):
    # intertwiners to the generic step's generators from their conjugates
    # by a phased permutation w: w times their 9-element commutant
    shift, corner = dense_generators(gamma_step(3, 3, "generic"))
    gens = [shift, dagger(shift), corner]
    w = phased_permutation(27, np.random.default_rng(7))
    pairs = [(w @ g @ dagger(w), g) for g in gens]
    assert intertwiner_space(pairs).shape == (9, 27, 27)
    monkeypatch.setattr(algebra, "_orbit_equations", fault(algebra._orbit_equations))
    with pytest.raises(RuntimeError, match="intertwiner verification failed"):
        intertwiner_space(pairs)


@pytest.mark.parametrize("fault, twisted, symmetric", [
    (_swapped_link_block, True, False), (_no_loop_kills, False, True),
], ids=["swapped link block", "self-loops kill nothing"])
def test_a_planted_builder_fault_fails_where_it_changes_an_equation(
        monkeypatch, fault, twisted, symmetric):
    # swapping u and v inverts a link's ratio, which leaves +-1, every ratio
    # of the generic shift, as it is: its conjugates by a phased permutation
    # carry +-i. The corner's self-loops all join 1 to 1; the symmetry's kill
    shift, corner = dense_generators(gamma_step(3, 3, "generic"))
    gens = [shift, corner] + [symmetry_unitary(3, 3)] * symmetric
    w = phased_permutation(27, np.random.default_rng(7)) if twisted else np.eye(27)
    cons = [w @ g @ dagger(w) for g in gens]
    pairs = [(w @ g @ dagger(w), g) for g in gens + [dagger(shift)]]
    assert commutant(cons).dim == len(intertwiner_space(pairs)) == (3 if symmetric else 9)
    monkeypatch.setattr(algebra, "_orbit_equations", fault(algebra._orbit_equations))
    with pytest.raises(RuntimeError, match="commutant verification failed"):
        commutant(cons)
    with pytest.raises(RuntimeError, match="intertwiner verification failed"):
        intertwiner_space(pairs)


def _one_phase_flipped(residual, at):
    """_orbit_residual on the result with one live entry's value times i:
    the element keeps unit norm, but its entries no longer agree."""
    def planted(pairs, N, idx, lab, val):
        val = val.copy()
        val[at(lab)] *= 1j
        return residual(pairs, N, idx, lab, val)
    return planted


FLIPS = {"first entry": lambda lab: 0,
         "last entry": lambda lab: len(lab) - 1,
         "last entry of element 1": lambda lab: np.flatnonzero(lab == 1)[-1]}


@pytest.mark.parametrize("flip", FLIPS)
@pytest.mark.parametrize("flavor", ["natural", "generic"])
def test_a_phase_flipped_on_one_live_entry_fails_verification(monkeypatch, flavor, flip):
    # every element of the (3,3) plain surrogate has 9 live entries, so a
    # flipped phase breaks the element's commutation with the shift
    cons = gamma_step(3, 3, flavor).generators()
    maps = [(m, m) for m in algebra._index_maps(cons, "commutant")[0]]
    idx, lab, val = algebra._orbit_commutant(maps, 27, "commutant")
    assert algebra._orbit_residual(maps, 27, idx, lab, val) < 1e-12
    assert np.bincount(lab).min() > 1
    flipped = val.copy()
    flipped[FLIPS[flip](lab)] *= 1j
    assert algebra._orbit_residual(maps, 27, idx, lab, flipped) > 0.1
    monkeypatch.setattr(algebra, "_orbit_residual",
                        _one_phase_flipped(algebra._orbit_residual, FLIPS[flip]))
    with pytest.raises(RuntimeError, match="commutant verification failed"):
        commutant(cons)
    shift, corner = dense_generators(gamma_step(3, 3, flavor))
    with pytest.raises(RuntimeError, match="intertwiner verification failed"):
        intertwiner_space([(shift, shift), (corner, corner)])


def _frames():
    img = gamma_step(3, 2, "generic").image_subalgebra()
    alg = commutant([np.eye(4)[[1, 0, 2, 3]], np.eye(4)[[1, 2, 0, 3]]])
    return {"image": img, "plain surrogate": surrogate_commutant(img),
            "two blocks": two_block_algebra(), "s3 center": center(alg)}


@pytest.mark.parametrize("name", ["image", "plain surrogate", "two blocks", "s3 center"])
def test_a_frame_from_arrays_and_from_its_live_entries_alike(name):
    s = _frames()[name]
    N = s.ambient_dim
    again = SubAlgebra(N, s.idx, s.lab, s.val, s.coef)
    # the constructor holds the entries it is given, as the library does
    assert again.idx is s.idx and again.lab is s.lab and again.val is s.val
    # the N x N arrays scattered from the entries give the same frame back
    labels, values = np.full(N * N, -1), np.zeros(N * N, dtype=complex)
    labels[s.idx], values[s.idx] = s.lab, s.val
    dense = frame(labels.reshape(N, N), values.reshape(N, N), s.coef)
    for t in (again, dense):
        for f in ("idx", "lab", "val"):
            assert np.array_equal(getattr(t, f), getattr(s, f))
        assert np.array_equal(t.basis, s.basis)
        assert (t.dim, t.ambient_dim) == (s.dim, s.ambient_dim)


@pytest.mark.parametrize("entries", [
    (np.array([1, 0]), np.array([0, 0]), np.ones(2) / np.sqrt(2)),
    (np.array([0, 0]), np.array([0, 0]), np.ones(2) / np.sqrt(2)),
    (np.array([0, 4]), np.array([0, 0]), np.ones(2) / np.sqrt(2)),
    (np.array([-1, 0]), np.array([0, 0]), np.ones(2) / np.sqrt(2)),
    (np.array([0, 3]), np.array([0, -1]), np.ones(2)),
    (np.array([0, 3]), np.array([0]), np.ones(2)),
    (np.array([0.0, 3.0]), np.array([0, 1]), np.ones(2)),
], ids=["descending", "repeated", "past N^2", "negative", "label -1", "lengths differ",
        "float indices"])
def test_live_entries_out_of_order_or_range_are_refused(entries):
    with pytest.raises(ValueError, match="ascending flat indices"):
        SubAlgebra(2, *entries)
    assert SubAlgebra(2, np.array([0, 3]), np.array([0, 1]), np.ones(2)).dim == 2


@pytest.mark.parametrize("mats, match", [
    ([np.diag([1.0, np.nan, 2.0])], "finite"),
    ([np.diag([1.0, np.inf, 2.0])], "finite"),
    ([np.where(cyclic_shift(3) != 0, np.inf, 0)], "finite"),
    ([cyclic_shift(2), cyclic_shift(3)], "one size"),
    ([np.ones((2, 3))], "square"),
    ([np.ones(3)], "square"),
], ids=["nan diagonal", "inf diagonal", "inf shift", "mixed sizes", "2x3", "1-D"])
def test_a_malformed_or_non_finite_set_is_refused(mats, match):
    with pytest.raises(ValueError, match=match):
        commutant(mats)
    with pytest.raises(ValueError, match=match):
        intertwiner_space([(g, g) for g in mats])


def test_a_non_monomial_set_is_refused():
    # a Haar unitary alone, or beside a shift; the oracle still takes such
    # sets
    u = haar_unitary(3, np.random.default_rng(6))
    for mats in ([u], [cyclic_shift(3), u]):
        with pytest.raises(ValueError, match="commutant_dimension_bruteforce"):
            commutant(mats)
        with pytest.raises(ValueError, match="commutant_dimension_bruteforce"):
            intertwiner_space([(g, g) for g in mats])
    with pytest.raises(ValueError, match="monomial"):
        intertwiner_space([(cyclic_shift(3), u)])
    assert commutant_dimension_bruteforce([u]) == 3


def index_map(g):
    """g's index map (cols, vals), read without the library; an empty row
    points at its own index."""
    ar = np.arange(len(g))
    cols = np.where((g != 0).any(axis=1), (g != 0).argmax(axis=1), ar)
    return cols, g[ar, cols]


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(["phased", "partial", "diagonal"]), min_size=1, max_size=3),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_dense_matrices_and_their_index_maps_solve_alike(kinds, n, seed):
    rng = np.random.default_rng(seed)
    mats = monomial_set(kinds, n, rng)
    dense, maps = commutant(mats), commutant([index_map(g) for g in mats])
    for f in ("idx", "lab", "val"):
        assert np.array_equal(getattr(dense, f), getattr(maps, f))
    w = phased_permutation(n, rng)
    pairs = [(w @ g @ dagger(w), g) for g in mats]
    assert np.array_equal(intertwiner_space(pairs),
                          intertwiner_space([(index_map(a), index_map(b)) for a, b in pairs]))


SHIFT3 = (np.array([2, 0, 1]), np.ones(3))


@pytest.mark.parametrize("cons, match", [
    ([SHIFT3, (np.arange(4), np.ones(4))], "one size"),
    ([(np.arange(3), np.ones(2))], "index map"),
    ([SHIFT3, np.eye(4)], "one size"),
    ([(np.arange(3.0), np.ones(3))], "index map"),
    ([(np.array([0, -1, 2]), np.ones(3))], "index map"),
    ([(np.array([0, 1, 3]), np.ones(3))], "index map"),
    ([(np.arange(3), np.array([1.0, np.nan, 1.0]))], "finite"),
    ([(np.arange(3), np.array([1.0, 1.0, np.inf]))], "finite"),
    ([(np.array([0, 0, 2]), np.ones(3))], "monomial"),
], ids=["lengths differ", "cols and vals differ", "map beside a larger matrix",
        "float columns", "negative column", "column past N", "nan value", "inf value",
        "shared column"])
def test_a_malformed_index_map_is_refused(cons, match):
    with pytest.raises(ValueError, match=match):
        commutant(cons)
    with pytest.raises(ValueError, match=match):
        intertwiner_space([(g, g) for g in cons])


def test_an_empty_row_may_share_a_column():
    # row 1 is empty (value 0), so only rows 0 and 2 are live: diag(1, 0, 1)
    # has the commutant M_2 (+) C on {0, 2} and {1}
    assert commutant([(np.array([0, 0, 2]), np.array([1.0, 0.0, 1.0]))]).dim == 5


def test_a_dense_scalar_with_off_diagonal_noise_is_not_monomial():
    # only an exact scalar map is dropped; rounding noise off the diagonal
    # makes a matrix with two nonzeros in a row
    noisy = 2.5 * np.eye(3) + 1e-17 * np.ones((3, 3))
    with pytest.raises(ValueError, match="monomial"):
        commutant([noisy])
    assert commutant([2.5 * np.eye(3)]).dim == 9


def test_reading_the_orbit_dimension_forms_no_basis(monkeypatch):
    calls = []
    scatter = algebra._scatter

    def spy(*args, **kwargs):
        calls.append(1)
        return scatter(*args, **kwargs)

    monkeypatch.setattr(algebra, "_scatter", spy)
    alg = commutant(gamma_step(3, 3).generators())
    assert (alg.dim, alg.ambient_dim) == (9, 27)
    assert calls == []
    assert alg.basis.shape == (9, 27, 27)
    assert calls == [1]


def test_the_5_4_surrogates_and_their_projections():
    # N = 625: surrogates of 25 and 5 elements, and five central projections
    k, n = 5, 4
    img = gamma_step(k, n).image_subalgebra()
    assert surrogate_commutant(img).dim == k * k
    sym = surrogate_commutant(img, adjoin_symmetry=True)
    assert sym.dim == k
    projections = minimal_central_projections(sym)
    assert [round(float(np.trace(e).real)) for e in projections] == [k ** (n - 1)] * k


# ---------------------------------------------------------------------------
# the labelled frame and centers from its structure constants
# ---------------------------------------------------------------------------

DIAG = [[0, -1], [-1, 1]]


@pytest.mark.parametrize("labels, values, coef, match", [
    ([[0, -1], [-1, 2]], np.eye(2), None, "unit norm"),
    ([[0, 0], [-1, 1]], np.eye(2), None, "nonzero"),
    (DIAG, np.diag([1.0, np.nan]), None, "unit norm"),
    (DIAG, np.diag([1.0, np.inf]), None, "unit norm"),
    (DIAG, np.diag([1.0, 2.0]), None, "unit norm"),
    (DIAG, np.eye(2), np.ones((1, 3)), "orthonormal rows"),
    (DIAG, np.eye(2), np.ones(2), "orthonormal rows"),
    (DIAG, np.eye(2), np.ones((1, 2)), "orthonormal rows"),
    (DIAG, np.eye(2), [[1.0, 0.0], [1.0, 0.0]], "orthonormal rows"),
    (DIAG, np.eye(2), [[np.nan, 0.0]], "orthonormal rows"),
], ids=["unused label", "zero value", "nan value", "inf value", "norm 2", "coef width", "1-D coef",
        "coef norm", "coef rows parallel", "nan coef"])
def test_the_constructor_refuses_a_malformed_frame(labels, values, coef, match):
    with pytest.raises(ValueError, match=match):
        frame(labels, values, coef)


def test_a_planted_structure_constant_fault_fails_center_verification():
    # the last entry of a (2,3) image element flips sign, away from the
    # first entry its constants are read at: every element keeps unit norm,
    # but the constants no longer hold at every entry
    img = gamma_step(2, 3).image_subalgebra()
    assert center(img).dim == 1
    val = img.val.copy()
    val[np.flatnonzero(img.lab == 5)[-1]] *= -1
    with pytest.raises(RuntimeError, match="center verification failed"):
        center(SubAlgebra(img.ambient_dim, img.idx, img.lab, val))


def test_a_planted_non_central_row_fails_center_verification(monkeypatch):
    # _null_rows hands back the eigenvector just past its cut beside the
    # null rows: the rows stay orthonormal, but the span is no longer central
    img = gamma_step(2, 3).image_subalgebra()
    assert center(img).dim == 1
    null_rows = algebra._null_rows

    def one_row_more(rows, cols, vals, r):
        null = null_rows(rows, cols, vals, r)
        A = np.zeros((rows.max() + 1, r), dtype=complex)
        A[rows, cols] = vals
        return np.linalg.eigh(dagger(A) @ A)[1][:, :len(null) + 1].T

    monkeypatch.setattr(algebra, "_null_rows", one_row_more)
    with pytest.raises(RuntimeError, match="center verification failed"):
        center(img)


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["phased", "partial", "diagonal"]), min_size=1, max_size=3),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_the_center_dimension_matches_the_oracle(kinds, n, seed):
    # (S u S')' = S' n S'': the oracle's commutant of S and a basis of S' is
    # the center of S'
    mats = monomial_set(kinds, n, np.random.default_rng(seed))
    alg = commutant(mats)
    assert center(alg).dim == commutant_dimension_bruteforce(mats + list(alg.basis))


def test_central_projections_gather_and_verify_the_frame_once(monkeypatch):
    # an abelian surrogate and a non-abelian commutant with a two-dimensional
    # center: one _structure pass per minimal_central_projections call
    calls = []
    structure = algebra._structure

    def spy(s):
        calls.append(s)
        return structure(s)

    monkeypatch.setattr(algebra, "_structure", spy)
    sym = surrogate_commutant(gamma_step(3, 3).image_subalgebra(), adjoin_symmetry=True)
    s3 = commutant([np.eye(4)[[1, 0, 2, 3]], np.eye(4)[[1, 2, 0, 3]]])
    for alg, count in ((sym, 3), (s3, 2), (two_block_algebra(), 2)):
        calls.clear()
        assert len(minimal_central_projections(alg)) == count
        assert calls == [alg]


def test_projections_resolve_identity_reads_only_live_entries(monkeypatch):
    # frob(sum of the projections - 1), read off the frame's live entries:
    # no N x N matrix is scattered, and the figure is the dense one
    algs = [surrogate_commutant(gamma_step(3, 2).image_subalgebra()),
            surrogate_commutant(gamma_step(2, 6).image_subalgebra(), adjoin_symmetry=True),
            commutant([np.eye(4)[[1, 0, 2, 3]], np.eye(4)[[1, 2, 0, 3]]])]
    dense = [frob(sum(minimal_central_projections(alg)) - np.eye(alg.ambient_dim))
             for alg in algs]

    def forbidden(*args, **kwargs):
        raise AssertionError("_central_projections must scatter no N x N matrix")

    monkeypatch.setattr(algebra, "_scatter", forbidden)
    for alg, want in zip(algs, dense):
        assert abs(algebra._central_projections(alg)[3] - want) <= 1e-15
    assert max(dense) > 0


def test_the_center_of_s3_on_three_of_four_points():
    # S_3 permuting the points 0..2 of 4: the commutant is M_2 (+) C, and its
    # two-dimensional center has no disjoint-support basis, since both
    # central projections, onto the trivial and the standard isotypic
    # parts, cover the first three points
    alg = commutant([np.eye(4)[[1, 0, 2, 3]], np.eye(4)[[1, 2, 0, 3]]])
    z = center(alg)
    assert (alg.dim, z.dim, z.coef.shape) == (5, 2, (2, 5))
    assert center(z) is z
    projs = minimal_central_projections(alg)
    assert [round(float(np.trace(e).real)) for e in projs] == [2, 2]
    trivial = np.zeros((4, 4))
    trivial[:3, :3] = 1 / 3
    trivial[3, 3] = 1
    assert np.abs(projs[0] - (np.eye(4) - trivial)).max() < 1e-12
    assert np.abs(projs[1] - trivial).max() < 1e-12
