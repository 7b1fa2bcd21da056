import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from measurelab._linalg import (
    cyclic_shift,
    dagger,
    frob,
    matrix_unit,
    opnorm,
    random_density,
    unitary_residual,
)
from measurelab.algebra import SubAlgebra, center, commutant
from measurelab.uhf import (
    digit_sums,
    fixed_point_blocks,
    gamma_step,
    innerness_residual,
    omega_root,
    phase_unitary,
    surrogate_commutant,
    symmetry_unitary,
    unitary_path,
)


def multiplicity_square_oracle(k, n):
    """Fixed-point dimension from the spectrum of the product symmetry:
    sum of squared eigenvalue multiplicities."""
    lam = np.linalg.eigvals(symmetry_unitary(k, n))
    angles = np.mod(np.round(np.angle(lam) / (2 * np.pi / k)).astype(int), k)
    counts = np.bincount(angles, minlength=k)
    return int(np.sum(counts ** 2))


def test_digit_sums_hand_values():
    assert digit_sums(2, 3).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
    assert digit_sums(3, 2).tolist() == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    assert digit_sums(2, 1).tolist() == [0, 1]


def test_phase_unitary_powers():
    for k in (2, 3, 4):
        v = phase_unitary(k)
        assert frob(np.linalg.matrix_power(v, k) - np.eye(k)) < 1e-12
        assert abs(omega_root(k) ** k - 1.0) < 1e-13


def test_symmetry_has_order_k():
    for k in (2, 3, 4):
        for n in (2, 3, 4):
            if k ** n > 256:
                continue
            u = symmetry_unitary(k, n)
            eye = np.eye(k ** n)
            assert frob(np.linalg.matrix_power(u, k) - eye) < 1e-12
            # no smaller power acts trivially
            if k > 2:
                assert frob(u - eye) > 0.5


def test_fixed_point_dimension_matches_spectral_oracle():
    for k in (2, 3):
        for n in (2, 3, 4):
            want = multiplicity_square_oracle(k, n)
            assert fixed_point_blocks(k, n)[1].dim == want
            assert want == k * k ** (2 * (n - 1))


def test_fixed_point_blocks_structure():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        projs, alg = fixed_point_blocks(k, n)
        N = k ** n
        assert len(projs) == k
        assert frob(sum(projs) - np.eye(N)) < 1e-12
        for e in projs:
            assert frob(e @ e - e) < 1e-12
            assert round(float(np.trace(e).real)) == k ** (n - 1)
        assert alg.dim == multiplicity_square_oracle(k, n)
        # basis order: digit class by class, index pairs row-major in each
        ds = digit_sums(k, n)
        pairs = [(p, q) for j in range(k) for p in np.flatnonzero(ds == j)
                 for q in np.flatnonzero(ds == j)]
        assert [tuple(np.argwhere(b)[0]) for b in alg.basis] == pairs
        v = symmetry_unitary(k, n)
        for b in alg.basis:
            assert frob(v @ b @ dagger(v) - b) < 1e-10


# sha256 of fixed_point_blocks(k, n)[1].basis as first scattered eagerly
FIXED_POINT_BASIS_SHA256 = {
    (2, 3): "1f2016333403dfe896560d243d6c9bb4418844e4c16989ee06a8ebd2465a94bc",
    (3, 2): "0862fadea3b05f0d7f12fb7a4a52b6f534692396a915d5a3bc18d15b9dc34187",
    (2, 4): "3d81d8ec92a95cc9a4dfd596e364f1e5daf696dad7ceb0518d0777fb4e4208a6",
    (3, 3): "15d5af89a154c50ca1c91d95f954be21f566e5bbfc0734a922b1b0f57dd7a28c",
}


@pytest.mark.parametrize("kn", sorted(FIXED_POINT_BASIS_SHA256))
def test_fixed_point_basis_bytes_are_unchanged(kn):
    _, alg = fixed_point_blocks(*kn)
    digest = hashlib.sha256(alg.basis.tobytes()).hexdigest()
    assert digest == FIXED_POINT_BASIS_SHA256[kn]


def test_fixed_point_basis_is_built_only_when_read():
    # the dense (3,4) basis is 2187 x 81 x 81 complex entries, 230 MB
    tracemalloc.start()
    try:
        projs, alg = fixed_point_blocks(3, 4)
        assert (alg.dim, alg.ambient_dim, len(projs)) == (2187, 81, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_fixed_point_blocks_of_two_sites():
    projs, _ = fixed_point_blocks(2, 2)
    # parity classes of the two base-2 digits
    assert np.allclose(np.diag(projs[0]).real, [1, 0, 0, 1])
    assert np.allclose(np.diag(projs[1]).real, [0, 1, 1, 0])


def _dense_isometries(step):
    """The (k, N, m) stack of the W_j, from W_j e_q = phases[j, q] e_{rows[j, q]}."""
    N = step.target_dim
    return (np.eye(N, dtype=complex)[step.rows].swapaxes(1, 2)
            * step.phases[:, None, :])


def test_step_isometry_relations_are_exact():
    for k, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for flavor in ("natural", "generic"):
            st = gamma_step(k, n, flavor)
            W = _dense_isometries(st)
            m = st.source_dim
            for j in range(k):
                assert np.abs(dagger(W[j]) @ W[j] - np.eye(m)).max() < 1e-14
            total = sum(W[j] @ dagger(W[j]) for j in range(k))
            assert np.abs(total - np.eye(k ** n)).max() < 1e-14


def _spans_agree(staged, closed_form):
    """Both ways: every closed-form element lies in the staged span, and
    every staged basis element lies in the (Frobenius-orthogonal) span of
    the closed-form elements."""
    worst = max(staged.span_residual(c) for c in closed_form)
    Q = np.stack([c.reshape(-1) / frob(c) for c in closed_form])
    for b in staged.basis:
        v = b.reshape(-1)
        worst = max(worst, float(np.linalg.norm(v - Q.T @ (Q.conj() @ v))))
    return worst


@pytest.mark.parametrize("flavor", ["natural", "generic"])
@pytest.mark.parametrize("k,n", [(2, 4), (3, 3), (4, 3), (2, 6)])
def test_surrogate_commutant_closed_form(k, n, flavor):
    # V = [W_0 | .. | W_{k-1}] is unitary (the Cuntz relations), and the step
    # is x -> V (1_k (x) x) V*, so the commutant of its image is
    # V (M_k (x) 1) V* = span{W_i W_j*}; the phase symmetry cuts it to the
    # digit-class projections W_j W_j*
    st = gamma_step(k, n, flavor)
    W = _dense_isometries(st)
    assert unitary_residual(np.concatenate(list(W), axis=1)) < 1e-14
    plain = commutant(st.generators())
    sym = commutant(st.generators() + [symmetry_unitary(k, n)])
    assert plain.dim == k * k
    assert sym.dim == k
    units = [W[i] @ dagger(W[j]) for i in range(k) for j in range(k)]
    assert _spans_agree(plain, units) < 1e-9
    assert _spans_agree(sym, [W[j] @ dagger(W[j]) for j in range(k)]) < 1e-9


def test_step_rejects_wrong_shapes():
    st = gamma_step(2, 3)
    for x in (np.ones(4), np.eye(3), np.eye(8)):
        with pytest.raises(ValueError):
            st(x)
    for rho in (np.eye(4), np.eye(16), np.ones(8)):
        with pytest.raises(ValueError):
            st.pullback_density(rho)


def test_step_is_a_unital_homomorphism():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        st = gamma_step(k, n)
        m = st.source_dim
        units = [matrix_unit(i, j, m) for i in range(m) for j in range(m)]
        assert frob(st(np.eye(m)) - np.eye(k ** n)) < 1e-13
        worst = 0.0
        for a in units:
            for b in units:
                worst = max(worst, frob(st(a @ b) - st(a) @ st(b)))
            worst = max(worst, frob(st(dagger(a)) - dagger(st(a))))
        assert worst < 1e-10


def test_step_consistency_across_levels():
    # gamma_n on x (x) 1 equals gamma_(n-1) on x, re-embedded
    for k in (2, 3):
        for n in (3, 4):
            if k ** n > 256:
                continue
            for flavor in ("natural", "generic"):
                lo = gamma_step(k, n - 1, flavor)
                hi = gamma_step(k, n, flavor)
                m = lo.source_dim
                for x in (cyclic_shift(m), matrix_unit(0, 0, m)):
                    lhs = hi(np.kron(x, np.eye(k, dtype=complex)))
                    rhs = np.kron(lo(x), np.eye(k, dtype=complex))
                    assert np.abs(lhs - rhs).max() < 1e-14


def test_image_is_pointwise_symmetry_fixed():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        st = gamma_step(k, n)
        v = symmetry_unitary(k, n)
        m = st.source_dim
        worst = 0.0
        for x in (cyclic_shift(m), matrix_unit(0, 0, m), matrix_unit(0, m - 1, m)):
            img = st(x)
            worst = max(worst, frob(v @ img @ dagger(v) - img))
        assert worst < 1e-12


def test_range_projections_are_digit_classes():
    # W_j W_j* projects onto the basis vectors rows[j], so the step's meter
    # reads j there, and those are the vectors of digit sum j
    for flavor in ("natural", "generic"):
        st = gamma_step(2, 3, flavor)
        meter = st.meter()
        assert np.array_equal(meter, digit_sums(2, 3))
        for j in range(st.k):
            assert np.all(meter[st.rows[j]] == j)
        assert np.bincount(meter).tolist() == [4, 4]


def test_image_subalgebra_is_an_isomorphic_copy():
    st = gamma_step(2, 3)
    img = st.image_subalgebra()
    assert img.dim == st.source_dim ** 2
    basis = img.basis.reshape(img.dim, -1)
    for g in img.generators:
        assert img.span_residual(g) < 1e-10
    # closed under adjoints and products: every basis pair's product and
    # every basis element's adjoint lies in the span
    prods = np.einsum("pij,qjk->pqik", img.basis, img.basis)
    prods = prods.reshape(img.dim ** 2, -1)
    adjs = dagger(img.basis).reshape(img.dim, -1)
    for x in (prods, adjs):
        assert np.abs(x - (x @ basis.conj().T) @ basis).max() < 1e-12


@pytest.mark.parametrize("flavor", ["natural", "generic"])
@pytest.mark.parametrize("k,n", [(2, 3), (3, 2)])
def test_image_basis_is_the_scaled_step_of_each_matrix_unit(k, n, flavor):
    st = gamma_step(k, n, flavor)
    m = st.source_dim
    img = st.image_subalgebra()
    basis = img.basis
    assert basis is img.basis
    assert basis.shape == (m * m, st.target_dim, st.target_dim)
    for q in range(m):
        for t in range(m):
            assert np.array_equal(basis[q * m + t],
                                  st(matrix_unit(q, t, m)) / np.sqrt(k))


def test_image_basis_is_built_only_when_read():
    # the dense (5,3) basis is 625 x 125 x 125 complex entries, 156 MB
    st = gamma_step(5, 3)
    tracemalloc.start()
    try:
        img = st.image_subalgebra()
        assert (img.dim, img.ambient_dim) == (625, 125)
        assert len(img.constraints) == 2
        assert img.symmetry.shape == (125, 125)
        # the walk a tracer makes to size the arrays a result carries
        for f in dataclasses.fields(img):
            getattr(img, f.name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_image_is_a_plain_subalgebra():
    st = gamma_step(2, 3)
    img = st.image_subalgebra()
    assert isinstance(img, SubAlgebra)
    assert commutant(img).dim == 4
    assert center(img).dim == 1
    assert img.span_residual(st(cyclic_shift(4))) < 1e-10
    assert img.span_residual(matrix_unit(0, 1, 8)) > 0.5
    # the generators and the dense basis give the same commutant
    assert commutant(SubAlgebra(img.basis)).dim == 4


def test_pullback_is_the_trace_dual():
    rng = np.random.default_rng(0)
    st = gamma_step(3, 2)
    rho = random_density(9, rng)
    pulled = st.pullback_density(rho)
    assert abs(np.trace(pulled) - 1.0) < 1e-12
    for _ in range(4):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert abs(np.trace(pulled @ x) - np.trace(rho @ st(x))) < 1e-11


def test_flavors_share_projections_but_differ_off_diagonal():
    st_nat = gamma_step(2, 2)
    st_gen = gamma_step(2, 2, "generic")
    assert np.array_equal(st_nat.meter(), st_gen.meter())
    x = matrix_unit(0, 1, 2)
    assert np.abs(st_nat(x) - st_gen(x)).max() > 0.5


def test_ladder_states_are_flavor_blind():
    # both the uniform and the ground product state pull back to themselves
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        for flavor in ("natural", "generic"):
            st = gamma_step(k, n, flavor)
            N, m = st.target_dim, st.source_dim
            uni = np.eye(N, dtype=complex) / N
            assert np.abs(st.pullback_density(uni) - np.eye(m) / m).max() < 1e-13
            ground = np.zeros((N, N), dtype=complex)
            ground[0, 0] = 1.0
            want = np.zeros((m, m), dtype=complex)
            want[0, 0] = 1.0
            assert np.abs(st.pullback_density(ground) - want).max() < 1e-13


def test_surrogate_commutant_frozen_dimensions():
    st = gamma_step(2, 3)
    img = st.image_subalgebra()
    plain = surrogate_commutant(img)
    sym = surrogate_commutant(img, adjoin_symmetry=True)
    assert plain.dim == 4
    assert sym.dim == 2
    # the adjoined-symmetry commutant is spanned by the digit-class projections
    for j in range(st.k):
        e = np.diag((st.meter() == j).astype(complex))
        assert sym.span_residual(e) < 1e-9


def test_surrogate_commutant_three_level_base():
    st = gamma_step(3, 2)
    img = st.image_subalgebra()
    assert surrogate_commutant(img, adjoin_symmetry=True).dim == 3
    assert surrogate_commutant(img).dim == 9


def test_path_starts_at_the_exact_identity():
    path = unitary_path([gamma_step(2, n) for n in (2, 3)])
    assert np.array_equal(path.value(0.0), np.eye(8))


def test_path_is_unitary_at_intermediate_times():
    path = unitary_path([gamma_step(2, n) for n in (2, 3)])
    for t in (0.25, 0.5, 0.75, 1.3):
        assert unitary_residual(path.value(t)) < 1e-12


def test_path_composed_conjugation_on_generators():
    path = unitary_path([gamma_step(2, n) for n in (2, 3, 4)])
    top = float(len(path.endpoints))
    for g in (cyclic_shift(2), matrix_unit(0, 0, 2), matrix_unit(0, 1, 2)):
        assert innerness_residual(path, g, top) < 1e-9


def test_innerness_drops_at_the_segment_endpoint_and_stays():
    path = unitary_path([gamma_step(2, n) for n in (2, 3, 4)])
    x = cyclic_shift(2)
    before = innerness_residual(path, x, 0.5)
    at = innerness_residual(path, x, 1.0)
    later = [innerness_residual(path, x, t) for t in (2.0, 3.0)]
    assert before > 0.1
    assert at < 1e-9
    prev = at
    for r in later:
        assert r <= prev + 1e-12
        prev = r


def test_higher_level_elements_match_after_their_segment():
    path = unitary_path([gamma_step(2, n) for n in (2, 3, 4)])
    x2 = np.kron(cyclic_shift(2), matrix_unit(0, 1, 2))
    assert innerness_residual(path, x2, 1.5) > 0.1
    assert innerness_residual(path, x2, 2.0) < 1e-9
    assert innerness_residual(path, x2, 3.0) < 1e-9


def test_endpoints_commute_with_the_previous_image():
    path = unitary_path([gamma_step(2, n) for n in (2, 3, 4)])
    for j in (1, 2):
        u = path.endpoints[j]
        prev = path.steps[j - 1]
        for y in (cyclic_shift(2 ** j), matrix_unit(0, 0, 2 ** j)):
            img = prev(y)
            reps = u.shape[0] // img.shape[0]
            lift = np.kron(img, np.eye(reps, dtype=complex))
            assert opnorm(u @ lift - lift @ u) < 1e-10


def test_identity_element_is_never_moved():
    path = unitary_path([gamma_step(2, n) for n in (2, 3)])
    for t in (0.0, 0.4, 1.0, 2.0):
        assert innerness_residual(path, np.eye(2, dtype=complex), t) < 1e-12


def test_path_input_validation():
    with pytest.raises(ValueError):
        unitary_path([])
    with pytest.raises(ValueError):
        unitary_path([gamma_step(2, 3)])  # must start at level 2
    with pytest.raises(ValueError):
        unitary_path([gamma_step(2, 2), gamma_step(2, 4)])
    with pytest.raises(ValueError):
        unitary_path([gamma_step(2, 2), gamma_step(2, 3, "generic")])
    path = unitary_path([gamma_step(2, 2)])
    with pytest.raises(ValueError):
        path.value(-0.1)
    with pytest.raises(ValueError):
        path.value(1.5)
    with pytest.raises(ValueError):
        innerness_residual(path, np.eye(8, dtype=complex), 1.0)


def test_generic_flavor_path_also_closes():
    path = unitary_path([gamma_step(2, n, "generic") for n in (2, 3)])
    for g in (cyclic_shift(2), matrix_unit(0, 0, 2)):
        assert innerness_residual(path, g, 2.0) < 1e-9
