import dataclasses
import tracemalloc

import numpy as np
import pytest

import measurelab
from measurelab._linalg import (
    cyclic_shift,
    dagger,
    frob,
    matrix_unit,
    tensor,
    unitary_residual,
)
from measurelab import algebra
from measurelab.algebra import (SubAlgebra, center, commutant,
                                intertwiner_space)
from measurelab.uhf import (
    digit_sums,
    gamma_step,
    innerness_residual,
    omega_root,
    surrogate_commutant,
    symmetry_map,
    symmetry_unitary,
    unitary_path,
)


def opnorm(a):
    return float(np.linalg.norm(a, 2))


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
        v = symmetry_unitary(k, 1)
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
    # the fixed points of Ad(symmetry) are the matrices supported on index
    # pairs of one digit class: the sum of the squared class sizes
    for k in (2, 3):
        for n in (2, 3, 4):
            want = multiplicity_square_oracle(k, n)
            assert np.sum(np.bincount(gamma_step(k, n).meter()) ** 2) == want
            assert want == k * k ** (2 * (n - 1))


def test_fixed_point_blocks_structure():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        st = gamma_step(k, n)
        meter, N = st.meter(), st.target_dim
        assert np.bincount(meter).tolist() == [k ** (n - 1)] * k
        # the digit-class projections are the ranges W_j W_j* of the step
        W = _dense_isometries(st)
        for j in range(k):
            e = np.diag((meter == j).astype(complex))
            assert frob(W[j] @ dagger(W[j]) - e) < 1e-12
        # a matrix unit is a fixed point exactly when its two indices share
        # a digit class
        v = symmetry_unitary(k, n)
        for p in range(N):
            for q in range(N):
                e = matrix_unit(p, q, N)
                fixed = frob(v @ e @ dagger(v) - e) < 1e-10
                assert fixed == (meter[p] == meter[q])


def test_fixed_point_blocks_of_two_sites():
    # parity classes of the two base-2 digits
    assert gamma_step(2, 2).meter().tolist() == [0, 1, 1, 0]


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


def span_residual(s, x):
    """frob of x less its orthogonal projection on the span of s, taken
    densely over the orthonormal s.basis."""
    B = s.basis.reshape(s.dim, -1)
    v = np.ravel(x)
    return frob(v - (B.conj() @ v) @ B)


def _spans_agree(staged, closed_form):
    """Both ways: every closed-form element lies in the staged span, and
    every staged basis element lies in the (Frobenius-orthogonal) span of
    the closed-form elements."""
    worst = max(span_residual(staged, c) for c in closed_form)
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


@pytest.mark.parametrize("flavor", ["natural", "generic"])
@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3, 4, 5) for n in (2, 3)])
def test_generators_are_the_dense_step_images_as_index_maps(k, n, flavor):
    # densified, each map is the dense image, and every entry it holds has
    # the dense image's bits (the dense zeros may carry a sign)
    st = gamma_step(k, n, flavor)
    m, N = st.source_dim, st.target_dim
    for (cols, vals), x in zip(st.generators(), (cyclic_shift(m), matrix_unit(0, 0, m))):
        assert cols.shape == vals.shape == (N,)
        dense = np.zeros((N, N), dtype=complex)
        dense[np.arange(N), cols] = vals
        want = st(x)
        assert np.array_equal(dense, want)
        assert dense[want != 0].tobytes() == want[want != 0].tobytes()


@pytest.mark.parametrize("k,n", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 3)])
def test_symmetry_map_is_the_diagonal_of_the_symmetry_unitary(k, n):
    cols, vals = symmetry_map(k, n)
    assert np.array_equal(cols, np.arange(k ** n))
    u = symmetry_unitary(k, n)
    assert np.diagonal(u).tobytes() == vals.tobytes()
    assert np.count_nonzero(u) == k ** n
    # and the tensor power of the dense site unitaries, entry for entry
    site = symmetry_unitary(k, 1)
    assert np.array_equal(u, tensor(*[site] * n))
    assert np.diagonal(tensor(*[site] * n)).tobytes() == vals.tobytes()


def test_step_rejects_wrong_shapes():
    st = gamma_step(2, 3)
    for x in (np.ones(4), np.eye(3), np.eye(8)):
        with pytest.raises(ValueError):
            st(x)


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
    for g in (st(cyclic_shift(4)), st(matrix_unit(0, 0, 4))):
        assert span_residual(img, g) < 1e-10
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
        assert len(img.step.generators()) == 2
        # the walk a tracer makes to size the arrays a result carries
        for f in dataclasses.fields(img):
            getattr(img, f.name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _held_arrays(obj):
    """Every ndarray a dataclass instance holds, its fields' included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value
        elif dataclasses.is_dataclass(value):
            yield from _held_arrays(value)


@pytest.mark.parametrize("flavor", ["natural", "generic"])
@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (5, 3), (2, 6)])
def test_image_holds_only_its_step(k, n, flavor):
    # the step, and the N^2/k live entries of its frame: flat index, label
    # and value; no N x N labels or values and no (r, N, N) basis until read
    assert [f.name for f in dataclasses.fields(SubAlgebra)] == [
        "ambient_dim", "idx", "lab", "val", "coef", "step"]
    assert not hasattr(measurelab, "fixed_point_blocks")
    st = gamma_step(k, n, flavor)
    img = st.image_subalgebra()
    assert img.step is st and img.coef is None
    assert not {"labels", "values", "basis"} & set(vars(img))
    N = st.target_dim
    held = {}
    for name, a in _held_arrays(img):
        # a view counts with the whole array it keeps alive
        while isinstance(a.base, np.ndarray):
            a = a.base
        held[name] = a.size
        assert a.size <= N * N // k, (name, a.shape)
    assert held["idx"] == held["lab"] == held["val"] == N * N // k


@pytest.mark.parametrize("adjoin", [False, True])
def test_surrogate_commutant_refuses_a_span_with_no_step(adjoin):
    img = gamma_step(2, 3).image_subalgebra()
    with pytest.raises(ValueError, match="no endomorphism step"):
        surrogate_commutant(SubAlgebra(img.ambient_dim, img.idx, img.lab, img.val),
                            adjoin_symmetry=adjoin)


def test_center_of_an_abelian_surrogate_is_the_surrogate():
    sym = surrogate_commutant(gamma_step(3, 2).image_subalgebra(),
                              adjoin_symmetry=True)
    assert center(sym) is sym


def test_image_is_a_plain_subalgebra():
    st = gamma_step(2, 3)
    img = st.image_subalgebra()
    assert isinstance(img, SubAlgebra)
    assert surrogate_commutant(img).dim == 4
    assert center(img).dim == 1
    assert span_residual(img, st(cyclic_shift(4))) < 1e-10
    assert span_residual(img, matrix_unit(0, 1, 8)) > 0.5
    # the generators and the frame's basis give the same commutant
    assert commutant(list(img.basis)).dim == 4


def test_flavors_share_projections_but_differ_off_diagonal():
    st_nat = gamma_step(2, 2)
    st_gen = gamma_step(2, 2, "generic")
    assert np.array_equal(st_nat.meter(), st_gen.meter())
    x = matrix_unit(0, 1, 2)
    assert np.abs(st_nat(x) - st_gen(x)).max() > 0.5


def pullback(step, rho):
    """The density rho_a with Tr(rho_a x) = Tr(rho step(x)), entry by entry:
    rho_a[q, p] = Tr(rho step(e_pq))."""
    m = step.source_dim
    return np.array([[np.trace(rho @ step(matrix_unit(p, q, m))) for p in range(m)]
                     for q in range(m)])


def test_ladder_states_are_flavor_blind():
    # both the uniform and the ground product state pull back to themselves
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        for flavor in ("natural", "generic"):
            st = gamma_step(k, n, flavor)
            N, m = st.target_dim, st.source_dim
            uni = np.eye(N, dtype=complex) / N
            assert np.abs(pullback(st, uni) - np.eye(m) / m).max() < 1e-13
            ground = np.zeros((N, N), dtype=complex)
            ground[0, 0] = 1.0
            want = np.zeros((m, m), dtype=complex)
            want[0, 0] = 1.0
            assert np.abs(pullback(st, ground) - want).max() < 1e-13


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
        assert span_residual(sym, e) < 1e-9


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


def dense_map(m):
    """The index map (cols, vals) as a dense matrix, row a holding vals[a]
    at column cols[a]."""
    cols, vals = m
    u = np.zeros((len(cols),) * 2, dtype=complex)
    u[np.arange(len(cols)), cols] = vals
    return u


def test_endpoints_commute_with_the_previous_image():
    path = unitary_path([gamma_step(2, n) for n in (2, 3, 4)])
    for j in (1, 2):
        u = dense_map(path.endpoints[j])
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


@pytest.mark.parametrize("flavor", ["natural", "generic"])
def test_path_endpoints_are_phased_permutations_built_with_no_solver(
        monkeypatch, flavor):
    def refuse(*args, **kwargs):
        raise AssertionError("unitary_path called the staged solver")

    for name in ("intertwiner_space", "commutant", "_orbit_commutant", "_null_rows",
                 "_structure", "_blocks"):
        monkeypatch.setattr(algebra, name, refuse)
    for name in ("eig", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for k, top in ((2, 4), (3, 3)):
        path = unitary_path([gamma_step(k, n, flavor) for n in range(2, top + 1)])
        assert len(path.endpoints) == top - 1
        for cols, vals in path.endpoints:
            assert np.array_equal(np.sort(cols), np.arange(len(cols)))
            assert np.abs(np.abs(vals) - 1).max() < 1e-15


def _segment_pairs(path, j):
    """The pairs {X: a X = X b} that segment j (from 1) must meet: the
    level-(j+1) step's shift and corner images against their level-j
    originals carried by the endpoints of the earlier segments."""
    k, m = path.k, path.k ** j
    carried = np.eye(k * m, dtype=complex)
    for i, u in enumerate(path.endpoints[:j - 1]):
        carried = np.kron(dense_map(u), np.eye(k ** (j - i - 1))) @ carried
    step = path.steps[j - 1]
    GP, GE = step(cyclic_shift(m)), step(matrix_unit(0, 0, m))
    CP, CE = (carried @ np.kron(x, np.eye(k)) @ dagger(carried)
              for x in (cyclic_shift(m), matrix_unit(0, 0, m)))
    return [(GP, CP), (dagger(GP), dagger(CP)), (GE, CE)]


@pytest.mark.parametrize("k,top,flavor", [(2, 4, "natural"), (3, 3, "natural"),
                                          (2, 3, "generic")])
def test_endpoints_lie_in_the_staged_intertwiner_space(k, top, flavor):
    path = unitary_path([gamma_step(k, n, flavor) for n in range(2, top + 1)])
    for j, u in enumerate(path.endpoints, start=1):
        v = dense_map(u).reshape(-1)
        space = intertwiner_space(_segment_pairs(path, j)).reshape(-1, v.size)
        assert np.linalg.norm(v - (space.conj() @ v) @ space) <= 1e-10


@pytest.mark.parametrize("k,top,flavor,minus_one", [(2, 5, "natural", False),
                                                    (3, 4, "generic", True),
                                                    (4, 3, "natural", True)])
def test_each_segment_holds_its_endpoints_principal_spectrum(k, top, flavor, minus_one):
    path = unitary_path([gamma_step(k, n, flavor) for n in range(2, top + 1)])
    assert len(path.spectra) == len(path.endpoints)
    for blocks, u in zip(path.spectra, path.endpoints):
        nodes = np.concatenate([b[0].ravel() for b in blocks])
        assert np.array_equal(np.sort(nodes), np.arange(len(u[0])))
        theta = np.concatenate([b[1].ravel() for b in blocks])
        assert theta.max() <= np.pi and theta.min() > -np.pi
        z = np.zeros((len(nodes),) * 2, dtype=complex)
        for at, _, zb in blocks:
            z[at[:, :, None], at[:, None, :]] = zb
        theta = np.zeros(len(nodes))
        for at, th, _ in blocks:
            theta[at] = th
        # z is block diagonal on the cycles, so theta is indexed by node
        assert opnorm((z * np.exp(1j * theta)) @ dagger(z) - dense_map(u)) < 1e-10
    # where an endpoint has the eigenvalue -1, its phase is pi, not -pi
    assert any(np.isclose(b[1], np.pi).any() for blocks in path.spectra
               for b in blocks) == minus_one


@pytest.mark.parametrize("k,top", [(2, 8), (4, 4)])
def test_deep_paths_close_at_the_top(k, top):
    path = unitary_path([gamma_step(k, n) for n in range(2, top + 1)])
    for x in (cyclic_shift(k), matrix_unit(0, 0, k)):
        assert innerness_residual(path, x, float(top - 1)) <= 1e-9


@pytest.mark.parametrize("flavor", ["natural", "generic"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_closed_form_spectra_rebuild_each_endpoint(k, flavor):
    # levels 2..6: each cycle block z exp(i theta) z* is the endpoint on the
    # cycle's nodes, z is unitary, and theta is principal
    path = unitary_path([gamma_step(k, n, flavor) for n in range(2, 7)])
    for blocks, (cols, vals) in zip(path.spectra, path.endpoints):
        for nodes, theta, z in blocks:
            L = nodes.shape[1]
            assert np.all((theta > -np.pi) & (theta <= np.pi))
            eye = np.broadcast_to(np.eye(L), (len(nodes), L, L))
            assert np.abs(dagger(z) @ z - eye).max() < 1e-12
            u = np.where(cols[nodes][:, :, None] == nodes[:, None, :], vals[nodes][:, :, None], 0)
            assert np.abs((z * np.exp(1j * theta)[:, None, :]) @ dagger(z) - u).max() < 1e-12


def _dense_reference_path(path, t):
    """u(t) the dense way: the endpoints U_(j+1) (U_j (x) 1)* as matrices,
    a segment's fraction through a complex Schur form's eigenphases."""
    import scipy.linalg

    k, L = path.k, path.top_level
    lift = lambda a, up: np.kron(a, np.eye(k ** up))
    ends, prev = [], np.eye(k, dtype=complex)
    for st in path.steps:
        u = np.zeros((st.target_dim,) * 2, dtype=complex)
        u[st.rows.T.ravel(), np.arange(st.target_dim)] = st.phases.T.ravel()
        ends.append(u @ dagger(lift(prev, 1)))
        prev = u
    whole = int(np.floor(t))
    out = np.eye(k ** L, dtype=complex)
    for i in range(whole):
        out = lift(ends[i], L - i - 2) @ out
    if t > whole:
        T, z = scipy.linalg.schur(ends[whole], output="complex")
        theta = np.angle(np.diagonal(T))
        theta[theta <= -np.pi + 1e-14] = np.pi
        out = lift((z * np.exp(1j * (t - whole) * theta)) @ dagger(z), L - whole - 2) @ out
    return out


@pytest.mark.parametrize("k,top,flavor", [(2, 6, "natural"), (2, 4, "generic"),
                                          (3, 3, "natural"), (3, 3, "generic"),
                                          (4, 3, "natural")])
def test_fractional_innerness_matches_a_dense_reference(k, top, flavor):
    path = unitary_path([gamma_step(k, n, flavor) for n in range(2, top + 1)])
    N = path.dim
    xs = [cyclic_shift(k), matrix_unit(0, k - 1, k),
          np.kron(cyclic_shift(k), matrix_unit(1, 0, k)),
          np.random.default_rng(k).standard_normal((k, k)) + 0j]
    for t in (0.0, 0.3, 1.0, 1.5, top - 1.75, top - 1.0):
        u = _dense_reference_path(path, t)
        assert np.abs(path.value(t) - u).max() < 1e-12
        for x in xs:
            level = round(np.log(len(x)) / np.log(k))
            lifted = np.kron(x, np.eye(N // len(x)))
            image = np.kron(path.steps[level - 1](x), np.eye(N // len(x) // k))
            want = opnorm(u @ lifted @ dagger(u) - image)
            assert abs(innerness_residual(path, x, t) - want) < 1e-12
