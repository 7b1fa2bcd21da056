import copy
import dataclasses
import re

import numpy as np
import pytest

import measurelab as ml
from measurelab._linalg import (
    basis_vector,
    dagger,
    frob,
    haar_unitary,
    matrix_unit,
    random_density,
    random_state_vector,
    trace_norm,
    unitary_residual,
)
from measurelab import _linalg
from measurelab.instruments import (
    MeasuringProcess,
    _meter_images,
    _outcome_gram,
    _step_factors,
    central_decomposition,
    conditional_expectation,
    default_probe_states,
    default_probe_vectors,
    exact_observation_residual,
    instrument,
    instrument_distance,
    instrument_from_process,
    random_measuring_process,
    verify_axioms,
)
from measurelab.states import State, diagonal_state, vector_state

CHECK_NAMES = [
    "choi-hermitian",
    "cp-positivity",
    "dual-normalization",
    "probability-total",
    "output-positivity",
    "outcome-additivity",
    "branch-linearity",
]


def dense_meter(p):
    """The meter projections of a process as dense diagonal matrices."""
    return [np.diag((p.meter == i).astype(complex)) for i in range(p.outcomes)]


def process_and_unitary(k, n, rng, flavor="natural"):
    """A random measuring process and the Haar interaction U it was drawn
    with, replayed from a copy of the generator: the process holds only
    V = U (1 (x) psi)."""
    twin = copy.deepcopy(rng)
    p = random_measuring_process(k, n, rng, flavor=flavor)
    random_state_vector(k ** n, twin)
    return p, haar_unitary(k * k ** n, twin)


def branch_oracle(p, U, rho, i):
    """Branch output computed the long way: evolve rho (x) |psi><psi| by U,
    compress by the lifted meter projection, trace out the probe."""
    d, K = p.observed_dim, p.probe_dim
    probe = np.outer(p.probe_vector, p.probe_vector.conj())
    sigma = U @ np.kron(rho, probe) @ dagger(U)
    lift = np.kron(np.eye(d, dtype=complex), dense_meter(p)[i])
    return np.trace((lift @ sigma @ lift).reshape(d, K, d, K), axis1=1, axis2=3)


def test_induced_instrument_matches_direct_formula():
    rng = np.random.default_rng(0)
    for k, n in [(2, 2), (3, 2), (2, 3)]:
        p, U = process_and_unitary(k, n, rng)
        E = instrument_from_process(p)
        for _ in range(3):
            rho = random_density(k, rng)
            for i in range(E.outcomes):
                got = E.apply(i, rho)
                want = branch_oracle(p, U, rho, i)
                assert np.abs(got - want).max() < 1e-12


def test_apply_agrees_with_choi_blocks():
    rng = np.random.default_rng(1)
    p = random_measuring_process(2, 2, rng)
    E = instrument_from_process(p)
    d = E.observed_dim
    for i, c in enumerate(E.chois):
        c4 = c.reshape(d, d, d, d)
        for pp in range(d):
            for q in range(d):
                got = E.apply(i, matrix_unit(pp, q, d))
                assert np.abs(got - c4[pp, :, q, :]).max() < 1e-13


def test_dual_pairing():
    rng = np.random.default_rng(2)
    p = random_measuring_process(2, 2, rng)
    E = instrument_from_process(p)
    for _ in range(4):
        rho = random_density(2, rng)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for i in range(E.outcomes):
            lhs = np.trace(E.apply(i, rho) @ x)
            rhs = np.trace(rho @ E.dual_apply(i, x))
            assert abs(lhs - rhs) < 1e-11


def test_povm_resolves_identity_and_weights_are_probabilities():
    rng = np.random.default_rng(3)
    p = random_measuring_process(3, 2, rng)
    E = instrument_from_process(p)
    povm = E.povm()
    total = sum(povm)
    assert np.abs(total - np.eye(3)).max() < 1e-11
    rho = random_density(3, rng)
    w = E.outcome_weights(State(rho))
    assert abs(w.sum() - 1.0) < 1e-11
    assert w.min() >= 0.0
    for i, P in enumerate(povm):
        assert abs(w[i] - np.trace(rho @ P).real) < 1e-11


def test_verify_axioms_check_names_and_pass():
    rng = np.random.default_rng(4)
    p = random_measuring_process(2, 2, rng)
    rep = verify_axioms(instrument_from_process(p))
    assert [c.name for c in rep.checks] == CHECK_NAMES
    assert rep.all_pass
    assert all(c.residual < 1e-9 for c in rep.checks)


def test_verify_axioms_flags_negative_choi():
    rng = np.random.default_rng(5)
    E = instrument_from_process(random_measuring_process(2, 2, rng))
    bad = [c.copy() for c in E.chois]
    bad[0] = bad[0] - 0.05 * np.eye(4)
    broken = instrument(bad)
    rep = verify_axioms(broken)
    assert not rep.all_pass
    assert "cp-positivity" in [c.name for c in rep.failures()]


def test_verify_axioms_flags_bad_normalization():
    rng = np.random.default_rng(6)
    E = instrument_from_process(random_measuring_process(2, 2, rng))
    scaled = instrument([1.2 * c for c in E.chois])
    rep = verify_axioms(scaled)
    failed = [c.name for c in rep.failures()]
    assert "dual-normalization" in failed


def test_instrument_constructor_validation():
    with pytest.raises(ValueError):
        instrument([np.eye(4, dtype=complex), np.eye(9, dtype=complex)])
    E = instrument([np.eye(4, dtype=complex) / 2, np.eye(4, dtype=complex) / 2])
    assert E.labels == ("E1", "E2")
    assert E.observed_dim == 2


def test_default_probe_sequences():
    vecs = default_probe_vectors(2, length=16)
    assert np.array_equal(vecs[0], basis_vector(0, 2))
    assert np.array_equal(vecs[1], basis_vector(1, 2))
    r2 = 1.0 / np.sqrt(2.0)
    assert np.abs(vecs[2] - np.array([r2, r2])).max() < 1e-12
    for v in vecs:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    states = default_probe_states(2)
    assert len(states) <= 16
    assert any(np.abs(s.density - np.eye(2) / 2).max() < 1e-12 for s in states)


def test_conditional_expectation_is_compression():
    rng = np.random.default_rng(7)
    p, U = process_and_unitary(2, 2, rng)
    d, K = p.observed_dim, p.probe_dim
    T = rng.normal(size=(d * K, d * K)) + 1j * rng.normal(size=(d * K, d * K))
    got = conditional_expectation(p, T)
    lift = np.kron(np.eye(d, dtype=complex), p.probe_vector.reshape(-1, 1))
    want = dagger(lift) @ dagger(U) @ T @ U @ lift
    assert np.abs(got - want).max() < 1e-12


# Dense references for the probe-isometry route: lift the observed factor
# by kron(1, psi) and conjugate by the full interaction unitary.

def _dense_lift(p):
    return np.kron(np.eye(p.observed_dim, dtype=complex),
                   p.probe_vector.reshape(-1, 1))


def _dense_conditional_expectation(p, U, T):
    lift = _dense_lift(p)
    return dagger(lift) @ dagger(U) @ T @ U @ lift


def _dense_exact_observation_residual(p, U):
    eye_d = np.eye(p.observed_dim, dtype=complex)
    lifted = [np.kron(eye_d, e) for e in dense_meter(p)]
    images = [_dense_conditional_expectation(p, U, a) for a in lifted]
    return max(frob(_dense_conditional_expectation(p, U, a @ b)
                    - images[i] @ images[j])
               for i, a in enumerate(lifted) for j, b in enumerate(lifted))


def _dense_isometries(step):
    """The (k, N, m) stack of the W_j, from W_j e_q = phases[j, q] e_{rows[j, q]}."""
    N = step.target_dim
    return (np.eye(N, dtype=complex)[step.rows].swapaxes(1, 2)
            * step.phases[:, None, :])


def _dense_step_blocks(p, U, rho):
    d, K = p.observed_dim, p.probe_dim
    psi = p.probe_vector
    post = U @ np.kron(rho, np.outer(psi, psi.conj())) @ dagger(U)
    eye_d = np.eye(d, dtype=complex)
    blocks = []
    for Wj in _dense_isometries(p.step):
        lift = np.kron(eye_d, Wj)
        blocks.append(dagger(lift) @ post @ lift)
    return blocks


def _dense_central_decomposition(p, U, rho):
    raws = [(b + dagger(b)) / 2 for b in _dense_step_blocks(p, U, rho)]
    weights = np.array([max(float(np.real(np.trace(r))), 0.0) for r in raws])
    total = sum(raws)
    recon = trace_norm(total - total / np.real(np.trace(total))
                       * np.sum(weights))
    comps = [r / w for r, w in zip(raws, weights)]
    purity = max(float(np.linalg.eigh(comp)[0][-2]) for comp in comps)
    return weights, recon, purity


# the generic phases at k = 4 lie off the real and imaginary axes, where the
# gathered blocks can round differently from the dense products
RANDOM_PROCESS_SIZES = [
    pytest.param(2, 2, "generic", id="2-2"),
    pytest.param(3, 2, "generic", id="3-2"),
    pytest.param(2, 3, "generic", id="2-3"),
    pytest.param(4, 2, "generic", id="4-2"),
    pytest.param(2, 3, "natural", id="2-3-natural"),
]


def _random_process_and_state(k, n, flavor):
    rng = np.random.default_rng(100 * k + n)
    p, U = process_and_unitary(k, n, rng, flavor=flavor)
    return p, U, State(random_density(k, rng)), rng


@pytest.mark.parametrize("k, n, flavor", RANDOM_PROCESS_SIZES)
def test_probe_isometry_is_the_lifted_unitary(k, n, flavor):
    p, U, _, _ = _random_process_and_state(k, n, flavor)
    V = p.isometry
    assert V.shape == (k * k ** n, k)
    assert np.abs(V - U @ _dense_lift(p)).max() < 1e-12
    assert unitary_residual(V) < 1e-12


def test_conditional_expectation_on_a_basis_probe_is_a_slice():
    # with the probe in its first basis vector, V = U (1 (x) e_0) is the
    # interleaved column slice of U, and compressing U* T U picks out the
    # interleaved slice of it
    rng = np.random.default_rng(4)
    p = random_measuring_process(2, 2, rng)
    U = haar_unitary(8, rng)
    p = MeasuringProcess(observed_dim=2, probe_vector=basis_vector(0, 4),
                         meter=p.meter, isometry=U[:, ::4])
    p.validate()
    T = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    moved = dagger(U) @ T @ U
    assert np.abs(conditional_expectation(p, T) - moved[::4, ::4]).max() < 1e-13


@pytest.mark.parametrize("k, n, flavor", RANDOM_PROCESS_SIZES)
def test_isometry_route_matches_dense_formulas(k, n, flavor):
    p, U, phi, rng = _random_process_and_state(k, n, flavor)
    N = k * k ** n
    T = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    assert np.abs(conditional_expectation(p, T)
                  - _dense_conditional_expectation(p, U, T)).max() < 1e-12
    assert abs(exact_observation_residual(p)
               - _dense_exact_observation_residual(p, U)) < 1e-12
    assert exact_observation_residual(p) > 1e-3

    blocks = _dense_step_blocks(p, U, phi.density)
    want = sum(blocks)
    want = (want + dagger(want)) / 2
    Y = _step_factors(p)
    got = sum(Y @ phi.density @ dagger(Y))
    assert np.abs(got - want).max() < 1e-12

    weights, recon, purity = _dense_central_decomposition(p, U, phi.density)
    dec = central_decomposition(p, phi)
    assert np.abs(dec.weights - weights).max() < 1e-12
    assert dec.weights.min() > 1e-8  # so every component is compared
    assert abs(dec.reconstruction_residual - recon) < 1e-12
    assert abs(dec.purity_defect - purity) < 1e-12
    assert purity > 1e-3


def test_exact_observation_separates_scenarios_from_noise():
    scenario = ml.build_projective_scenario(2, 2)
    assert exact_observation_residual(scenario) < 1e-9
    rng = np.random.default_rng(0)
    noisy = random_measuring_process(2, 2, rng)
    assert exact_observation_residual(noisy) > 1e-3


def test_post_interaction_restriction_is_the_branch_sum():
    # Tr_m sum_j Y_j rho Y_j* over the thin step factors is Tr_K V rho V*,
    # since the W_j W_j* resolve the identity
    rng = np.random.default_rng(9)
    p = random_measuring_process(2, 3, rng)
    E = instrument_from_process(p)
    rho = random_density(2, rng)
    Y = _step_factors(p).reshape(-1, 2, p.step.source_dim, 2)
    reduced = np.einsum("jasp,pq,jbsq->ab", Y, rho, Y.conj())
    total = sum(E.apply(i, rho) for i in range(E.outcomes))
    assert trace_norm(reduced - total) < 1e-12


def test_central_decomposition_on_the_projective_process():
    p = ml.build_projective_scenario(2, 2)
    phi = diagonal_state(np.array([0.3, 0.7]))
    dec = central_decomposition(p, phi)
    assert np.abs(dec.weights - np.array([0.3, 0.7])).max() < 1e-10
    assert dec.purity_defect < 1e-10
    assert dec.reconstruction_residual < 1e-9


def test_central_decomposition_weight_floor():
    # the outcome-1 block is zero: its component is skipped, not divided
    # by a zero weight
    p = ml.build_projective_scenario(2, 2)
    phi = vector_state(basis_vector(0, 2))
    dec = central_decomposition(p, phi)
    assert abs(dec.weights[0] - 1.0) < 1e-12
    assert dec.weights[1] == 0.0
    assert dec.purity_defect < 1e-12


def test_instrument_distance_is_a_metric_sample():
    rng = np.random.default_rng(8)
    Es = [instrument_from_process(random_measuring_process(2, 2, rng))
          for _ in range(3)]
    a, b, c = Es
    assert instrument_distance(a, a) < 1e-14
    dab = instrument_distance(a, b)
    dba = instrument_distance(b, a)
    assert abs(dab - dba) < 1e-12
    dac = instrument_distance(a, c)
    dcb = instrument_distance(c, b)
    assert dab <= dac + dcb + 1e-12


def test_instrument_distance_scales_linearly_in_mixing():
    rng = np.random.default_rng(9)
    E = instrument_from_process(random_measuring_process(2, 2, rng))
    F = instrument_from_process(random_measuring_process(2, 2, rng))
    base = instrument_distance(E, F)
    assert base > 1e-3
    for eps in (1e-1, 1e-2, 1e-3):
        mixed = instrument(
            [(1 - eps) * ce + eps * cf for ce, cf in zip(E.chois, F.chois)])
        d = instrument_distance(E, mixed)
        assert abs(d - eps * base) < 1e-9 * max(1.0, base)


def test_instrument_distance_rejects_mismatched_outcomes():
    rng = np.random.default_rng(10)
    E = instrument_from_process(random_measuring_process(2, 2, rng))
    F = instrument(list(E.chois) + [np.zeros((4, 4), dtype=complex)])
    with pytest.raises(ValueError):
        instrument_distance(E, F)


def test_process_validate_catches_bad_data():
    rng = np.random.default_rng(14)
    p = random_measuring_process(2, 2, rng)
    crooked = MeasuringProcess(
        observed_dim=2, probe_vector=p.probe_vector * 2.0,
        meter=p.meter, isometry=p.isometry)
    with pytest.raises(ValueError, match="normalized"):
        crooked.validate()
    for meter, message in [(p.meter[:3], "one integer"),
                           (p.meter * 0.5, "one integer"),
                           (p.meter - 1, "outside"),
                           (p.meter + 1, "outside")]:
        skew = MeasuringProcess(observed_dim=2, probe_vector=p.probe_vector,
                                meter=meter, isometry=p.isometry,
                                labels=p.labels)
        with pytest.raises(ValueError, match=message):
            skew.validate()


def test_an_outcome_no_basis_vector_reads_has_a_zero_block():
    rng = np.random.default_rng(16)
    p = random_measuring_process(2, 2, rng)
    wide = MeasuringProcess(observed_dim=2, probe_vector=p.probe_vector,
                            meter=p.meter, isometry=p.isometry,
                            labels=("a", "b", "never"))
    wide.validate()
    E = instrument_from_process(wide)
    assert E.labels == ("a", "b", "never")
    assert not E.chois[2].any()
    for a, b in zip(E.chois, instrument_from_process(p).chois):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("make", [
    lambda: ml.build_projective_scenario(2, 3),
    lambda: random_measuring_process(3, 2, np.random.default_rng(5), "generic"),
], ids=["projective", "random"])
def test_choi_blocks_and_meter_images_sum_over_probe_row_chunks(monkeypatch, make):
    # one chunk holds every probe row here, so the blocks are the whole
    # gather's Grams bit for bit; chunks of 2 probe rows agree to rounding
    p = make()
    d = p.observed_dim
    V3 = p.isometry.reshape(d, p.probe_dim, d)
    gathers = [V3[:, np.flatnonzero(p.meter == i)] for i in range(p.outcomes)]
    chois = [G @ dagger(G) for G in
             (R.transpose(2, 0, 1).reshape(d * d, -1) for R in gathers)]
    images = [dagger(G) @ G for G in (R.reshape(-1, d) for R in gathers)]
    whole = instrument_from_process(p).chois, _meter_images(p)
    for got, want in zip(whole, (chois, images)):
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # the sum starts from the first chunk's term, not from 0, so a -0.0 stays
    assert np.signbit(_outcome_gram(V3, p.meter, 0, lambda R: np.full(3, -0.0))).all()

    monkeypatch.setattr(_linalg, "_ROW_CHUNK", 2)
    assert max(np.count_nonzero(p.meter == i) for i in range(p.outcomes)) > 2
    chunked = instrument_from_process(p).chois, _meter_images(p)
    for got, want in zip(chunked, (chois, images)):
        for g, w in zip(got, want):
            assert np.abs(g - w).max() < 1e-14


def test_process_validate_refuses_non_finite_entries():
    # a NaN residual compares False against every tolerance, so the check
    # is an explicit one
    p = random_measuring_process(2, 1, np.random.default_rng(17))
    p.validate()
    nan_iso = p.isometry.copy()
    nan_iso[1, 0] = np.nan
    inf_psi = p.probe_vector.copy()
    inf_psi[0] = np.inf
    for bad in (dataclasses.replace(p, isometry=p.isometry * np.nan),
                dataclasses.replace(p, isometry=nan_iso),
                dataclasses.replace(p, probe_vector=p.probe_vector * np.nan),
                dataclasses.replace(p, probe_vector=inf_psi)):
        with pytest.raises(ValueError, match="not finite"):
            bad.validate()
    with pytest.raises(ValueError, match="wrong shape"):
        dataclasses.replace(p, isometry=p.isometry[:, :1]).validate()
    with pytest.raises(ValueError, match="not an isometry"):
        dataclasses.replace(p, isometry=2 * p.isometry).validate()


def loop_validate(E, psd_tol=1e-10):
    """Instrument.validate's block checks one outcome at a time: the
    reference for the stacked checks."""
    for i, c in enumerate(E.chois):
        if not np.isfinite(c).all():
            raise ValueError(f"outcome {i}: Choi block is not finite")
        if frob(c - dagger(c)) > 1e-9 * max(1.0, frob(c)):
            raise ValueError(f"outcome {i}: Choi block is not Hermitian")
        lo = float(np.linalg.eigvalsh((c + dagger(c)) / 2)[0])
        if lo < -psd_tol * max(1.0, frob(c)):
            raise ValueError(f"outcome {i}: Choi block violates the PSD tolerance "
                             f"{psd_tol:.1e} (min eigenvalue {lo:.2e})")


@pytest.mark.parametrize("edits", [
    [(0, (0, 1), 5.0), (1, (2, 3), np.nan)],
    [(1, (0, 0), -3.0), (2, (1, 0), 1j)],
    [(2, (1, 0), 1j), (1, (3, 3), np.inf)],
    [(0, (0, 0), -3.0), (2, (1, 1), np.inf)],
    [(0, (2, 2), np.nan), (1, (0, 1), 5.0)],
])
def test_stacked_validate_refuses_the_loops_first_failure(edits):
    chois = [c.copy() for c in instrument_from_process(
        random_measuring_process(3, 1, np.random.default_rng(3))).chois]
    for i, at, value in edits:
        chois[i][at] = value
    E = instrument(chois)
    with pytest.raises(ValueError) as want:
        loop_validate(E)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        E.validate()


def _random_chois(d, m, rng):
    g = rng.normal(size=(m, d * d, d * d)) + 1j * rng.normal(size=(m, d * d, d * d))
    return list(g @ dagger(g))


@pytest.mark.parametrize("d, m", [(1, 2), (2, 3), (3, 2), (4, 5)])
def test_distance_is_the_loop_sum_bit_for_bit(d, m):
    # one state and one outcome at a time, summed from 0.0 in probe and
    # outcome order, as the stacked products and running sums must match
    rng = np.random.default_rng(10 * d + m)
    E1, E2 = (instrument(c) for c in (_random_chois(d, m, rng), _random_chois(d, m, rng)))
    total = 0.0
    for idx, v in enumerate(default_probe_vectors(d), start=1):
        rho = np.outer(v, v.conj())
        nu = 0.0
        for i in range(m):
            nu += trace_norm(E1.apply(i, rho) - E2.apply(i, rho))
        total += 2.0 ** -idx * nu
    assert instrument_distance(E1, E2) == total > 0


def test_instrument_validate_refuses_non_finite_entries():
    E = instrument_from_process(ml.build_projective_scenario(2, 1))
    E.validate()
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        chois = [c.copy() for c in E.chois]
        chois[1][2, 3] = value
        with pytest.raises(ValueError, match="outcome 1: Choi block is not finite"):
            instrument(chois).validate()
