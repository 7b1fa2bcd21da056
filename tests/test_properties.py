"""Property checks of the instrument algebra over seeded random inputs."""

import dataclasses
import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from measurelab._linalg import (basis_vector, dagger, haar_unitary,
                               matrix_unit, random_density,
                               random_state_vector, trace_norm)
from measurelab.dilation import instrument_of, realize_instrument
from measurelab.instruments import (Instrument, MeasuringProcess,
                                    _step_factors,
                                    central_decomposition,
                                    instrument_distance,
                                    instrument_from_process,
                                    random_measuring_process, verify_axioms)
from measurelab import sampling
from measurelab.scenarios import (build_projective_scenario, chi_ladder_report,
                                  run_projective_check, tensor_power_report)
from measurelab.serialize import dilation_to_json, dumps
from measurelab.states import State
from measurelab.uhf import gamma_step

from helpers import assert_payload_holds, assert_valid_process


def random_choi_instrument(d: int, outcomes: int, seed: int) -> Instrument:
    """Gaussian Kraus operators G_ik, made a channel in total by
    K_ik = G_ik S^(-1/2) with S = sum G_ik* G_ik; outcome i gets between one
    and d^2 of them. Choi block C[(p,a),(q,b)] = sum_k K[a,p] conj(K[b,q])."""
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, d * d + 1, size=outcomes)
    G = [rng.normal(size=(r, d, d)) + 1j * rng.normal(size=(r, d, d))
         for r in ranks]
    S = sum(np.einsum("kap,kaq->pq", g.conj(), g) for g in G)
    lam, vec = np.linalg.eigh(S)
    root = (vec / np.sqrt(lam)) @ vec.conj().T
    chois = []
    for g in G:
        vecs = (g @ root).transpose(0, 2, 1).reshape(len(g), d * d)
        chois.append(vecs.T @ vecs.conj())
    return Instrument(observed_dim=d, chois=tuple(chois))


def dense_meter_chois(p: MeasuringProcess) -> list[np.ndarray]:
    """Choi blocks of a process from dense meter projections: the range
    basis B of each projection from its eigh, then the Gram matrix of the
    Kraus family (1 (x) B*) V."""
    d = p.observed_dim
    V4 = p.isometry.reshape(d, p.probe_dim, d, -1)
    chois = []
    for i in range(p.outcomes):
        lam, vec = np.linalg.eigh(np.diag((p.meter == i).astype(complex)))
        G = np.einsum("aspl,st->patl", V4, vec[:, lam > 0.5].conj(),
                      optimize=True).reshape(d * d, -1)
        chois.append(G @ dagger(G))
    return chois


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), K=st.integers(1, 12), outcomes=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_label_meter_chois_match_dense_projections(d, K, outcomes, seed):
    """A random label meter (some outcomes may read no basis vector), a
    Haar interaction and a random probe vector: gathering the probe rows
    each outcome reads gives the dense-projection Choi blocks."""
    rng = np.random.default_rng(seed)
    psi = random_state_vector(K, rng)
    # U (1 (x) psi): column a is U's block column a applied to psi
    p = MeasuringProcess(observed_dim=d, probe_vector=psi,
                         meter=rng.integers(0, outcomes, size=K),
                         isometry=haar_unitary(d * K, rng).reshape(d * K, d, K) @ psi,
                         labels=tuple(f"E{i + 1}" for i in range(outcomes)))
    assert_valid_process(p)
    got = instrument_from_process(p).chois
    want = dense_meter_chois(p)
    assert len(got) == outcomes
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-15


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), K=st.integers(1, 12), outcomes=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_label_meter_dilation_json_round_trips(d, K, outcomes, seed):
    """A random label meter (some outcomes may read no basis vector), a
    Haar interaction's isometry and a random probe vector are written
    exactly: decoded field by field, the JSON text holds them bit for bit,
    and emitting the decoded document again gives that text."""
    rng = np.random.default_rng(seed)
    labels = tuple(f"o{i}" for i in rng.permutation(outcomes))
    psi = random_state_vector(K, rng)
    p = MeasuringProcess(observed_dim=d, probe_vector=psi,
                         meter=rng.integers(0, outcomes, size=K),
                         isometry=haar_unitary(d * K, rng).reshape(d * K, d, K) @ psi,
                         labels=labels)
    text = dumps(dilation_to_json(p))
    assert_payload_holds(json.loads(text), p)
    assert dumps(json.loads(text)) == text


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([2, 3]), outcomes=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_instruments_realize_and_serialize(d, outcomes, seed):
    E = random_choi_instrument(d, outcomes, seed)
    assert verify_axioms(E).all_pass
    dil = realize_instrument(E)
    induced = instrument_of(dil)
    assert instrument_distance(E, induced) < 1e-8
    # on the slab meter the gather gives the dense-projection Choi blocks
    # bit for bit
    for a, b in zip(induced.chois, dense_meter_chois(dil)):
        assert np.array_equal(a, b)
    text = dumps(dilation_to_json(dil))
    assert_payload_holds(json.loads(text), dil)
    assert dumps(json.loads(text)) == text


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from([2, 3]), n=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_induced_instruments_satisfy_the_axioms(k, n, seed):
    p = random_measuring_process(k, n, np.random.default_rng(seed))
    assert verify_axioms(instrument_from_process(p)).all_pass


@settings(max_examples=20, deadline=None)
@given(kn=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                           (3, 3), (4, 2), (4, 3)]),
       flavor=st.sampled_from(["natural", "generic"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_step_gathers_match_the_dense_isometries(kn, flavor, seed):
    k, n = kn
    step = gamma_step(k, n, flavor)
    m = step.source_dim
    rng = np.random.default_rng(seed)
    # any unit phases on the index map keep a Cuntz family, and unlike the
    # built flavors they do not enter each digit class as one global phase
    twisted = dataclasses.replace(
        step, phases=np.exp(2j * np.pi * rng.random(step.phases.shape)))
    for variant in (step, twisted):
        # W_j e_q = phases[j, q] e_{rows[j, q]}
        W = (np.eye(variant.target_dim, dtype=complex)[variant.rows]
             .swapaxes(1, 2) * variant.phases[:, None, :])
        x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        image = variant(x)
        assert np.abs(image - sum(w @ x @ dagger(w) for w in W)).max() < 1e-13
    basis = step.image_subalgebra().basis
    for q in range(m):
        for t in range(m):
            want = step(matrix_unit(q, t, m)) / np.sqrt(k)
            assert np.abs(basis[q * m + t] - want).max() < 1e-15


def dense_projective_unitary(k, n, pointers):
    """The projective interaction as a dense (kK)^2 unitary: the block
    diagonal of unitaries T_a with T_a psi = pointer_a, psi the probe's
    first basis vector. T_a is a complete QR factor of pointer_a with its
    first column set to pointer_a."""
    K = k ** n
    U = np.zeros((k * K, k * K), dtype=complex)
    for a, v in enumerate(pointers):
        T = np.linalg.qr(v[:, None], mode="complete")[0]
        T[:, 0] = v
        U[a * K:(a + 1) * K, a * K:(a + 1) * K] = T
    return U


@settings(max_examples=30, deadline=None)
@given(kn=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                           (3, 3), (4, 2)]),
       flavor=st.sampled_from(["natural", "generic"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_complex_pointer_isometry_matches_the_dense_unitary(kn, flavor, seed):
    """A process built from complex pointer vectors, each on a random part
    of its class range, with the probe's first basis vector and the pointer
    rotation V e_a = e_a (x) pointer_a, and a step given random unit phases
    (which keep every W_j and its range): V, the Choi blocks, the meter images, the thin step factors
    and the thin decomposition and restriction figures agree with the
    dense U (1 (x) psi) and with dense W_j built from rows and phases."""
    k, n = kn
    K = k ** n
    rng = np.random.default_rng(seed)
    step = gamma_step(k, n, flavor)
    meter = step.meter()
    pointers = []
    for a in range(k):
        v = np.zeros(K, dtype=complex)
        support = np.flatnonzero(meter == a)
        keep = support[rng.random(support.size) < 0.7]
        keep = keep if keep.size else support[:1]
        v[keep] = rng.normal(size=keep.size) + 1j * rng.normal(size=keep.size)
        pointers.append(v / np.linalg.norm(v))
    V = np.zeros((k, K, k), dtype=complex)
    for a, v in enumerate(pointers):
        V[a, :, a] = v
    p = MeasuringProcess(observed_dim=k, probe_vector=basis_vector(0, K),
                         meter=meter, isometry=V.reshape(k * K, k), step=step)
    assert_valid_process(p)
    U = dense_projective_unitary(k, n, pointers)
    lift = np.kron(np.eye(k), p.probe_vector[:, None])
    V = U @ lift
    assert p.isometry.shape == (k * K, k)
    assert np.abs(p.isometry - V).max() < 1e-14

    projections = [np.kron(np.eye(k), np.diag((meter == i).astype(complex)))
                   for i in range(k)]
    # the effects are the meter images V*(1 (x) P_i)V
    E = instrument_from_process(p)
    want_images = [dagger(V) @ P @ V for P in projections]
    for got, want in zip(E.povm(), want_images):
        assert np.abs(got - want).max() < 1e-14
    # Choi blocks from the dense branch maps on matrix units
    for i, P in enumerate(projections):
        want = np.zeros((k * k, k * k), dtype=complex)
        for a in range(k):
            for b in range(k):
                rho = np.kron(matrix_unit(a, b, k), np.outer(
                    p.probe_vector, p.probe_vector.conj()))
                out = np.trace((P @ U @ rho @ dagger(U) @ P).reshape(
                    k, K, k, K), axis1=1, axis2=3)
                want.reshape(k, k, k, k)[a, :, b, :] = out
        assert np.abs(E.chois[i] - want).max() < 1e-14

    phases = np.exp(2j * np.pi * rng.random(step.phases.shape))
    p = dataclasses.replace(p, step=dataclasses.replace(step, phases=phases))
    W = (np.eye(K, dtype=complex)[step.rows].swapaxes(1, 2)
         * phases[:, None, :])
    rho = random_density(k, rng)
    post = U @ np.kron(rho, np.outer(p.probe_vector, p.probe_vector.conj())) \
        @ dagger(U)
    raws = []
    for w in W:
        L = np.kron(np.eye(k), w)
        raw = dagger(L) @ post @ L
        raws.append((raw + dagger(raw)) / 2)
    total = sum(raws)
    Y = _step_factors(p)
    assert np.abs(sum(Y @ rho @ dagger(Y)) - total).max() < 1e-14
    weights = np.array([max(np.trace(r).real, 0.0) for r in raws])
    recon = trace_norm(total - total / np.trace(total).real * weights.sum())
    purity = max([0.0] + [float(np.linalg.eigvalsh(r / w)[-2])
                          for r, w in zip(raws, weights) if w > 1e-8])
    dec = central_decomposition(p, State(rho))
    assert np.abs(dec.weights - weights).max() < 1e-14
    assert abs(dec.reconstruction_residual - recon) < 1e-14
    assert abs(dec.purity_defect - purity) < 1e-14

    rep = run_projective_check(p, state=State(rho), shots=0)
    assert rep.all_pass, [c.name for c in rep.failures()]
    by_name = {c.name: c.residual for c in rep.checks}
    pinched = np.diag(np.real(np.diag(rho)))
    restricted = np.trace(total.reshape(k, K // k, k, K // k), axis1=1, axis2=3)
    assert abs(by_name["restriction-is-pinching"]
               - trace_norm(restricted - pinched)) < 1e-14
    assert by_name["interaction-isometry"] < 1e-14


@settings(max_examples=25, deadline=None)
@given(kn=st.sampled_from([(k, n) for k in range(2, 9) for n in range(1, 7)
                           if k ** n <= 64]),
       flavor=st.sampled_from(["natural", "generic"]),
       rank=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_projective_reports_pass_and_read_the_diagonal(kn, flavor, rank, seed):
    """Over small ladders, both flavors and random states of any rank, every
    projective check passes, the meter is exactly the step's W_j W_j*, and
    the outcome weights are the state's diagonal."""
    k, n = kn
    rng = np.random.default_rng(seed)
    r = min(rank, k)
    g = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    rep = run_projective_check(build_projective_scenario(k, n, flavor),
                               state=State(rho), shots=0)
    assert rep.all_pass, [c.name for c in rep.failures()]
    closed = {c.name: c.residual for c in rep.checks}[
        "surrogate-commutant-closed-form"]
    # generic phases are products of exp(i pi a / k), whose computed modulus
    # can miss 1 by an ulp; the natural phases are exactly 1
    assert closed == 0.0 if flavor == "natural" else closed < 1e-14
    weights = np.asarray(rep.derived["weights"])
    assert np.abs(weights - np.real(np.diag(rho))).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), outcomes=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_branch_maps_follow_the_choi_definition(d, outcomes, seed):
    """Every branch map agrees with the contraction that defines it from
    the Choi block, E_i(rho)[a,b] = sum_pq rho[p,q] C[(p,a),(q,b)], and its
    dual with E_i*(x)[q,p] = sum_ab C[(p,a),(q,b)] x[b,a]."""
    E = random_choi_instrument(d, outcomes, seed)
    rng = np.random.default_rng(seed)
    rho = random_density(d, rng)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c4 = [c.reshape(d, d, d, d) for c in E.chois]
    branch = [np.einsum("pq,paqb->ab", rho, c) for c in c4]
    dual = [np.einsum("paqb,ba->qp", c, x) for c in c4]
    effect = [np.einsum("paqb,ba->qp", c, np.eye(d)) for c in c4]
    for i in range(outcomes):
        assert np.abs(E.apply(i, rho) - branch[i]).max() < 1e-12
        assert np.abs(E.dual_apply(i, x) - dual[i]).max() < 1e-12
        assert np.abs(E.povm()[i] - effect[i]).max() < 1e-12
    weights = np.clip([np.trace(b).real for b in branch], 0.0, None)
    assert np.abs(E.outcome_weights(State(rho)) - weights).max() < 1e-12


def searchsorted_counts(weights, shots, seed):
    """The inverse-CDF sampler written as a binary search over one whole
    draw of the seeded stream."""
    w = np.asarray(weights, dtype=float)
    edges = np.cumsum(w / w.sum())
    edges[-1] = 1.0
    u = np.random.Generator(np.random.Philox(key=seed)).random(shots)
    idx = np.minimum(np.searchsorted(edges, u, side="right"), w.size - 1)
    return np.bincount(idx, minlength=w.size)


WEIGHT = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(weights=st.one_of(st.lists(WEIGHT, min_size=1, max_size=8),
                         st.lists(WEIGHT, min_size=120, max_size=200)),
       trailing=st.integers(0, 3),
       shots=st.one_of(st.integers(1, 3000),
                       st.integers(sampling._CHUNK - 2, sampling._CHUNK + 2)),
       seed=st.integers(0, 2 ** 31))
@example(weights=[1.0], trailing=0, shots=sampling._CHUNK + 1, seed=3)
# six and thirteen equal weights sum past 1.0 (by 1 and 2 ulps) before
# their trailing zeros
@example(weights=[1.0] * 6, trailing=2, shots=sampling._CHUNK, seed=8)
@example(weights=[1.0] * 13, trailing=1, shots=2000, seed=5)
def test_sample_counts_match_a_binary_search(weights, trailing, shots, seed):
    """Over zero weights, trailing zero weights (where the cumulative sum can
    reach 1 before the last edge), one outcome, more than a hundred
    outcomes and shot counts on both sides of a chunk, the counts are
    exactly those of a binary search over the same draws."""
    weights = np.array(list(weights) + [0.0] * trailing, dtype=float)
    assume(weights.sum() > 0)
    weights /= weights.sum()
    got = sampling.sample_counts(weights, shots, seed)
    assert got.dtype == np.int64
    assert got.tolist() == searchsorted_counts(weights, shots, seed).tolist()


@settings(max_examples=6, deadline=None)
@given(kl=st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]))
def test_chi_ladder_reports_pass(kl):
    k, levels = kl
    rep = chi_ladder_report(k, levels)
    assert rep.all_pass, [c.name for c in rep.failures()]
    names = {c.name for c in rep.checks}
    assert {f"ladder-cyclic-level-{n}" for n in range(2, levels + 1)} <= names
    assert not any(name.startswith("ladder-isometry") for name in names)
    assert len(rep.derived["per_factor_overlaps"]) == k - 1


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from([2, 3]), n=st.integers(1, 3), copies=st.integers(1, 3))
def test_tensor_power_reports_scale_multiplicatively(k, n, copies):
    assume(k ** (n * copies) <= 81)
    rep = tensor_power_report(k, n, copies)
    assert rep.all_pass, [c.name for c in rep.failures()]
    assert rep.derived["surrogate_dimension"] == k ** copies
    assert rep.derived["projection_ranks"] == [k ** (copies * (n - 1))] * k ** copies
