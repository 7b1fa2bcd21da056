import numpy as np
import pytest
import scipy.linalg as sla

import measurelab as ml
from measurelab._linalg import basis_vector, dagger, frob, matrix_unit, unitary_residual
from measurelab.dilation import instrument_of, kraus_rank, realize_instrument
from measurelab.instruments import (
    Instrument,
    MeasuringProcess,
    instrument,
    instrument_distance,
    instrument_from_process,
    random_measuring_process,
    verify_axioms,
)


def kraus_choi(ops, d):
    """Choi block of rho -> sum_k K rho K* straight from the definition."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            out = sum(K @ matrix_unit(p, q, d) @ dagger(K) for K in ops)
            for a in range(d):
                for b in range(d):
                    c[p * d + a, q * d + b] = out[a, b]
    return c


def lueders_qubit():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return instrument([kraus_choi([p0], 2), kraus_choi([p1], 2)])


def random_instrument(d, outcomes, rng):
    """Random CP instrument: Wishart Choi blocks renormalized so the dual
    maps sum to the identity."""
    chois = [None] * outcomes
    for i in range(outcomes):
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        chois[i] = (g @ g.conj().T).reshape(d, d, d, d)
    R = sum(np.einsum("paqa->pq", c) for c in chois)
    X = np.asarray(sla.fractional_matrix_power(np.linalg.inv(R), 0.5))
    fixed = [np.einsum("pr,rasb,qs->paqb", X, c, X.conj()).reshape(d * d, d * d)
             for c in chois]
    return instrument(fixed)


def test_lueders_round_trip_is_tight():
    E = lueders_qubit()
    assert verify_axioms(E).all_pass
    assert instrument_distance(E, instrument_of(realize_instrument(E))) < 1e-12


def test_dilation_structure_fields():
    E = lueders_qubit()
    dil = realize_instrument(E)
    d, m = 2, 2
    assert dil.observed_dim == d
    assert dil.probe_dim % m == 0
    assert np.array_equal(dil.probe_vector, basis_vector(0, dil.probe_dim))
    assert unitary_residual(dil.isometry) < 1e-10
    # outcome i reads the i-th slab of r probe basis vectors
    r = dil.probe_dim // m
    assert dil.meter.dtype.kind == "i"
    assert dil.meter.tolist() == [i for i in range(m) for _ in range(r)]


def test_realization_is_a_valid_measuring_process():
    E = lueders_qubit()
    proc = realize_instrument(E)
    proc.validate()
    back = instrument_from_process(proc)
    assert instrument_distance(E, back) < 1e-12


def test_round_trip_on_projective_scenarios():
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        p = ml.build_projective_scenario(k, n)
        E = instrument_from_process(p)
        assert instrument_distance(E, instrument_of(realize_instrument(E))) < 1e-8


def test_round_trip_on_random_instruments():
    rng = np.random.default_rng(0)
    for d, m in [(2, 2), (3, 2), (4, 3)]:
        E = random_instrument(d, m, rng)
        assert verify_axioms(E).all_pass
        dil = realize_instrument(E)
        back = instrument_of(dil)
        assert instrument_distance(E, back) < 1e-8


def test_round_trip_on_a_qutrit_instrument():
    rng = np.random.default_rng(1)
    E = random_instrument(3, 3, rng)
    assert instrument_distance(E, instrument_of(realize_instrument(E))) < 1e-8


def test_labels_survive_the_round_trip():
    E = Instrument(observed_dim=2, chois=lueders_qubit().chois,
                   labels=("up", "down"))
    back = instrument_of(realize_instrument(E))
    assert back.labels == ("up", "down")


def test_identity_instrument_dilates():
    # one outcome, the identity channel
    d = 2
    E = instrument([kraus_choi([np.eye(2, dtype=complex)], d)])
    dil = realize_instrument(E)
    assert instrument_distance(E, instrument_of(dil)) < 1e-12
    assert kraus_rank(dil) == 1


def loop_isometry(E, psd_tol=1e-8):
    """The realization's isometry built one outcome and one Kraus operator
    at a time, each block by its own eigh: the reference for the stacked
    build."""
    d = E.observed_dim
    families = []
    for c in E.chois:
        lam, vec = np.linalg.eigh((c + dagger(c)) / 2)
        keep = np.flatnonzero(lam > psd_tol * max(float(lam[-1]), 1.0))
        families.append([np.sqrt(lam[s]) * vec[:, s].reshape(d, d).T for s in keep])
    r = max(1, *map(len, families))
    A = np.zeros((d, len(families), r, d), dtype=complex)
    for i, ops in enumerate(families):
        for t, k_op in enumerate(ops):
            A[:, i, t, :] += k_op
    return A.reshape(-1, d)


@pytest.mark.parametrize("d, ranks", [(1, (1, 1)), (2, (1, 4, 2)), (2, (3, 3)),
                                      (3, (1, 9, 4, 2)), (3, (5,))])
def test_stacked_kraus_scatter_matches_the_loop_bit_for_bit(d, ranks):
    # outcomes of unequal Choi rank pad to the largest; the stacked eigh and
    # the indexed += give the loop's isometry byte for byte, -0.0 included
    rng = np.random.default_rng(sum(ranks))
    chois = []
    for r in ranks:
        g = rng.normal(size=(d * d, r)) + 1j * rng.normal(size=(d * d, r))
        chois.append((g @ dagger(g)).reshape(d, d, d, d))
    R = sum(np.einsum("paqa->pq", c) for c in chois)
    X = np.asarray(sla.fractional_matrix_power(np.linalg.inv(R), 0.5))
    E = instrument([np.einsum("pr,rasb,qs->paqb", X, c, X.conj()).reshape(d * d, d * d)
                    for c in chois])
    # integer blocks whose Kraus amplitudes hold -0.0 entries
    g = np.array([[0, 0], [1, -1], [-1, 0], [0, 0]], dtype=complex)
    signed = instrument([g @ dagger(g) / 2, kraus_choi([np.diag([0.0, 1.0])], 2) / 2])
    for inst in (E, lueders_qubit(), signed):
        got = realize_instrument(inst).isometry
        assert got.tobytes() == loop_isometry(inst).tobytes()
    assert kraus_rank(realize_instrument(E)) == max(ranks)


def test_near_psd_violation_is_named():
    # shift weight between the blocks so the dual normalization is untouched
    # while one Choi dips just below zero
    E = lueders_qubit()
    bad = [c.copy() for c in E.chois]
    bad[0] = bad[0] - 1e-6 * np.eye(4)
    bad[1] = bad[1] + 1e-6 * np.eye(4)
    broken = instrument(bad)
    with pytest.raises(ValueError, match="PSD tolerance"):
        realize_instrument(broken, psd_tol=1e-8)
    # loosening the gate lets the clipped factorization through
    dil = realize_instrument(broken, psd_tol=1e-3)
    assert instrument_distance(broken, instrument_of(dil)) < 1e-4


def test_kraus_rank_reflects_the_choi_ranks():
    rng = np.random.default_rng(2)
    E = random_instrument(2, 2, rng)
    dil = realize_instrument(E)
    want = max(int(np.linalg.matrix_rank(c, tol=1e-10)) for c in E.chois)
    assert kraus_rank(dil) == want


def test_dilated_instrument_passes_the_axioms():
    rng = np.random.default_rng(3)
    E = random_instrument(3, 2, rng)
    back = instrument_of(realize_instrument(E))
    assert verify_axioms(back).all_pass


def test_kraus_rank_refuses_a_probe_its_outcomes_do_not_divide():
    # two outcomes on a 5-dimensional probe: no padded rank r has 2 r = 5
    p = MeasuringProcess(observed_dim=1, probe_vector=basis_vector(0, 5),
                         meter=np.array([0, 0, 1, 1, 1]),
                         isometry=basis_vector(0, 5)[:, None], labels=("a", "b"))
    p.validate()
    with pytest.raises(ValueError, match="do not divide"):
        kraus_rank(p)
