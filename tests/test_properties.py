"""Property checks of the instrument algebra over seeded random inputs."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from measurelab.dilation import instrument_of, realize_instrument
from measurelab.instruments import (Instrument, instrument_distance,
                                    instrument_from_process,
                                    random_measuring_process, verify_axioms)
from measurelab.serialize import dilation_from_json, dilation_to_json, dumps


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


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([2, 3]), outcomes=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_instruments_realize_and_serialize(d, outcomes, seed):
    E = random_choi_instrument(d, outcomes, seed)
    assert verify_axioms(E).all_pass
    dil = realize_instrument(E)
    assert instrument_distance(E, instrument_of(dil)) < 1e-8
    text = dumps(dilation_to_json(dil))
    assert dumps(dilation_to_json(dilation_from_json(json.loads(text)))) == text


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from([2, 3]), n=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_induced_instruments_satisfy_the_axioms(k, n, seed):
    p = random_measuring_process(k, n, np.random.default_rng(seed))
    assert verify_axioms(instrument_from_process(p)).all_pass
