"""End-to-end demo scenarios.

projective: the projective-measurement model on M_k. The meter is the
center of the symmetry-refined surrogate commutant at truncation level n,
the probe starts in the leading product vector, and the interaction is a
controlled pointer rotation. Induces the pinching instrument
rho -> rho_ii e_ii.

chi: the uniform product ladder. Checks step invariance of the uniform
product state, GNS intertwiner quality along the ladder, and the vanishing
per-factor twisted overlaps that signal inequivalent limits.

tensor-power: several commuting copies of a step image inside a tensor
power, with the surrogate center growing multiplicatively.
"""

from __future__ import annotations

import numpy as np

from . import algebra, uhf
from ._linalg import (basis_vector, cyclic_shift, frob, matrix_unit,
                      random_density, tensor, trace_norm, unitary_residual)
from .gns import gns_intertwiner, transitivity_unitary
from .instruments import (MeasuringProcess, central_decomposition,
                          conditional_expectation, exact_observation_residual,
                          instrument_from_process, post_interaction_state,
                          restricted_state)
from .report import Report
from .sampling import chi_square_pvalue, sample_histogram
from .states import State, fidelity, vector_state
from .uhf import (AdjointAction, gamma_step, surrogate_commutant,
                  symmetry_unitary)

LIMIT_NOTE = ("separation of the observed algebra from compact perturbations "
              "is a limit statement with no finite-truncation content; "
              "recorded, not asserted")


def uniform_site_vector(k: int) -> np.ndarray:
    return np.ones(k, dtype=complex) / np.sqrt(k)


def build_projective_scenario(k: int, n: int, flavor: str = "natural",
                              apparatus_vectors: list[np.ndarray] | None = None,
                              identity_interaction: bool = False) -> MeasuringProcess:
    """Measuring process for the projective model on M_k at level n.

    Meter projections are the minimal central projections of the surrogate
    commutant with the phase symmetry adjoined (the digit classes, in
    canonical order). Pointer vectors default to the leading basis vector
    of each class; overrides must lie in the matching class ranges.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and level >= 1")
    step = gamma_step(k, n, flavor)
    sur = surrogate_commutant(step.image_subalgebra(), adjoin_symmetry=True)
    projections = algebra.minimal_central_projections(sur)
    if len(projections) != k:
        raise RuntimeError(
            f"surrogate center has {len(projections)} minimal projections, "
            f"expected {k}")
    K = k ** n
    psi = basis_vector(0, K)
    if apparatus_vectors is None:
        pointer = []
        for i, e in enumerate(projections):
            q = int(np.flatnonzero(np.real(np.diag(e)) > 0.5)[0])
            pointer.append(basis_vector(q, K))
    else:
        if len(apparatus_vectors) != k:
            raise ValueError("need one pointer vector per outcome")
        pointer = []
        for i, v in enumerate(apparatus_vectors):
            v = np.asarray(v, dtype=complex).reshape(-1)
            v = v / np.linalg.norm(v)
            if np.linalg.norm(projections[i] @ v - v) > 1e-10:
                raise ValueError(f"pointer vector {i} is not in its meter range")
            pointer.append(v)
    if identity_interaction:
        U = np.eye(k * K, dtype=complex)
    else:
        blocks = [transitivity_unitary(psi, pointer[i]) for i in range(k)]
        U = np.zeros((k * K, k * K), dtype=complex)
        for i in range(k):
            U += np.kron(matrix_unit(i, i, k), blocks[i])
    return MeasuringProcess(observed_dim=k, probe_vector=psi,
                            projections=tuple(projections), unitary=U,
                            step=step, flavor=flavor)


def run_projective_check(p: MeasuringProcess, state: State | None = None,
                         shots: int = 100_000, seed: int = 42,
                         tol: float = 1e-9) -> Report:
    """Full residual report for a projective-scenario process.

    With the interaction disabled (identity unitary) the checks switch to
    the no-information statements: the first outcome is certain and every
    effect is scalar.
    """
    d = p.observed_dim
    if state is None:
        state = State(random_density(d, np.random.default_rng(seed)))
    rho = state.density
    n_level = getattr(p.step, "n", None)
    rep = Report(meta={"seed": seed,
                       "config": {"k": d, "levels": n_level, "flavor": p.flavor,
                                  "d": d, "shots": shots, "seed": seed,
                                  "identity_interaction": bool(
                                      frob(p.unitary - np.eye(p.unitary.shape[0])) < 1e-14)}})
    rep.add("interaction-unitary", unitary_residual(p.unitary), 1e-12)
    total = sum(p.projections)
    rep.add("meter-resolution", frob(total - np.eye(p.probe_dim)), 1e-12)
    rep.add("probe-normalized", abs(np.linalg.norm(p.probe_vector) - 1.0), 1e-12)

    inst = instrument_from_process(p)
    povm = inst.povm()
    identity_u = rep.meta["config"]["identity_interaction"]

    if identity_u:
        res = frob(povm[0] - np.eye(d))
        for e in povm[1:]:
            res = max(res, frob(e))
        rep.add("no-information-first-outcome", res, 1e-12)
        scal = 0.0
        for e in povm:
            t = np.trace(e) / d
            scal = max(scal, frob(e - t * np.eye(d)))
        rep.add("effects-scalar", scal, 1e-12)
        rep.notes.append("interaction disabled: the meter reads nothing and "
                         "the outcome distribution is degenerate")
        weights = inst.outcome_weights(state)
    else:
        res = max(frob(povm[i] - matrix_unit(i, i, d)) for i in range(d))
        rep.add("effects-are-diagonal-units", res, tol)

        law = 0.0
        probes = [rho] + [matrix_unit(i, i, d) for i in range(d)]
        for pr in probes:
            for i in range(d):
                target = pr[i, i] * matrix_unit(i, i, d)
                law = max(law, trace_norm(inst.apply(i, pr) - target))
        rep.add("branch-law-pinching", law, tol)

        weights = inst.outcome_weights(state)
        rep.add("weights-match-diagonal",
                float(np.max(np.abs(weights - np.real(np.diag(rho))))), 1e-10)

        cd = central_decomposition(p, state)
        rep.add("component-purity", cd.purity_defect, 1e-10)
        rep.add("component-orthogonality", cd.support_overlap, tol)
        rep.add("decomposition-reconstruction", cd.reconstruction_residual, tol)

        reduced = post_interaction_state(p, state)
        pinched = np.diag(np.real(np.diag(rho))).astype(complex)
        rep.add("restriction-is-pinching",
                trace_norm(restricted_state(reduced, d).density - pinched), tol)

        rep.add("exact-observation", exact_observation_residual(p), tol)
        eye_d = np.eye(d, dtype=complex)
        ce = 0.0
        for i, e in enumerate(p.projections):
            img = conditional_expectation(p, tensor(eye_d, e))
            ce = max(ce, frob(img - matrix_unit(i, i, d)))
        rep.add("conditional-expectation-meter", ce, tol)

    rep.derived["weights"] = weights
    if shots > 0:
        hist = sample_histogram(weights, shots, seed, labels=p.labels)
        stat, pval = chi_square_pvalue(hist.counts, hist.probabilities)
        rep.add("sampling-consistency", 1.0 - pval, 1.0 - 1e-3)
        rep.derived["histogram"] = {"counts": hist.counts,
                                    "chi2_stat": stat, "p_value": pval,
                                    "shots": shots}
    rep.notes.append(LIMIT_NOTE)
    return rep


def chi_ladder_report(k: int, levels: int = 3, tol: float = 1e-10) -> Report:
    """Uniform-product ladder: invariance, GNS intertwiners, and the
    vanishing twisted overlaps."""
    if levels < 2:
        raise ValueError("need at least two levels")
    rep = Report(meta={"seed": 0,
                       "config": {"k": k, "levels": levels, "flavor": "natural"}})
    site = uniform_site_vector(k)
    v = uhf.phase_unitary(k)
    overlaps = []
    for j in range(1, k):
        twisted = vector_state(np.linalg.matrix_power(v, j) @ site)
        f = fidelity(vector_state(site), twisted)
        overlaps.append(f)
        rep.add(f"twisted-overlap-power-{j}", f, 1e-12)
    rep.derived["per_factor_overlaps"] = overlaps
    rep.derived["overlap_product_per_level"] = float(np.prod(overlaps)) if overlaps else 1.0

    top = vector_state(np.ones(k ** levels, dtype=complex) / k ** (levels / 2))
    V_top = symmetry_unitary(k, levels)
    for j in range(1, k):
        pulled = AdjointAction(np.linalg.matrix_power(V_top, j)).pullback_density(
            top.density)
        rep.add(f"disjointness-probe-power-{j}",
                fidelity(top, State(pulled)), 1e-12)

    for n in range(2, levels + 1):
        step = gamma_step(k, n, "natural")
        chi_n = vector_state(np.ones(k ** n, dtype=complex) / k ** (n / 2))
        chi_prev = vector_state(np.ones(k ** (n - 1), dtype=complex) / k ** ((n - 1) / 2))
        pulled = step.pullback_density(chi_n.density)
        rep.add(f"state-invariance-level-{n}",
                frob(pulled - chi_prev.density), 1e-12)
        gi = gns_intertwiner(step, chi_n)
        rep.add(f"ladder-isometry-level-{n}", gi.isometry_residual, tol)
        rep.add(f"ladder-cyclic-level-{n}", gi.cyclic_residual, tol)

    act = AdjointAction(symmetry_unitary(k, 2))
    tr2 = State(np.eye(k * k, dtype=complex) / (k * k))
    # pin the source to the same density so both GNS halves share one basis;
    # otherwise the degenerate spectrum lets eigh pick different frames and
    # the finite order of the implementing unitary is lost
    gi = gns_intertwiner(act, tr2, source_state=tr2)
    rep.add("symmetry-implementing-unitary", gi.isometry_residual, tol)
    Vr = gi.matrix
    rep.add("symmetry-unitary-order",
            frob(np.linalg.matrix_power(Vr, k) - np.eye(Vr.shape[0])), 1e-10)

    rep.notes.append("per-factor twisted overlaps vanish, so the overlap "
                     "product collapses at every level; the limiting uniform "
                     "and twisted product states generate inequivalent "
                     "representations (indicated at finite level, not asserted)")
    rep.notes.append("disjointness probes use the symmetry-twisted family "
                     "(the uniform product composed with powers of the phase "
                     "symmetry); the uniform product is itself invariant under "
                     "the ladder steps, so twisting by the symmetry is the "
                     "family that can separate")
    rep.notes.append("the uniform site vector is the unique unit vector fixed "
                     "by the cyclic shift up to phase; its normalization "
                     "1/sqrt(k) per factor is forced")
    return rep


def tensor_power_report(k: int, n: int = 2, copies: int = 2,
                        tol: float = 1e-9) -> Report:
    """Commuting copies of a step image inside a tensor power: the surrogate
    center dimension and projection ranks scale multiplicatively."""
    total_dim = k ** (n * copies)
    if total_dim > 4096:
        raise ValueError("tensor power size k^(n*copies) exceeds 4096")
    if copies < 1:
        raise ValueError("need at least one copy")
    step = gamma_step(k, n, "natural")
    m_src = step.source_dim
    N1 = step.target_dim
    gens = [step(cyclic_shift(m_src)), step(matrix_unit(0, 0, m_src)),
            symmetry_unitary(k, n)]
    cons = []
    for c in range(copies):
        left = np.eye(N1 ** c, dtype=complex)
        right = np.eye(N1 ** (copies - c - 1), dtype=complex)
        for g in gens:
            cons.append(tensor(left, g, right))
    sur = algebra.commutant(cons)
    expected_dim = k ** copies
    rep = Report(meta={"seed": 0,
                       "config": {"k": k, "levels": n, "copies": copies}})
    rep.add("surrogate-dimension", abs(sur.dim - expected_dim), 0.1)
    projections = algebra.minimal_central_projections(sur)
    rep.add("projection-count", abs(len(projections) - expected_dim), 0.1)
    expected_rank = k ** (copies * (n - 1))
    ranks = [int(round(float(np.real(np.trace(e))))) for e in projections]
    rep.add("projection-ranks",
            max(abs(r - expected_rank) for r in ranks), 0.1)
    rep.add("projections-resolve-identity",
            frob(sum(projections) - np.eye(total_dim)), 1e-10)
    rep.derived["surrogate_dimension"] = sur.dim
    rep.derived["projection_ranks"] = ranks
    return rep
