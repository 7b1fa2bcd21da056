"""End-to-end demo scenarios.

projective: the projective-measurement model on M_k. The meter is the
level-n step's range projections W_j W_j*, its digit classes: by the
Cuntz relations they are the minimal central projections of the surrogate
commutant with the phase symmetry adjoined (the staged solve is checked
against this closed form in tests/test_uhf.py). The probe starts in the
leading product vector, and the interaction is a controlled pointer
rotation. Induces the pinching instrument rho -> rho_ii e_ii.

chi: the uniform product ladder. Checks step invariance of the uniform
product state, GNS intertwiner quality along the ladder, and the vanishing
per-factor twisted overlaps that signal inequivalent limits.

tensor-power: several commuting copies of a step image inside a tensor
power, with the surrogate center growing multiplicatively.
"""

from __future__ import annotations

import numpy as np

from . import algebra, uhf
from ._linalg import (basis_vector, frob, matrix_unit, random_density, tensor,
                      trace_norm, unitary_residual)
from .gns import gns_intertwiner, transitivity_unitary
from .instruments import (MeasuringProcess, _meter_images,
                          central_decomposition, exact_observation_residual,
                          instrument_from_process, post_interaction_state,
                          restricted_state)
from .report import Report
from .sampling import chi_square_pvalue, sample_histogram
from .states import State, fidelity, vector_state
from .uhf import AdjointAction, gamma_step, symmetry_unitary

PROJECTIVE_TOL = 1e-9  # branch-law, decomposition and readout checks
LADDER_TOL = 1e-10     # GNS intertwiner checks along the chi ladder

LIMIT_NOTE = ("separation of the observed algebra from compact perturbations "
              "is a limit statement with no finite-truncation content; "
              "recorded, not asserted")


def uniform_site_vector(k: int) -> np.ndarray:
    return np.ones(k, dtype=complex) / np.sqrt(k)


def build_projective_scenario(k: int, n: int, flavor: str = "natural",
                              apparatus_vectors: list[np.ndarray] | None = None,
                              identity_interaction: bool = False) -> MeasuringProcess:
    """Measuring process for the projective model on M_k at level n.

    The meter is the step's W_j W_j*, the digit-class diagonals in class
    order. V = [W_0 | .. | W_{k-1}] is a phased permutation, so by
    the Cuntz relations these are exactly the minimal central projections
    of the surrogate commutant with the phase symmetry adjoined, in the
    order minimal_central_projections gives; no commutant is solved.
    Pointer vectors default to the leading basis vector of each class;
    overrides must lie in the matching class ranges.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and level >= 1")
    step = gamma_step(k, n, flavor)
    meter = step.meter()
    K = k ** n
    psi = basis_vector(0, K)
    if apparatus_vectors is None:
        pointer = [basis_vector(int(rows.min()), K) for rows in step.rows]
    else:
        if len(apparatus_vectors) != k:
            raise ValueError("need one pointer vector per outcome")
        pointer = []
        for i, v in enumerate(apparatus_vectors):
            v = np.asarray(v, dtype=complex).reshape(-1)
            v = v / np.linalg.norm(v)
            if np.linalg.norm(v[meter != i]) > 1e-10:
                raise ValueError(f"pointer vector {i} is not in its meter range")
            pointer.append(v)
    if identity_interaction:
        U = np.eye(k * K, dtype=complex)
    else:
        # T_i on the i-th diagonal block; += writes its -0.0 entries as 0.0
        U = np.zeros((k * K, k * K), dtype=complex)
        for i in range(k):
            U[i * K:(i + 1) * K, i * K:(i + 1) * K] += transitivity_unitary(
                psi, pointer[i])
    return MeasuringProcess(observed_dim=k, probe_vector=psi,
                            meter=meter, unitary=U, step=step)


def _closed_form_residual(p: MeasuringProcess) -> float:
    """How far the step's index map is from a phased permutation whose
    range projections W_j W_j* are the meter: 1.0 when rows is not a
    permutation of range(N) or the meter has the wrong size, else the
    larger of the worst phase-modulus defect and the worst Frobenius
    distance of W_j W_j* from the meter projection of outcome j. O(kN) on
    the index map, and independent of the commutant solver."""
    rows, phases = p.step.rows, p.step.phases
    N = p.step.target_dim
    flat = rows.ravel()
    if flat.size != N or flat.min() < 0 or flat.max() >= N or np.any(
            np.bincount(flat, minlength=N) != 1) or p.meter.shape != (N,):
        return 1.0
    res = float(np.max(np.abs(np.abs(phases) - 1.0)))
    for j in range(len(rows)):
        diff = (p.meter == j).astype(float)
        diff[rows[j]] -= np.abs(phases[j]) ** 2
        res = max(res, frob(diff))
    return res


def run_projective_check(p: MeasuringProcess, state: State | None = None,
                         shots: int = 100_000, seed: int = 42) -> Report:
    """Full residual report for a projective-scenario process.

    With the interaction disabled (identity unitary) the checks switch to
    the no-information statements: the first outcome is certain and every
    effect is scalar.
    """
    d = p.observed_dim
    if state is None:
        state = State(random_density(d, np.random.default_rng(seed)))
    rho = state.density
    off = p.unitary.copy()  # U - 1, with no dense identity formed
    off[np.diag_indices_from(off)] -= 1
    identity_u = bool(frob(off) < 1e-14)
    del off
    n_level = getattr(p.step, "n", None)
    flavor = getattr(p.step, "flavor", "natural")
    rep = Report(meta={"seed": seed,
                       "config": {"k": d, "levels": n_level, "flavor": flavor,
                                  "d": d, "shots": shots, "seed": seed,
                                  "identity_interaction": identity_u}})
    rep.add("interaction-unitary", unitary_residual(p.unitary), 1e-12)
    # the meter projections sum to the identity less one unit per basis
    # vector that no outcome reads
    unread = np.count_nonzero((p.meter < 0) | (p.meter >= p.outcomes))
    rep.add("meter-resolution", float(np.sqrt(unread)), 1e-12)
    rep.add("surrogate-commutant-closed-form", _closed_form_residual(p), 1e-12)
    rep.add("probe-normalized", abs(np.linalg.norm(p.probe_vector) - 1.0), 1e-12)

    inst = instrument_from_process(p)
    povm = inst.povm()

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
        rep.add("effects-are-diagonal-units", res, PROJECTIVE_TOL)

        law = 0.0
        probes = [rho] + [matrix_unit(i, i, d) for i in range(d)]
        for pr in probes:
            for i in range(d):
                target = pr[i, i] * matrix_unit(i, i, d)
                law = max(law, trace_norm(inst.apply(i, pr) - target))
        rep.add("branch-law-pinching", law, PROJECTIVE_TOL)

        weights = inst.outcome_weights(state)
        rep.add("weights-match-diagonal",
                float(np.max(np.abs(weights - np.real(np.diag(rho))))), 1e-10)

        cd = central_decomposition(p, state)
        rep.add("component-purity", cd.purity_defect, 1e-10)
        rep.add("decomposition-reconstruction", cd.reconstruction_residual,
                PROJECTIVE_TOL)

        reduced = post_interaction_state(p, state)
        pinched = np.diag(np.real(np.diag(rho))).astype(complex)
        rep.add("restriction-is-pinching",
                trace_norm(restricted_state(reduced, d).density - pinched),
                PROJECTIVE_TOL)

        rep.add("exact-observation", exact_observation_residual(p), PROJECTIVE_TOL)
        ce = 0.0
        for i, image in enumerate(_meter_images(p)):
            ce = max(ce, frob(image - matrix_unit(i, i, d)))
        rep.add("conditional-expectation-meter", ce, PROJECTIVE_TOL)

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


def chi_ladder_report(k: int, levels: int = 3) -> Report:
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
        rep.add(f"ladder-isometry-level-{n}", gi.isometry_residual, LADDER_TOL)
        rep.add(f"ladder-cyclic-level-{n}", gi.cyclic_residual, LADDER_TOL)

    act = AdjointAction(symmetry_unitary(k, 2))
    tr2 = State(np.eye(k * k, dtype=complex) / (k * k))
    # pin the source to the same density so both GNS halves share one basis;
    # otherwise the degenerate spectrum lets eigh pick different frames and
    # the finite order of the implementing unitary is lost
    gi = gns_intertwiner(act, tr2, source_state=tr2)
    rep.add("symmetry-implementing-unitary", gi.isometry_residual, LADDER_TOL)
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


def tensor_power_report(k: int, n: int = 2, copies: int = 2) -> Report:
    """Commuting copies of a step image inside a tensor power: the surrogate
    center dimension and projection ranks scale multiplicatively."""
    total_dim = k ** (n * copies)
    if total_dim > 4096:
        raise ValueError("tensor power size k^(n*copies) exceeds 4096")
    if copies < 1:
        raise ValueError("need at least one copy")
    step = gamma_step(k, n, "natural")
    N1 = step.target_dim
    gens = step.generators() + [symmetry_unitary(k, n)]
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
