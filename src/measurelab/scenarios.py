"""End-to-end demo scenarios.

projective: the projective-measurement model on M_k. The meter is the
level-n step's range projections W_j W_j*, its digit classes: by the
Cuntz relations they are the minimal central projections of the surrogate
commutant with the phase symmetry adjoined (the staged solve is checked
against this closed form in tests/test_uhf.py). The probe starts in the
leading product vector, and the interaction is a controlled pointer
rotation, held as its isometry e_a -> e_a (x) pointer_a. Induces the
pinching instrument rho -> rho_ii e_ii.

chi: the uniform product ladder. Checks step invariance of the uniform
product state, GNS intertwiner quality along the ladder, and the vanishing
per-factor twisted overlaps that signal inequivalent limits. Along a
natural step the intertwiner is (1/sqrt k) sum_j W_j, read straight off
the step's rows and phases (_ladder_level_residuals), so every level check
is O(N) and no N x N density is formed; only the level-2 symmetry check
runs the generic GNS engine.

tensor-power: several commuting copies of a step image inside a tensor
power, with the surrogate center growing multiplicatively.
"""

from __future__ import annotations

import numpy as np

from . import algebra, uhf
from ._linalg import (basis_vector, frob, frobs, random_density, row_chunks,
                      trace_norm, unitary_residual)
from .gns import gns_intertwiner
from .instruments import (MeasuringProcess, _meter_images, _step_factors,
                          _worst, central_decomposition,
                          exact_observation_residual, instrument_from_process)
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
                              identity_interaction: bool = False) -> MeasuringProcess:
    """Measuring process for the projective model on M_k at level n.

    The meter is the step's W_j W_j*, the digit-class diagonals in class
    order. V = [W_0 | .. | W_{k-1}] is a phased permutation, so by
    the Cuntz relations these are exactly the minimal central projections
    of the surrogate commutant with the phase symmetry adjoined, in the
    order minimal_central_projections gives; no commutant is solved.
    The pointer of each class is its leading basis vector. The interaction
    rotates the probe vector psi to pointer a when the observed system is
    in e_a; it is held as its isometry V, whose column a is
    e_a (x) pointer_a (e_a (x) psi with the interaction disabled).
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and level >= 1")
    step = gamma_step(k, n, flavor)
    K = k ** n
    V = np.zeros((k, K, k), dtype=complex)
    for a, rows in enumerate(step.rows):
        # pointer_a is a basis vector, psi = e_0 with the interaction disabled
        V[a, 0 if identity_interaction else rows.min(), a] = 1.0
    return MeasuringProcess(observed_dim=k, probe_vector=basis_vector(0, K),
                            meter=step.meter(), isometry=V.reshape(k * K, k),
                            step=step)


def _is_permutation(rows: np.ndarray, N: int) -> bool:
    """Whether a step's index map sends its (j, q) onto range(N) one to one."""
    flat = rows.ravel()
    return bool(flat.size == N and flat.min() >= 0 and flat.max() < N
                and np.all(np.bincount(flat, minlength=N) == 1))


def _closed_form_residual(p: MeasuringProcess) -> float:
    """How far the step's index map is from a phased permutation whose
    range projections W_j W_j* are the meter: 1.0 when rows is not a
    permutation of range(N) or the meter has the wrong size, else the
    larger of the worst phase-modulus defect and the worst Frobenius
    distance of W_j W_j* from the meter projection of outcome j. O(kN) on
    the index map, and independent of the commutant solver."""
    rows, phases = p.step.rows, p.step.phases
    N = p.step.target_dim
    if not _is_permutation(rows, N) or p.meter.shape != (N,):
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

    With the interaction disabled (V = 1 (x) psi) the checks switch to
    the no-information statements: the first outcome is certain and every
    effect is scalar. Every check reads V, the Choi blocks or the thin
    step factors Y_j = (1 (x) W_j*) V; no (dK)^2 or (dm)^2 array is formed.
    shots = 0 draws no sample.
    """
    if shots < 0:
        raise ValueError("shot count must not be negative")
    d = p.observed_dim
    if state is None:
        state = State(random_density(d, np.random.default_rng(seed)))
    rho = state.density
    # ||V - 1 (x) psi||_F from the (a, b) blocks of V, the diagonal ones
    # less psi, over row chunks of the probe so no copy of V is held; with
    # one chunk it is the block-by-block sum
    V3 = p.isometry.reshape(d, -1, d)
    off = 0.0
    for rows, psi in zip(row_chunks(V3.transpose(1, 0, 2)), row_chunks(p.probe_vector)):
        blocks = rows.transpose(1, 2, 0).copy()
        blocks[np.arange(d), np.arange(d)] -= psi
        off += sum(x ** 2 for x in frobs(blocks.reshape(d * d, 1, -1)).tolist())
    identity_u = bool(np.sqrt(off) < 1e-14)
    n_level = getattr(p.step, "n", None)
    flavor = getattr(p.step, "flavor", "natural")
    rep = Report(meta={"seed": seed,
                       "config": {"k": d, "levels": n_level, "flavor": flavor,
                                  "d": d, "shots": shots, "seed": seed,
                                  "identity_interaction": identity_u}})
    rep.add("interaction-isometry", unitary_residual(p.isometry), 1e-12)
    # the meter projections sum to the identity less one unit per basis
    # vector that no outcome reads
    unread = np.count_nonzero((p.meter < 0) | (p.meter >= p.outcomes))
    rep.add("meter-resolution", float(np.sqrt(unread)), 1e-12)
    rep.add("surrogate-commutant-closed-form", _closed_form_residual(p), 1e-12)
    rep.add("probe-normalized", abs(np.linalg.norm(p.probe_vector) - 1.0), 1e-12)

    inst = instrument_from_process(p)
    povm = inst.povm()
    units = np.eye(d)[:, :, None] * np.eye(d)   # units[i] = e_ii

    if identity_u:
        rep.add("no-information-first-outcome",
                max([frob(povm[0] - np.eye(d)), *frobs(povm[1:]).tolist()]), 1e-12)
        t = np.trace(povm, axis1=1, axis2=2) / d
        rep.add("effects-scalar",
                _worst(frobs(povm - t[:, None, None] * np.eye(d))), 1e-12)
        rep.notes.append("interaction disabled: the meter reads nothing and "
                         "the outcome distribution is degenerate")
        weights = inst.outcome_weights(state)
    else:
        rep.add("effects-are-diagonal-units", max(frobs(povm - units).tolist()),
                PROJECTIVE_TOL)

        # E_i(pr) - pr_ii e_ii for pr = rho and each e_jj, outcomes i < d
        probes = np.concatenate([rho[None], units])
        kept = np.diagonal(probes, axis1=1, axis2=2)[:, :, None, None] * units
        law = trace_norm(np.stack([inst.apply(i, probes) for i in range(d)], axis=1)
                         - kept)
        rep.add("branch-law-pinching", float(law.max()), PROJECTIVE_TOL)

        weights = inst.outcome_weights(state)
        rep.add("weights-match-diagonal",
                float(np.max(np.abs(weights - np.real(np.diag(rho))))), 1e-10)

        cd = central_decomposition(p, state)
        rep.add("component-purity", cd.purity_defect, 1e-10)
        rep.add("decomposition-reconstruction", cd.reconstruction_residual,
                PROJECTIVE_TOL)

        # Tr_m sum_j Y_j rho Y_j*, the observed restriction of the
        # post-interaction state
        Y = _step_factors(p).reshape(-1, d, p.step.source_dim, d)
        # greedy's path, fixed so it is not searched on every call: rho
        # first at level 1 (one source state), the two factors first above
        path = [(0, 1), (0, 1)] if p.step.source_dim == 1 else [(0, 2), (0, 1)]
        restricted = np.einsum("jasp,pq,jbsq->ab", Y, rho, Y.conj(),
                               optimize=["einsum_path", *path])
        pinched = np.diag(np.real(np.diag(rho))).astype(complex)
        rep.add("restriction-is-pinching", trace_norm(restricted - pinched),
                PROJECTIVE_TOL)

        rep.add("exact-observation", exact_observation_residual(p), PROJECTIVE_TOL)
        rep.add("conditional-expectation-meter",
                _worst(frobs(_meter_images(p) - units)), PROJECTIVE_TOL)

    rep.derived["weights"] = weights
    if shots > 0:
        hist = sample_histogram(weights, shots, seed)
        stat, pval = chi_square_pvalue(hist.counts, hist.probabilities)
        rep.add("sampling-consistency", 1.0 - pval, 1.0 - 1e-3)
        rep.derived["histogram"] = {"counts": hist.counts,
                                    "chi2_stat": stat, "p_value": pval,
                                    "shots": shots}
    rep.notes.append(LIMIT_NOTE)
    return rep


def _ladder_level_residuals(step) -> tuple[float, float]:
    """Cyclic and intertwining residuals of the level-n GNS intertwiner
    V = (1/sqrt k) sum_j W_j of the uniform product state along a natural
    step, in O(N) on the step's index map: V e_q = sum_j values[j, q]
    e_{rows[j, q]}, values = phases / sqrt k, one entry per (j, q) and no
    dense V. By the Cuntz relations W_j* chi_n = chi_{n-1} / sqrt k carries
    the cyclic vector over and V intertwines. The relation V x = step(x) V
    is linear and closed under products, so it is checked on the shift and
    the corner unit, which generate M_m, each held as x e_q = vals[q]
    e_{cols[q]}: column q of both V x and step(x) V lives on rows[:, cols[q]].
    It reads 1.0 unless rows is a permutation of range(N), and 0 exactly
    when every |phases| = 1, which is also when V is an isometry."""
    rows, values = step.rows, step.phases / np.sqrt(step.k)
    m, N = step.source_dim, step.target_dim
    # V chi_{n-1}, its entries summed over each row
    w = (values / np.sqrt(m)).ravel()
    image = (np.bincount(rows.ravel(), w.real, N)
             + 1j * np.bincount(rows.ravel(), w.imag, N))
    cyc = float(np.linalg.norm(image - 1 / np.sqrt(N)))
    if not _is_permutation(rows, N):
        return cyc, 1.0
    phases = step.phases
    q = np.arange(m)
    shift = ((q + 1) % m, np.ones(m))
    corner = (np.zeros(m, dtype=int), (q == 0).astype(float))
    inter = 0.0
    for cols, vals in (shift, corner):
        vx = values[:, cols]
        sv = values * phases.conj() * phases[:, cols]
        inter = max(inter, frob(vals * (vx - sv)))
    return cyc, inter


def chi_ladder_report(k: int, levels: int = 3) -> Report:
    """Uniform-product ladder: invariance, GNS intertwiners, and the
    vanishing twisted overlaps. Every level check is O(N) on the step's
    index map; only the level-2 symmetry check solves densely."""
    if k < 2 or levels < 2:
        raise ValueError("need k >= 2 and at least two levels")
    rep = Report(meta={"seed": 0,
                       "config": {"k": k, "levels": levels, "flavor": "natural"}})
    site = uniform_site_vector(k)
    v = symmetry_unitary(k, 1)
    overlaps = []
    for j in range(1, k):
        twisted = vector_state(np.linalg.matrix_power(v, j) @ site)
        f = fidelity(vector_state(site), twisted)
        overlaps.append(f)
        rep.add(f"twisted-overlap-power-{j}", f, 1e-12)
    rep.derived["per_factor_overlaps"] = overlaps
    rep.derived["overlap_product_per_level"] = float(np.prod(overlaps)) if overlaps else 1.0

    # the top symmetry is diagonal, w^(digit sum) on each basis vector, so
    # <chi, V^j chi> = sum_c counts[c] w^(jc) / N
    counts = np.bincount(uhf.digit_sums(k, levels), minlength=k)
    for j in range(1, k):
        overlap = counts @ uhf.omega_root(k) ** (j * np.arange(k)) / k ** levels
        rep.add(f"disjointness-probe-power-{j}", abs(overlap) ** 2, 1e-12)

    for n in range(2, levels + 1):
        step = gamma_step(k, n, "natural")
        chi_n = np.ones(k ** n, dtype=complex) / k ** (n / 2)
        chi_prev = np.ones(k ** (n - 1), dtype=complex) / k ** ((n - 1) / 2)
        # the pullback is sum_j u_j u_j* with u_j = W_j* chi_n; its distance
        # from chi_prev chi_prev* is that of R D R* for A = QR, with A the
        # columns u_0 .. u_{k-1}, chi_prev and D = diag(1, .., 1, -1)
        u = step.phases.conj() * chi_n[step.rows]
        r = np.linalg.qr(np.vstack([u, chi_prev]).T, mode="r")
        sign = np.append(np.ones(k), -1.0)
        rep.add(f"state-invariance-level-{n}",
                frob((r * sign) @ r.conj().T), 1e-12)
        cyc, inter = _ladder_level_residuals(step)
        if inter > 1e-9:
            raise ValueError(f"intertwining residual {inter:.2e} exceeds 1.0e-09")
        rep.add(f"ladder-cyclic-level-{n}", cyc, LADDER_TOL)

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
    if k < 2:
        raise ValueError("need k >= 2")
    if copies < 1:
        raise ValueError("need at least one copy")
    if n < 1:
        raise ValueError("level must be at least 1")
    # k >= 2, so every exponent past 12 is past 4096: capping it refuses a
    # huge level without forming its exact power
    total_dim = k ** min(n * copies, 13)
    if total_dim > 4096:
        raise ValueError("tensor power size k^(n*copies) exceeds 4096")
    expected_dim = k ** copies
    N1 = k ** n
    gens = gamma_step(k, n, "natural").generators() + [uhf.symmetry_map(k, n)]
    cons = []
    for c in range(copies):
        L, R = N1 ** c, N1 ** (copies - c - 1)
        for cols, vals in gens:
            # 1 (x) g (x) 1: row (l, a, r) holds g's row a, at column (l, cols[a], r)
            at = (np.arange(L)[:, None, None] * N1 + cols[:, None]) * R + np.arange(R)
            cons.append((at.ravel(), np.broadcast_to(vals[:, None], at.shape).ravel()))
    sur = algebra.commutant(cons)
    rep = Report(meta={"seed": 0,
                       "config": {"k": k, "levels": n, "copies": copies}})
    rep.add("surrogate-dimension", abs(sur.dim - expected_dim), 0.1)
    _, projections, traces, resolve = algebra._central_projections(sur)
    rep.add("projection-count", abs(len(projections) - expected_dim), 0.1)
    expected_rank = k ** (copies * (n - 1))
    ranks = [int(round(float(t))) for t in traces]
    rep.add("projection-ranks",
            max(abs(r - expected_rank) for r in ranks), 0.1)
    rep.add("projections-resolve-identity", resolve, 1e-10)
    rep.derived["surrogate_dimension"] = sur.dim
    rep.derived["projection_ranks"] = ranks
    return rep
