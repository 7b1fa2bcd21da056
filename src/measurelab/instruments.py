"""Finite-outcome CP instruments on M_d and their realization by a probe
system, a meter resolution, and an interaction. A measuring process holds
the interaction as its Stinespring isometry V = U (1 (x) psi): every branch
map, compression and weight factors through V, and a unitary U extending V
exists exactly when V is an isometry, so no dense U is kept.

Choi convention: the block matrix C[(p,a),(q,b)] = Lambda(e_pq)[a,b], so
complete positivity is positive semidefiniteness of C, and the action on a
density is a single tensor contraction against C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (dagger, frob, frobs, haar_unitary, herm_residual,
                      random_state_vector, trace_norm, unitary_residual)
from .report import Report
from .states import State

PSD_TOL = 1e-10
CHECK_TOL = 1e-9


def _floors(mats: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of the Hermitian part of each matrix of a stack,
    from one stacked eigvalsh (the same bits as one call per matrix)."""
    return np.linalg.eigvalsh((mats + dagger(mats)) / 2)[..., 0]


@dataclass(frozen=True)
class Instrument:
    """CP instrument: one Choi block per outcome, normalized so the dual
    maps sum to the identity on the observed algebra.

    The branch maps are built once, on first use, as two (m, d^2, d^2)
    stacks read off the Choi blocks: vec(E_i(rho)) = _maps[i] vec(rho) and
    vec(E_i*(x))^T = vec(x)^T _duals[i], with vec row-major. Each map is
    applied to one state at a time: one matmul per state rounds as the
    tensor contraction against the Choi block does, a GEMM over several
    states does not.
    """

    observed_dim: int
    chois: tuple[np.ndarray, ...] = field(repr=False)
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"E{i + 1}" for i in range(len(self.chois))))
        if len(self.labels) != len(self.chois):
            raise ValueError("label count does not match outcome count")

    @property
    def outcomes(self) -> int:
        return len(self.chois)

    def _choi4(self) -> np.ndarray:
        """The Choi blocks as one (m, p, a, q, b) array, C[(p,a),(q,b)]."""
        d = self.observed_dim
        return np.stack(self.chois).reshape(-1, d, d, d, d)

    @cached_property
    def _maps(self) -> np.ndarray:
        """Branch maps, row (a, b) and column (p, q) of C4[p, a, q, b]."""
        d = self.observed_dim
        c4 = self._choi4().transpose(0, 2, 4, 1, 3)
        return np.ascontiguousarray(c4).reshape(-1, d * d, d * d)

    @cached_property
    def _duals(self) -> np.ndarray:
        """Dual maps, row (b, a) and column (p, q) of C4[p, a, q, b]."""
        d = self.observed_dim
        c4 = self._choi4().transpose(0, 4, 2, 1, 3)
        return np.ascontiguousarray(c4).reshape(-1, d * d, d * d)

    def _outputs(self, rho: np.ndarray) -> np.ndarray:
        """E_i(rho) for every outcome i, as an (m, d, d) stack."""
        d = self.observed_dim
        v = np.asarray(rho, dtype=complex).reshape(-1)[:, None]
        return (self._maps @ v).reshape(-1, d, d)

    def apply(self, i: int, rho: np.ndarray) -> np.ndarray:
        d = self.observed_dim
        v = np.asarray(rho, dtype=complex).reshape(-1)[:, None]
        return (self._maps[i] @ v).reshape(d, d)

    def dual_apply(self, i: int, x: np.ndarray) -> np.ndarray:
        d = self.observed_dim
        v = np.asarray(x, dtype=complex).reshape(-1)[None]
        return (v @ self._duals[i]).reshape(d, d).T

    def povm(self) -> list[np.ndarray]:
        d = self.observed_dim
        v = np.eye(d, dtype=complex).reshape(-1)[None]
        return list((v @ self._duals).reshape(-1, d, d).transpose(0, 2, 1))

    def outcome_weights(self, phi: State) -> np.ndarray:
        return _weights(self._outputs(phi.density))

    def total_map(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.observed_dim, self.observed_dim), dtype=complex)
        for branch in self._outputs(rho):
            out += branch
        return out

    def validate(self, psd_tol: float = PSD_TOL) -> None:
        d = self.observed_dim
        for i, c in enumerate(self.chois):
            if c.shape != (d * d, d * d):
                raise ValueError(f"outcome {i}: Choi block has wrong shape")
            if not np.isfinite(c).all():
                raise ValueError(f"outcome {i}: Choi block is not finite")
            if herm_residual(c) > CHECK_TOL * max(1.0, frob(c)):
                raise ValueError(f"outcome {i}: Choi block is not Hermitian")
            lo = float(np.linalg.eigvalsh((c + dagger(c)) / 2)[0])
            if lo < -psd_tol * max(1.0, frob(c)):
                raise ValueError(
                    f"outcome {i}: Choi block violates the PSD tolerance "
                    f"{psd_tol:.1e} (min eigenvalue {lo:.2e})")
        total = sum(self.povm())
        if frob(total - np.eye(d)) > CHECK_TOL:
            raise ValueError("dual maps do not sum to the identity")


def _weights(outputs: np.ndarray) -> np.ndarray:
    """Outcome weights tr E_i(rho) of a (..., m, d, d) output stack,
    clipped at 0."""
    return np.clip(np.real(np.trace(outputs, axis1=-2, axis2=-1)), 0.0, None)


def _worst(values: np.ndarray) -> float:
    """The largest of 0.0 and the values, as a running Python max from 0.0
    takes it: a NaN or a -0.0 never replaces the running value."""
    return max([0.0, *values.ravel().tolist()])


def instrument(chois, labels=None, observed_dim=None) -> Instrument:
    chois = tuple(np.asarray(c, dtype=complex) for c in chois)
    if not chois:
        raise ValueError("an instrument needs at least one outcome")
    if observed_dim is None:
        side = chois[0].shape[0]
        observed_dim = int(round(np.sqrt(side)))
    want = (observed_dim * observed_dim,) * 2
    for i, c in enumerate(chois):
        if c.shape != want:
            raise ValueError(f"outcome {i}: Choi block shape {c.shape} does "
                             f"not match observed dimension {observed_dim}")
    return Instrument(observed_dim=observed_dim, chois=chois,
                      labels=tuple(labels) if labels else ())


def default_probe_vectors(d: int, length: int = 16) -> list[np.ndarray]:
    """Standard basis vectors, then uniform two-index superpositions in
    lexicographic order, capped at the requested length."""
    if length < 1:
        raise ValueError("need at least one probe")
    vecs = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d, dtype=complex)
            v[i] = v[j] = 1.0 / np.sqrt(2.0)
            vecs.append(v)
    return vecs[:length]


def default_probe_states(d: int, length: int = 16) -> list[State]:
    out = [State(np.outer(v, v.conj())) for v in default_probe_vectors(d, length)]
    out.append(State(np.eye(d, dtype=complex) / d))
    return out[:length]


def verify_axioms(E: Instrument, probe_states: list[State] | None = None,
                  tol: float = CHECK_TOL, seed: int = 7) -> Report:
    """Finite-level instrument axioms as named residual checks.

    Covers Choi hermiticity and positivity, dual normalization, total
    probability one on probe states, positivity of outcome-subset outputs,
    additivity over disjoint outcome subsets, and linearity of each branch
    map. Continuity requirements trivialize at finite dimension and finite
    outcome count; the report notes this rather than asserting a vacuous
    check.
    """
    d = E.observed_dim
    m = E.outcomes
    if probe_states is None:
        probe_states = default_probe_states(d)
    rng = np.random.default_rng(seed)
    rep = Report(meta={"seed": seed,
                       "config": {"observed_dim": d, "outcomes": m,
                                  "probes": len(probe_states)},
                       "tolerance": tol})

    rep.add("choi-hermitian",
            max(herm_residual(c) for c in E.chois), tol)
    rep.add("cp-positivity", _worst(-_floors(np.stack(E.chois))), PSD_TOL)

    eye = np.eye(d, dtype=complex)
    rep.add("dual-normalization", frob(sum(E.povm()) - eye), tol)

    outs = np.stack([E._outputs(st.density) for st in probe_states])
    res = 0.0
    for w in _weights(outs):
        res = max(res, abs(float(np.sum(w)) - 1.0))
    rep.add("probability-total", res, tol)

    subsets = [[i] for i in range(m)] + [list(range(m))]
    for _ in range(3):
        q = rng.random(m)
        subsets.append([i for i in range(m) if q[i] > 0.5] or [0])
    # every subset block of every probe output, summed in subset order from
    # zero as a Python sum would, then one stacked eigvalsh
    blocks = np.zeros((len(probe_states), len(subsets), d, d), dtype=complex)
    for pos in range(m):
        rows = [r for r, S in enumerate(subsets) if len(S) > pos]
        blocks[:, rows] += outs[:, [subsets[r][pos] for r in rows]]
    rep.add("output-positivity", _worst(-_floors(blocks)), tol)

    rho_a = probe_states[0].density
    rho_b = probe_states[-1].density
    outs_a, outs_b = outs[0], outs[-1]
    half_a = [j for j in range(m) if j % 2 == 0]
    half_b = [j for j in range(m) if j % 2 == 1]
    joined = sum(outs_a[j] for j in half_a + half_b)
    rep.add("outcome-additivity", frob(joined - E.total_map(rho_a)), tol)

    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    lhs = E._outputs(a * rho_a + b * rho_b)
    rhs = a * outs_a + b * outs_b
    rep.add("branch-linearity", _worst(frobs(lhs - rhs)), tol)

    rep.notes.append("countable additivity and outer continuity reduce to "
                     "finite additivity at finite outcome count; checked finitely")
    return rep


@dataclass(frozen=True)
class MeasuringProcess:
    """Probe system, probe vector state, meter, interaction.

    The interaction U is held as its Stinespring isometry V = U (1 (x) psi),
    a (dK, d) array whose column a is U (e_a (x) psi). The meter is
    diagonal in the probe basis and held as one integer per probe basis
    vector: meter[s] is the outcome that reads basis vector s, so the meter
    projection of outcome i is the diagonal of meter == i.
    There is one outcome per label; an outcome that no basis vector reads
    has the zero projection. The probe carries a tensor-ladder truncation
    when step is set; the combined space orders the observed factor first.
    """

    observed_dim: int
    probe_vector: np.ndarray
    meter: np.ndarray
    isometry: np.ndarray
    labels: tuple[str, ...] = ()
    step: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "meter", np.asarray(self.meter))
        if not self.labels:
            count = int(self.meter.max(initial=-1)) + 1
            object.__setattr__(self, "labels",
                               tuple(f"E{i + 1}" for i in range(count)))

    @property
    def probe_dim(self) -> int:
        return self.probe_vector.size

    @property
    def outcomes(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        d, K, tol = self.observed_dim, self.probe_dim, 1e-12
        if self.isometry.shape != (d * K, d):
            raise ValueError("interaction isometry has wrong shape")
        if not (np.isfinite(self.isometry).all()
                and np.isfinite(self.probe_vector).all()):
            raise ValueError("interaction isometry or probe vector is not finite")
        # frob(V*V - 1) has d^2 entries whatever the probe size
        if unitary_residual(self.isometry) > tol * np.sqrt(d):
            raise ValueError("interaction is not an isometry to tolerance")
        if abs(np.linalg.norm(self.probe_vector) - 1.0) > tol * 10:
            raise ValueError("probe vector is not normalized")
        if self.meter.shape != (K,) or not np.issubdtype(self.meter.dtype,
                                                         np.integer):
            raise ValueError("meter must hold one integer outcome per probe "
                             "basis vector")
        if np.any((self.meter < 0) | (self.meter >= self.outcomes)):
            raise ValueError(f"meter reads an outcome outside 0..{self.outcomes - 1}")


def random_measuring_process(k: int, n: int, rng: np.random.Generator,
                             flavor: str = "natural") -> MeasuringProcess:
    """Haar interaction and random probe vector over the digit-class meter
    at truncation level n, observed system of size k."""
    from . import uhf
    step = uhf.gamma_step(k, n, flavor)
    K = k ** n
    psi = random_state_vector(K, rng)
    U = haar_unitary(k * K, rng)
    V = _isometry(U, k, psi[:, None]).reshape(k * K, k)
    return MeasuringProcess(observed_dim=k, probe_vector=psi,
                            meter=step.meter(), isometry=V, step=step)


def _isometry(U: np.ndarray, d: int, F: np.ndarray) -> np.ndarray:
    """U (1 (x) F) for a (K, r) probe factor F, as a (dK, d, r) array; a
    probe vector F of shape (K,) gives the (dK, d) isometry itself. It is
    taken as (F^T U^T)^T: BLAS rounds U F differently when r > 1, and this
    operand order keeps the Choi blocks byte-stable."""
    VT = F.T @ U.reshape(-1, F.shape[0]).T
    return VT.T.reshape(U.shape[0], d, *F.shape[1:])


def _chois(V: np.ndarray, d: int, meter: np.ndarray,
           outcomes: int) -> list[np.ndarray]:
    """Choi blocks of the instrument induced by the isometry V = U (1 (x) F)
    and a meter diagonal in the probe basis, assembled as Gram matrices of
    Kraus families so positivity is exact by construction: the Kraus rows
    of outcome i are the probe rows of V that outcome i reads."""
    V4 = V.reshape(d, V.shape[0] // d, d, -1)
    chois = []
    for i in range(outcomes):
        G = V4[:, np.flatnonzero(meter == i)].transpose(2, 0, 1, 3)
        G2 = G.reshape(d * d, -1)
        chois.append(G2 @ dagger(G2))
    return chois


def instrument_from_process(p: MeasuringProcess) -> Instrument:
    """Induced instrument: branch i sends rho to the probe-traced compression
    of U (rho (x) |psi><psi|) U* by the i-th meter projection."""
    d = p.observed_dim
    return Instrument(observed_dim=d,
                      chois=tuple(_chois(p.isometry, d, p.meter, p.outcomes)),
                      labels=p.labels)


def _meter_images(p: MeasuringProcess) -> list[np.ndarray]:
    """V*(1 (x) E_i)V for each meter outcome i, with E_i its projection:
    G*G over the probe rows G of V that outcome i reads, the rows _chois
    gathers."""
    d = p.observed_dim
    V3 = p.isometry.reshape(d, p.probe_dim, d)
    rows = [V3[:, np.flatnonzero(p.meter == i)].reshape(-1, d)
            for i in range(p.outcomes)]
    return [dagger(G) @ G for G in rows]


def conditional_expectation(p: MeasuringProcess, T: np.ndarray) -> np.ndarray:
    """Probe-vector compression of U* T U onto the observed factor: V* T V."""
    V = p.isometry
    return dagger(V) @ (np.asarray(T, dtype=complex) @ V)


def exact_observation_residual(p: MeasuringProcess) -> float:
    """Multiplicativity defect of the conditional expectation on the span of
    the meter elements 1 (x) E_i. Zero exactly when observing the meter
    reads out the measured observable with no disturbance. The E_i are
    orthogonal projections, so E_i E_j is E_i when i = j and 0 otherwise."""
    images = _meter_images(p)
    res = 0.0
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            lhs = a if i == j else 0.0
            res = max(res, frob(lhs - a @ b))
    return res


def _step_factors(p: MeasuringProcess) -> np.ndarray:
    """The thin factors Y_j = (1 (x) W_j*) V of the outcome-j step
    compressions Y_j rho Y_j* of the post-interaction state, as a
    (k, d*m, d) stack on the observed-plus-lower-level space."""
    if p.step is None or p.step.target_dim != p.probe_dim:
        raise ValueError("interaction level does not match an attached "
                         "endomorphism step")
    d, K, m = p.observed_dim, p.probe_dim, p.step.source_dim
    V = p.isometry.reshape(d, K, d)
    # W_j* gathers rows[j] and conjugates its phases
    Y = (p.step.phases.conj()[:, None, :, None]
         * V[:, p.step.rows].swapaxes(0, 1))
    return Y.reshape(-1, d * m, d)


@dataclass(frozen=True)
class CentralDecomposition:
    """Outcome weights of the post-interaction state and the quality
    figures of its split along the meter outcomes."""

    weights: np.ndarray
    reconstruction_residual: float
    purity_defect: float


def central_decomposition(p: MeasuringProcess, phi: State) -> CentralDecomposition:
    """Split the reduced post-interaction state along the meter outcomes,
    reading only the thin factors Y_j, so no (dm)^2 block is formed.

    One thin QR of [Y_0 | .. | Y_{k-1}] = Q [R_0 | .. | R_{k-1}] gives the
    outcome-j block Y_j rho Y_j* = Q (R_j rho R_j*) Q*, so the small block
    R_j rho R_j* has its trace and spectrum. Weight j is that trace, and
    the purity defect is the largest second eigenvalue of a block over its
    weight, skipping weights of at most 1e-8. The reconstruction residual
    is the trace norm left by renormalizing the blocks' sum to the weights.
    """
    Y = _step_factors(p)
    k, dm, d = Y.shape
    R = np.linalg.qr(Y.swapaxes(0, 1).reshape(dm, k * d), mode="r")
    R3 = R.reshape(-1, k, d).swapaxes(0, 1)
    raws = R3 @ phi.density @ dagger(R3)
    raws = (raws + dagger(raws)) / 2
    weights = np.maximum(np.real(np.trace(raws, axis1=1, axis2=2)), 0.0)
    total = sum(raws)
    reduced = total / max(float(np.real(np.trace(total))), 1e-300)
    recon = trace_norm(total - reduced * np.sum(weights))
    purity = 0.0
    for w, raw in zip(weights, raws):
        if w > 1e-8 and raw.shape[0] > 1:
            purity = max(purity, float(np.linalg.eigvalsh(raw / w)[-2]))
    return CentralDecomposition(weights=weights, reconstruction_residual=recon,
                                purity_defect=purity)


def instrument_distance(E1: Instrument, E2: Instrument) -> float:
    """Geometrically weighted sum over probe states of the total trace-norm
    branch discrepancy. Zero iff the instruments agree on the probes; the
    default probe sequence separates instruments on M_d."""
    if E1.observed_dim != E2.observed_dim or E1.outcomes != E2.outcomes:
        raise ValueError("mismatched outcome sets")
    rhos = [np.outer(v, v.conj()) for v in default_probe_vectors(E1.observed_dim)]
    norms = trace_norm(np.stack([E1._outputs(r) - E2._outputs(r) for r in rhos]))
    total = 0.0
    for idx, row in enumerate(norms.tolist(), start=1):
        nu = 0.0
        for x in row:
            nu += x
        total += (2.0 ** (-idx)) * nu
    return total


def vn_instrument(observed_dim: int, probe_state: State, meter: np.ndarray,
                  U: np.ndarray, partition: list[list[float]]) -> Instrument:
    """Instrument of a meter observable read out in eigenvalue cells.

    partition lists cells of meter eigenvalues; each cell pools the spectral
    projections of the matching eigenvalues into one outcome. Every
    eigenvalue must land in exactly one cell.
    """
    pr = probe_state.dim
    meter = np.asarray(meter, dtype=complex)
    if herm_residual(meter) > 1e-10 * max(1.0, frob(meter)):
        raise ValueError("meter observable is not Hermitian")
    if U.shape != (observed_dim * pr, observed_dim * pr):
        raise ValueError("interaction unitary has wrong shape")
    lam, vec = np.linalg.eigh(meter)
    owner = np.full(lam.size, -1)
    for ci, cell in enumerate(partition):
        for v in cell:
            hit = np.abs(lam - v) <= 1e-8 * max(1.0, abs(v))
            clash = hit & (owner >= 0) & (owner != ci)
            if np.any(clash):
                raise ValueError("overlapping partition cells")
            owner[hit] = ci
    if np.any(owner < 0):
        raise ValueError("partition does not cover the meter spectrum")
    mu, F = np.linalg.eigh(probe_state.density)
    keep = mu > 1e-14
    V = _isometry(U, observed_dim, F[:, keep] * np.sqrt(mu[keep]))
    # in the meter eigenbasis the cells are a diagonal meter: (1 (x) vec*) V
    V = (dagger(vec) @ V.reshape(observed_dim, pr, -1)).reshape(V.shape)
    return Instrument(observed_dim=observed_dim,
                      chois=tuple(_chois(V, observed_dim, owner, len(partition))))
