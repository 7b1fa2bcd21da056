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
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import (dagger, frob, frobs, haar_unitary, random_state_vector,
                      row_chunks, trace_norm)
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

    The blocks are one read-only complex (m, d^2, d^2) array, stacked at
    construction from any sequence of d^2 x d^2 blocks (another shape is
    refused), and the branch maps one (m, d^2, d^2) stack read off it on
    first use: vec(E_i(rho)) = _maps[i] vec(rho), with vec row-major, and
    the dual map is the same matrix with its rows read as (b, a). A map meets
    one state per matmul, as a broadcast over a stack of states still does:
    that rounds as the tensor contraction against the Choi block does, a
    GEMM over several states does not.
    """

    observed_dim: int
    chois: np.ndarray = field(repr=False)
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.observed_dim ** 2
        for i, c in enumerate(self.chois):
            if np.shape(c) != (n, n):
                raise ValueError(f"outcome {i}: Choi block has wrong shape")
        chois = np.array(self.chois, dtype=complex).reshape(-1, n, n)
        chois.flags.writeable = False
        object.__setattr__(self, "chois", chois)
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"E{i + 1}" for i in range(len(chois))))
        if len(self.labels) != len(chois):
            raise ValueError("label count does not match outcome count")

    @property
    def outcomes(self) -> int:
        return len(self.chois)

    @cached_property
    def _maps(self) -> np.ndarray:
        """Branch maps, row (a, b) and column (p, q) of C4[p, a, q, b]."""
        d = self.observed_dim
        c4 = self.chois.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3)
        return np.ascontiguousarray(c4).reshape(-1, d * d, d * d)

    def _outputs(self, rho: np.ndarray) -> np.ndarray:
        """E_i(rho) for every outcome i, as an (..., m, d, d) stack for a
        (..., d, d) stack of states."""
        d = self.observed_dim
        rho = np.asarray(rho, dtype=complex)
        v = rho.reshape(*rho.shape[:-2], 1, d * d, 1)
        return (self._maps @ v).reshape(*rho.shape[:-2], -1, d, d)

    def apply(self, i: int, rho: np.ndarray) -> np.ndarray:
        """E_i(rho), or E_i of each state of a (..., d, d) stack."""
        rho = np.asarray(rho, dtype=complex)
        v = rho.reshape(*rho.shape[:-2], -1, 1)
        return (self._maps[i] @ v).reshape(rho.shape)

    def dual_apply(self, i: int, x: np.ndarray) -> np.ndarray:
        """E_i*(x): vec(x)^T times the map with its rows read as (b, a)."""
        d = self.observed_dim
        v = np.asarray(x, dtype=complex).reshape(-1)[None]
        dual = self._maps[i].reshape(d, d, -1).swapaxes(0, 1).reshape(d * d, -1)
        return (v @ dual).reshape(d, d).T

    def povm(self) -> np.ndarray:
        """The effects E_i*(1) as an (m, d, d) stack: vec(1) is the same
        read as (a, b) or (b, a), so the maps serve as the duals."""
        d = self.observed_dim
        v = np.eye(d, dtype=complex).reshape(-1)[None]
        return (v @ self._maps).reshape(-1, d, d).transpose(0, 2, 1)

    def outcome_weights(self, phi: State) -> np.ndarray:
        return _weights(self._outputs(phi.density))

    def total_map(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.observed_dim, self.observed_dim), dtype=complex)
        for branch in self._outputs(rho):
            out += branch
        return out

    def validate(self, psd_tol: float = PSD_TOL) -> None:
        """Refuse the first block that is not finite, not Hermitian or not
        PSD, checked in that order, as one stack up to the first non-finite."""
        c = self.chois
        finite = np.isfinite(c).all(axis=(1, 2))
        k = len(c) if finite.all() else int(np.argmin(finite))
        scale = np.maximum(1.0, frobs(c[:k]))
        herm = frobs(c[:k] - dagger(c[:k])) > CHECK_TOL * scale
        lo = _floors(c[:k])
        bad = np.flatnonzero(herm | (lo < -psd_tol * scale))
        if bad.size and herm[bad[0]]:
            raise ValueError(f"outcome {bad[0]}: Choi block is not Hermitian")
        if bad.size:
            raise ValueError(
                f"outcome {bad[0]}: Choi block violates the PSD tolerance "
                f"{psd_tol:.1e} (min eigenvalue {lo[bad[0]]:.2e})")
        if k < len(c):
            raise ValueError(f"outcome {k}: Choi block is not finite")
        if frob(sum(self.povm()) - np.eye(self.observed_dim)) > CHECK_TOL:
            raise ValueError("dual maps do not sum to the identity")


def _weights(outputs: np.ndarray) -> np.ndarray:
    """Outcome weights tr E_i(rho) of a (..., m, d, d) output stack,
    clipped at 0."""
    return np.clip(np.real(np.trace(outputs, axis1=-2, axis2=-1)), 0.0, None)


def _worst(values: np.ndarray) -> float:
    """The largest of 0.0 and the values, as a running Python max from 0.0
    takes it: a NaN or a -0.0 never replaces the running value."""
    return max([0.0, *values.ravel().tolist()])


def instrument(chois) -> Instrument:
    """Instrument of the Choi blocks, its observed dimension read off the
    first block's side."""
    chois = list(chois)
    if not chois:
        raise ValueError("an instrument needs at least one outcome")
    d = int(round(np.sqrt(np.shape(chois[0])[0])))
    return Instrument(observed_dim=d, chois=chois)


def default_probe_vectors(d: int, length: int = 16) -> list[np.ndarray]:
    """Standard basis vectors, then uniform two-index superpositions in
    lexicographic order, capped at the requested length."""
    if length < 1:
        raise ValueError("need at least one probe")
    eye = np.eye(d, dtype=complex)
    pairs = [(eye[i] + eye[j]) * (1.0 / np.sqrt(2.0))
             for i in range(d) for j in range(i + 1, d)]
    return [*eye, *pairs][:length]


@lru_cache
def _probe_densities(d: int, length: int = 16, mixed: bool = True) -> np.ndarray:
    """The default probe states' densities as one read-only stack, built
    once per size: |v><v| of the default probe vectors, with np.outer's
    bits, then the maximally mixed state when asked, capped at the length."""
    v = np.stack(default_probe_vectors(d, length))
    mixes = [np.eye(d, dtype=complex)[None] / d] if mixed else []
    rhos = np.concatenate([v[:, :, None] * v.conj()[:, None], *mixes])[:length]
    rhos.flags.writeable = False
    return rhos


def verify_axioms(E: Instrument, probes: int | None = None, tol: float = CHECK_TOL,
                  seed: int = 7) -> Report:
    """Finite-level instrument axioms as named residual checks.

    Covers Choi hermiticity and positivity, dual normalization, total
    probability one on probe states, positivity of outcome-subset outputs,
    additivity over disjoint outcome subsets, and linearity of each branch
    map. Continuity requirements trivialize at finite dimension and finite
    outcome count; the report notes this rather than asserting a vacuous
    check. The probe states are the first `probes` default probe densities;
    None takes min(16, d + d(d-1)/2 + 1) of them, and a count past all
    d + d(d-1)/2 + 1 is refused.
    """
    d, m = E.observed_dim, E.outcomes
    count = d + d * (d - 1) // 2 + 1
    if probes is not None and probes > count:
        raise ValueError(f"probes must be at most {count}, the number of default "
                         f"probe states at observed dimension {d}")
    rhos = _probe_densities(d, 16 if probes is None else probes)
    rng = np.random.default_rng(seed)
    rep = Report(meta={"seed": seed,
                       "config": {"observed_dim": d, "outcomes": m,
                                  "probes": len(rhos)},
                       "tolerance": tol})

    rep.add("choi-hermitian", max(frobs(E.chois - dagger(E.chois)).tolist()), tol)
    rep.add("cp-positivity", _worst(-_floors(E.chois)), PSD_TOL)

    eye = np.eye(d, dtype=complex)
    rep.add("dual-normalization", frob(sum(E.povm()) - eye), tol)

    outs = E._outputs(rhos)
    rep.add("probability-total", _worst(np.abs(_weights(outs).sum(-1) - 1.0)), tol)

    subsets = [[i] for i in range(m)] + [list(range(m))]
    for _ in range(3):
        q = rng.random(m)
        subsets.append([i for i in range(m) if q[i] > 0.5] or [0])
    # every subset block of every probe output, summed in subset order from
    # zero as a Python sum would, then one stacked eigvalsh
    blocks = np.zeros((len(rhos), len(subsets), d, d), dtype=complex)
    for pos in range(m):
        rows = [r for r, S in enumerate(subsets) if len(S) > pos]
        blocks[:, rows] += outs[:, [subsets[r][pos] for r in rows]]
    rep.add("output-positivity", _worst(-_floors(blocks)), tol)

    rho_a, rho_b = rhos[0], rhos[-1]
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


def random_measuring_process(k: int, n: int, rng: np.random.Generator,
                             flavor: str = "natural") -> MeasuringProcess:
    """Haar interaction and random probe vector over the digit-class meter
    at truncation level n, observed system of size k."""
    from . import uhf
    step = uhf.gamma_step(k, n, flavor)
    K = k ** n
    psi = random_state_vector(K, rng)
    U = haar_unitary(k * K, rng)
    # V = U (1 (x) psi), taken as (F^T U^T)^T for F = psi[:, None]; this
    # operand order fixes the bits of every seeded process
    F = psi[:, None]
    V = (F.T @ U.reshape(-1, K).T).T.reshape(k * K, k)
    return MeasuringProcess(observed_dim=k, probe_vector=psi,
                            meter=step.meter(), isometry=V, step=step)


def _outcome_gram(V3: np.ndarray, meter: np.ndarray, i: int, gram) -> np.ndarray:
    """The sum of gram(V3[:, rows]) over chunks of the probe rows outcome i
    reads, at most _ROW_CHUNK rows each, so no gather of all its rows is
    held. The sum starts from the first chunk's term: with one chunk it is
    gram of the whole gather bit for bit."""
    chunks = row_chunks(np.flatnonzero(meter == i))
    total = gram(V3[:, chunks[0]])
    for rows in chunks[1:]:
        total += gram(V3[:, rows])
    return total


def _choi_gram(R: np.ndarray) -> np.ndarray:
    d = R.shape[0]
    G = R.transpose(2, 0, 1).reshape(d * d, -1)
    return G @ dagger(G)


def _chois(V: np.ndarray, d: int, meter: np.ndarray,
           outcomes: int) -> list[np.ndarray]:
    """Choi blocks of the instrument induced by the isometry V = U (1 (x) psi)
    and a meter diagonal in the probe basis, assembled as Gram matrices of
    Kraus families so positivity is exact by construction: the Kraus rows
    of outcome i are the probe rows of V that outcome i reads."""
    V3 = V.reshape(d, -1, d)
    return [_outcome_gram(V3, meter, i, _choi_gram) for i in range(outcomes)]


def instrument_from_process(p: MeasuringProcess) -> Instrument:
    """Induced instrument: branch i sends rho to the probe-traced compression
    of U (rho (x) |psi><psi|) U* by the i-th meter projection."""
    d = p.observed_dim
    return Instrument(observed_dim=d,
                      chois=_chois(p.isometry, d, p.meter, p.outcomes),
                      labels=p.labels)


def _image_gram(R: np.ndarray) -> np.ndarray:
    G = R.reshape(-1, R.shape[2])
    return dagger(G) @ G


def _meter_images(p: MeasuringProcess) -> np.ndarray:
    """V*(1 (x) E_i)V for each meter outcome i, with E_i its projection, as
    an (o, d, d) stack: G*G over the probe rows G of V that outcome i reads,
    the rows _chois reads."""
    d = p.observed_dim
    V3 = p.isometry.reshape(d, p.probe_dim, d)
    return np.stack([_outcome_gram(V3, p.meter, i, _image_gram) for i in range(p.outcomes)])


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
    o, d = len(images), p.observed_dim
    diff = -(images[:, None] @ images[None])   # (o, o, d, d): -E_i E_j
    diff[np.arange(o), np.arange(o)] += images
    return float(frobs(diff.reshape(-1, d, d)).max(initial=0.0))


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
    # each live block's second-largest eigenvalue, none for 1 x 1 blocks
    live = weights > 1e-8
    purity = _worst(np.linalg.eigvalsh(raws[live] / weights[live, None, None])[:, -2:-1])
    return CentralDecomposition(weights=weights, reconstruction_residual=recon,
                                purity_defect=purity)


def instrument_distance(E1: Instrument, E2: Instrument) -> float:
    """Geometrically weighted sum over probe states of the total trace-norm
    branch discrepancy. Zero iff the instruments agree on the probes; the
    default probe sequence separates instruments on M_d."""
    if E1.observed_dim != E2.observed_dim or E1.outcomes != E2.outcomes:
        raise ValueError("mismatched outcome sets")
    rhos = _probe_densities(E1.observed_dim, mixed=False)
    norms = trace_norm(E1._outputs(rhos) - E2._outputs(rhos))
    # running sums from 0.0, as a loop over probes and outcomes adds them
    nu = np.cumsum(norms, axis=1)[:, -1]
    return float(np.cumsum(2.0 ** -np.arange(1.0, len(nu) + 1) * nu)[-1])
