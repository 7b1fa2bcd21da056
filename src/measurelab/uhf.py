"""Finite tensor-power truncations M_k^(x)n with their diagonal phase
symmetry, consistent shift-style endomorphism steps, surrogate commutants,
and unitary paths that realize a step as the endpoint of a continuous
family of inner conjugations. The symmetry's fixed-point algebras are read
off digit classes: digit_sums labels each basis vector with its class, and
a step's meter is that labelling.

Index convention: a vector index q in k^n is read as n base-k digits, most
significant first. Inclusions into the next level append a tensor factor on
the right (last digit); the endomorphism steps add a correction digit on
the left (first slot). A step's isometries W_j form a phased permutation,
so a step is stored as index and phase arrays, not as dense matrices, and
the unitary path's endpoints are products of such permutations, read off
those arrays with no solver call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from ._linalg import dagger, eig_normal, opnorm, tensor
from .algebra import SubAlgebra


def omega_root(k: int) -> complex:
    return np.exp(2j * np.pi / k)


def symmetry_map(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-fold tensor power of the single-site phase unitary
    diag(1, w, .., w^(k-1)), w the primitive k-th root of unity, as an index
    map (cols, vals): diagonal, with the tensor power of the site phases."""
    return np.arange(k ** n), tensor(*[omega_root(k) ** np.arange(k)] * n)


def symmetry_unitary(k: int, n: int) -> np.ndarray:
    """n-fold tensor power of the single-site phase unitary, dense."""
    return np.diag(symmetry_map(k, n)[1])


@dataclass(frozen=True)
class AdjointAction:
    """Conjugation x -> u x u* as a dimension-preserving algebra map."""

    u: np.ndarray

    @property
    def source_dim(self) -> int:
        return self.u.shape[0]

    @property
    def target_dim(self) -> int:
        return self.u.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.u @ np.asarray(x, dtype=complex) @ dagger(self.u)


def digit_sums(k: int, n: int) -> np.ndarray:
    """Base-k digit sums mod k of 0..k^n-1, as an int array, one trailing
    digit appended per pass: q k + d has the digit sum of q plus d."""
    total = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        total = (total[:, None] + np.arange(k)).ravel() % k
    return total


@dataclass(frozen=True)
class EndomorphismStep:
    """Unital *-endomorphism step M_{k^(n-1)} -> M_{k^n}, x -> sum_j W_j x W_j*.

    The k isometries W_j add one correction digit on the left so that the
    total digit sum of every image index equals j; the images therefore lie
    inside the fixed-point algebra of the level-n phase symmetry, and
    W_j W_j* are exactly the digit-class projections. Stored as two (k, m)
    arrays, W_j e_q = phases[j, q] e_{rows[j, q]}; every step operation is
    one gather or scatter on them.
    """

    k: int
    n: int
    flavor: str
    rows: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)

    @property
    def source_dim(self) -> int:
        return self.k ** (self.n - 1)

    @property
    def target_dim(self) -> int:
        return self.k ** self.n

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.source_dim,) * 2:
            raise ValueError(f"step input must be {self.source_dim}-square")
        out = np.zeros((self.target_dim,) * 2, dtype=complex)
        out[self.rows[:, :, None], self.rows[:, None, :]] = (
            self.phases[:, :, None] * x * self.phases.conj()[:, None, :])
        return out

    def meter(self) -> np.ndarray:
        """The range projections W_j W_j* as a meter: the outcome j of each
        level-n basis vector, its digit sum mod k."""
        return digit_sums(self.k, self.n)

    def generators(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Images of the shift and the corner unit, which generate the image
        of the source matrix algebra: a constraint set for its commutant.
        Each is an index map (cols, vals), row a holding vals[a] at column
        cols[a] (0: empty row). The shift image carries e_rows[j,q] to
        e_rows[j,q+1] with the phase phases[j,q+1] conj(phases[j,q]); the
        corner image is diagonal on rows[:, 0]."""
        rows, phases, N = self.rows, self.phases, self.target_dim
        nxt = np.roll(np.arange(self.source_dim), -1)
        cols, shift, corner = np.arange(N), np.zeros(N, dtype=complex), np.zeros(N, dtype=complex)
        cols[rows[:, nxt]] = rows
        shift[rows[:, nxt]] = phases[:, nxt] * phases.conj()
        corner[rows[:, 0]] = phases[:, 0] * phases[:, 0].conj()
        return [(cols, shift), (np.arange(N), corner)]

    def image_subalgebra(self) -> SubAlgebra:
        """Image as a spanned subalgebra that holds this step. Frame element
        q*m + t, the image of e_qt over sqrt(k), holds the entries (rows[j, q],
        rows[j, t]): its labels and values are scattered from the step."""
        m, N = self.source_dim, self.target_dim
        at = (self.rows[:, :, None], self.rows[:, None, :])
        labels, values = np.full((N, N), -1), np.zeros((N, N), dtype=complex)
        labels[at] = np.arange(m * m).reshape(m, m)
        values[at] = (self.phases[:, :, None] * self.phases.conj()[:, None, :]
                      / np.sqrt(self.k))
        return SubAlgebra(labels, values, step=self)


def gamma_step(k: int, n: int, flavor: str = "natural") -> EndomorphismStep:
    """Level-n endomorphism step in one of two consistent flavors.

    natural: W_j places the correction digit (j - digitsum(q)) mod k in the
    leading slot. Consecutive steps satisfy step_n(x (x) 1) =
    step_{n-1}(x) (x) 1, and every image lands pointwise inside the
    fixed-point algebra of the level-n phase symmetry.

    generic: the natural step conjugated by a diagonal n-fold product of
    half-angle phases. Same consistency and symmetry covariance, but the
    product-state invariances of the natural flavor fail.
    """
    if n < 1:
        raise ValueError("level must be at least 1")
    if flavor not in ("natural", "generic"):
        raise ValueError(f"unknown flavor {flavor!r}")
    m = k ** (n - 1)
    ds = digit_sums(k, n - 1)
    rows = (np.arange(k)[:, None] - ds) % k * m + np.arange(m)
    phases = np.ones((k, m), dtype=complex)
    if flavor == "generic":
        # the diagonal of tensor(*[diag(w)] * n), bit for bit, without N x N
        phases = tensor(*[np.exp(1j * np.pi * np.arange(k) / k)] * n)[rows]
    return EndomorphismStep(k=k, n=n, flavor=flavor, rows=rows, phases=phases)


def surrogate_commutant(step_image: SubAlgebra,
                        adjoin_symmetry: bool = False) -> SubAlgebra:
    """Relative commutant of an endomorphism image at the truncation level,
    solved over its step's two generators.

    With adjoin_symmetry the step's phase symmetry is added to the
    constraint set, shrinking the result to the span of the digit-class
    projections; without it the finite truncation leaves a strictly larger
    surrogate than the infinite-level answer. A span that holds no step is
    refused.
    """
    st = step_image.step
    if st is None:
        raise ValueError("span holds no endomorphism step")
    cons = st.generators()
    if adjoin_symmetry:
        cons.append(symmetry_map(st.k, st.n))
    return algebra.commutant(cons)


def _embed(x: np.ndarray, k: int, levels_up: int) -> np.ndarray:
    if levels_up == 0:
        return x
    return np.kron(x, np.eye(k ** levels_up, dtype=complex))


@dataclass(frozen=True)
class UnitaryPath:
    """Piecewise-smooth unitary family u(t) at the top truncation level.

    Segment j (t in [j-1, j]) runs z exp(i s theta) z* for s = t - j + 1
    over the spectrum of the j-th corrective unitary, its eigenphases theta
    in (-pi, pi] and eigenvectors z, composed with all earlier endpoints;
    u(0) is the exact identity. After segment j completes, the
    conjugation carries every element of level <= j onto the image of the
    corresponding endomorphism step and keeps it there for all later t.
    """

    k: int
    steps: tuple[EndomorphismStep, ...]
    endpoints: tuple[np.ndarray, ...]
    spectra: tuple[tuple[np.ndarray, np.ndarray], ...]   # (theta, z) of each segment

    @property
    def top_level(self) -> int:
        return self.steps[-1].n

    @property
    def dim(self) -> int:
        return self.k ** self.top_level

    def value(self, t: float) -> np.ndarray:
        L = self.top_level
        if not 0.0 <= t <= L - 1:
            raise ValueError(f"path parameter {t} outside [0, {L - 1}]")
        if t == 0.0:
            return np.eye(self.dim, dtype=complex)
        seg = min(int(np.floor(t)), L - 2)
        s = t - seg
        out = np.eye(self.dim, dtype=complex)
        for i in range(seg):
            out = _embed(self.endpoints[i], self.k, L - i - 2) @ out
        theta, z = self.spectra[seg]
        partial = (z * np.exp(1j * s * theta)) @ dagger(z)
        return _embed(partial, self.k, L - seg - 2) @ out


def unitary_path(steps: list[EndomorphismStep]) -> UnitaryPath:
    """Build the corrective unitary path for consecutive steps at levels
    2..L, in closed form from the steps' index maps. The level-n step's
    isometries assemble into one phased permutation U_n on C^m (x) C^k,
    U_n(e_q (x) e_i) = W_i e_q, so U_n (x (x) 1) U_n* = step_n(x). With
    U_1 = 1_k the endpoint of segment j is U_{j+1} (U_j (x) 1_k)*: the
    conjugations of segments 1..j then compose to U_{j+1}, which carries
    every x (x) 1 of level j onto the image of the level-(j+1) step.
    """
    if not steps:
        raise ValueError("need at least one step")
    k = steps[0].k
    flavor = steps[0].flavor
    for i, st in enumerate(steps):
        if st.k != k or st.flavor != flavor:
            raise ValueError("steps mix sizes or flavors")
        if st.n != i + 2:
            raise ValueError("steps must cover consecutive levels from 2")
    endpoints = []
    prev = np.eye(k, dtype=complex)
    for step in steps:
        N = step.target_dim
        u = np.zeros((N, N), dtype=complex)
        u[step.rows.T.ravel(), np.arange(N)] = step.phases.T.ravel()
        endpoints.append(u @ dagger(_embed(prev, k, 1)))
        prev = u
    spectra = []
    for u in endpoints:
        lam, z = eig_normal(u)
        theta = np.angle(lam)
        theta[theta <= -np.pi + 1e-14] = np.pi
        spectra.append((theta, z))
    return UnitaryPath(k=k, steps=tuple(steps),
                       endpoints=tuple(endpoints), spectra=tuple(spectra))


def innerness_residual(path: UnitaryPath, x: np.ndarray, t: float) -> float:
    """Operator-norm distance of u(t) x u(t)* from the step image of x.

    x lives at some level l in 1..L-1 (inferred from its size); both x and
    the image of x under the level-(l+1) step are embedded at the top level
    by tensoring with identities on the right.
    """
    x = np.asarray(x, dtype=complex)
    k, L = path.k, path.top_level
    size = x.shape[0]
    level = round(np.log(size) / np.log(k))
    if k ** level != size or not 1 <= level <= L - 1:
        raise ValueError("element level out of range for this path")
    step = path.steps[level - 1]
    lifted = _embed(x, k, L - level)
    target = _embed(step(x), k, L - level - 1)
    u = path.value(t)
    return opnorm(u @ lifted @ dagger(u) - target)
