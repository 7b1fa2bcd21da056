"""Finite tensor-power truncations M_k^(x)n with their diagonal phase
symmetry, digit-class fixed-point structure, consistent shift-style
endomorphism steps, surrogate commutants, and unitary paths that realize a
step as the endpoint of a continuous family of inner conjugations.

Index convention: a vector index q in k^n is read as n base-k digits, most
significant first. Inclusions into the next level append a tensor factor on
the right (last digit); the endomorphism steps add a correction digit on
the left (first slot). A step's isometries W_j form a phased permutation,
so a step is stored as index and phase arrays, not as dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from ._linalg import (cyclic_shift, dagger, matrix_unit, opnorm,
                      principal_log_unitary, tensor)
from .algebra import SubAlgebra


def omega_root(k: int) -> complex:
    return np.exp(2j * np.pi / k)


def phase_unitary(k: int) -> np.ndarray:
    """diag(1, w, .., w^(k-1)) with w the primitive k-th root of unity."""
    return np.diag(omega_root(k) ** np.arange(k)).astype(complex)


def symmetry_unitary(k: int, n: int) -> np.ndarray:
    """n-fold tensor power of the single-site phase unitary."""
    return tensor(*([phase_unitary(k)] * n))


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

    def pullback_density(self, rho: np.ndarray) -> np.ndarray:
        return dagger(self.u) @ np.asarray(rho, dtype=complex) @ self.u


def digit_sums(k: int, n: int) -> np.ndarray:
    """Base-k digit sums mod k of 0..k^n-1, as an int array, one trailing
    digit appended per pass: q k + d has the digit sum of q plus d."""
    total = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        total = (total[:, None] + np.arange(k)).ravel() % k
    return total


def fixed_point_blocks(k: int, n: int) -> tuple[list[np.ndarray], SubAlgebra]:
    """Digit-class projections E_0..E_{k-1} and the fixed-point algebra of
    Ad(symmetry_unitary) as a spanned subalgebra.

    E_j projects onto the span of basis vectors whose digit sum is j mod k;
    each has rank k^(n-1). The algebra consists of all matrices supported on
    pairs of indices with equal digit sum.
    """
    ds = digit_sums(k, n)
    N = k ** n
    projections = [np.diag((ds == j).astype(complex)) for j in range(k)]
    # index pairs of equal digit sum, class by class, row-major in each
    rows, cols = np.nonzero(ds[:, None] == ds)
    order = np.argsort(ds[rows], kind="stable")
    rows, cols, r = rows[order], cols[order], rows.size

    def scatter() -> np.ndarray:
        basis = np.zeros((r, N, N), dtype=complex)
        basis[np.arange(r), rows, cols] = 1.0
        return basis

    return projections, SubAlgebra(basis=_DeferredBasis((r, N, N), scatter))


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

    def pullback_density(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.target_dim,) * 2:
            raise ValueError(f"density must be {self.target_dim}-square")
        blocks = rho[self.rows[:, :, None], self.rows[:, None, :]]
        return (self.phases.conj()[:, :, None] * blocks
                * self.phases[:, None, :]).sum(axis=0)

    def meter(self) -> np.ndarray:
        """The range projections W_j W_j* as a meter: the outcome j of each
        level-n basis vector, its digit sum mod k."""
        return digit_sums(self.k, self.n)

    def generators(self) -> list[np.ndarray]:
        """Images of the shift and the corner unit, which generate the image
        of the source matrix algebra: a constraint set for its commutant."""
        m = self.source_dim
        return [self(cyclic_shift(m)), self(matrix_unit(0, 0, m))]

    def image_subalgebra(self) -> SubAlgebra:
        """Image as a spanned subalgebra, with generators and the ambient
        symmetry attached for surrogate commutant computations. Basis
        element q*m + t is the image of the matrix unit e_qt over sqrt(k);
        the dense (m^2, N, N) basis is scattered on its first read."""
        m, N = self.source_dim, self.target_dim
        return SubAlgebra(basis=_DeferredBasis((m * m, N, N), self._scatter_image),
                          generators=self.generators(),
                          symmetry=symmetry_unitary(self.k, self.n))

    def _scatter_image(self) -> np.ndarray:
        m, N = self.source_dim, self.target_dim
        q = np.arange(m)
        basis = np.zeros((m, m, N, N), dtype=complex)
        basis[q[:, None], q, self.rows[:, :, None], self.rows[:, None, :]] = (
            self.phases[:, :, None] * self.phases.conj()[:, None, :]
            / np.sqrt(self.k))
        return basis.reshape(m * m, N, N)


class _DeferredBasis:
    """An (r, N, N) basis as an array-like: it has the shape of the dense
    stack and calls scatter to form it only when numpy asks."""

    def __init__(self, shape: tuple[int, int, int], scatter):
        self.shape, self._scatter = shape, scatter

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self._scatter()


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
    """Relative commutant of an endomorphism image at the truncation level.

    With adjoin_symmetry the ambient phase symmetry is added to the
    constraint set, shrinking the result to the span of the digit-class
    projections; without it the finite truncation leaves a strictly larger
    surrogate than the infinite-level answer.
    """
    cons = step_image.constraints
    if adjoin_symmetry:
        if step_image.symmetry is None:
            raise ValueError("image carries no symmetry to adjoin")
        cons = cons + [np.asarray(step_image.symmetry, dtype=complex)]
    return algebra.commutant(cons)


def _embed(x: np.ndarray, k: int, levels_up: int) -> np.ndarray:
    if levels_up == 0:
        return x
    return np.kron(x, np.eye(k ** levels_up, dtype=complex))


@dataclass(frozen=True)
class UnitaryPath:
    """Piecewise-smooth unitary family u(t) at the top truncation level.

    Segment j (t in [j-1, j]) exponentiates the principal-branch Hermitian
    generator of the j-th corrective unitary, composed with all earlier
    endpoints; u(0) is the exact identity. After segment j completes, the
    conjugation carries every element of level <= j onto the image of the
    corresponding endomorphism step and keeps it there for all later t.
    """

    k: int
    flavor: str
    steps: tuple[EndomorphismStep, ...]
    endpoints: tuple[np.ndarray, ...]
    hermitians: tuple[np.ndarray, ...]

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
        lam, z = np.linalg.eigh(self.hermitians[seg])
        partial = (z * np.exp(1j * s * lam)) @ dagger(z)
        return _embed(partial, self.k, L - seg - 2) @ out


def unitary_path(steps: list[EndomorphismStep]) -> UnitaryPath:
    """Build the corrective unitary path for consecutive steps at levels
    2..L. Segment j solves, inside the level-(j+1) ambient algebra, for a
    unitary carrying the already-conjugated copy of level j onto the image
    of the level-(j+1) step, matching on the shift and corner generators.
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
    L = steps[-1].n
    endpoints: list[np.ndarray] = []
    hermitians: list[np.ndarray] = []
    for j in range(1, L):
        step = steps[j - 1]
        Wc = np.eye(k ** (j + 1), dtype=complex)
        for i, uu in enumerate(endpoints):
            Wc = _embed(uu, k, j - i - 1) @ Wc
        m = k ** j
        GP, GE = step.generators()
        CP = Wc @ _embed(cyclic_shift(m), k, 1) @ dagger(Wc)
        CE = Wc @ _embed(matrix_unit(0, 0, m), k, 1) @ dagger(Wc)
        pairs = [(GP, CP), (dagger(GP), dagger(CP)), (GE, CE)]
        space = algebra.intertwiner_space(pairs)
        u = algebra.unitary_in_space(space)
        endpoints.append(u)
        hermitians.append(principal_log_unitary(u))
    return UnitaryPath(k=k, flavor=flavor, steps=tuple(steps),
                       endpoints=tuple(endpoints), hermitians=tuple(hermitians))


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
