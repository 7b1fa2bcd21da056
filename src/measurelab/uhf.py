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
from functools import cached_property

import numpy as np

from . import algebra
from ._linalg import dagger, tensor
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
        rows[j, t]): its N^2/k live entries are gathered from the step in
        ascending order, row R = rows[j, q] taking the columns rows[j] sorted."""
        k, m, N = self.k, self.source_dim, self.target_dim
        jq = np.empty(N, dtype=np.intp)
        jq[self.rows.ravel()] = np.arange(N)
        j, q = np.divmod(jq, m)                      # row R = rows[j[R], q[R]]
        t = np.argsort(self.rows, axis=1)[j]          # row R's columns, ascending
        idx = (np.arange(N)[:, None] * N + self.rows[j[:, None], t]).ravel()
        val = self.phases[j, q][:, None] * self.phases.conj()[j[:, None], t] / np.sqrt(k)
        return SubAlgebra(N, idx, (q[:, None] * m + t).ravel(), val.ravel(), step=self)


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


def _lift(rows, cols, vals, R: int) -> tuple:
    """The triplets (rows, cols, vals) of y (x) 1_R, y held as triplets."""
    e = np.arange(R)
    return (rows[:, None] * R + e).ravel(), (cols[:, None] * R + e).ravel(), np.repeat(vals, R)


def _lift_map(m: tuple, R: int) -> tuple:
    """The index map m (x) 1_R."""
    return _lift(np.arange(len(m[0])), *m, R)[1:]


def _compose(a: tuple, b: tuple) -> tuple:
    """The index map of the product ab: row r of a meets row a_cols[r] of b."""
    return b[0][a[0]], a[1] * b[1][a[0]]


def _adjoint(m: tuple) -> tuple:
    """The index map of m* for a phased permutation m: row c of m* holds
    conj(vals[a]) at column a, for cols[a] = c."""
    cols, vals = m
    out = np.empty_like(cols), np.empty_like(vals)
    out[0][cols], out[1][cols] = np.arange(len(cols)), vals.conj()
    return out


def _matmul(a: tuple, b: tuple, n: int) -> tuple:
    """The product of two n x n matrices held as triplets, coalesced: each
    entry (r, l) of a meets the run of b's entries on row l."""
    order = np.argsort(b[0], kind="stable")
    at = b[0][order]
    e, f = algebra._runs(np.searchsorted(at, a[1]), np.searchsorted(at, a[1], "right"))
    return algebra._coalesce(a[0][e], b[1][order[f]], a[2][e] * b[2][order[f]], n)


def _opnorm(rows, cols, vals) -> float:
    """Operator norm of a matrix held as triplets: the largest over the
    connected components of its pattern, the blocks of algebra._blocks."""
    return max([0.0] + [float(np.linalg.norm(B, 2, axis=(1, 2)).max())
                        for _, B in algebra._blocks(rows, cols, vals)])


def _cycle_spectrum(u: tuple) -> tuple:
    """The spectrum of the phased permutation u = (cols, vals) in closed
    form, one block (nodes, theta, z) per cycle length L. nodes is (c, L),
    each cycle from its least node in the order u moves it, u e_(n_i) =
    f_i e_(n_(i+1)). A cycle whose phases multiply to Phi has the L L-th
    roots of Phi as eigenvalues exp(i theta_m), theta in (-pi, pi], with
    eigenvectors z[i, m] = f_0 .. f_(i-1) exp(-i i theta_m) / sqrt(L)."""
    fwd, back = _adjoint(u)               # u e_c = conj(back[c]) e_(fwd[c])
    ar = np.arange(len(fwd))
    length, least, at = np.ones_like(ar), ar.copy(), fwd.copy()
    while (moving := at != ar).any():
        least = np.where(moving, np.minimum(least, at), least)
        length += moving
        at = np.where(moving, fwd[at], at)
    blocks = []
    for L in np.unique(length):
        nodes = [ar[(least == ar) & (length == L)]]
        for _ in range(L - 1):
            nodes.append(fwd[nodes[-1]])
        nodes = np.stack(nodes, axis=1)
        f = back[nodes].conj()
        lead = np.cumprod(np.concatenate([np.ones((len(f), 1)), f[:, :-1]], axis=1), axis=1)
        phi = lead[:, -1] * f[:, -1]
        theta = np.angle(np.exp(1j * (np.angle(phi)[:, None] + 2 * np.pi * np.arange(L)) / L))
        theta[theta <= -np.pi + 1e-14] = np.pi
        z = lead[:, :, None] * np.exp(-1j * np.arange(L)[:, None] * theta[:, None, :]) / np.sqrt(L)
        blocks.append((nodes, theta, z))
    return tuple(blocks)


@dataclass(frozen=True)
class UnitaryPath:
    """Piecewise-smooth unitary family u(t) at the top truncation level.

    Segment j (t in [j-1, j]) runs z exp(i s theta) z* for s = t - j + 1
    over the spectrum of the j-th corrective unitary, composed with all
    earlier endpoints; u(0) is the exact identity. After segment j
    completes, the conjugation carries every element of level <= j onto
    the image of the corresponding endomorphism step and keeps it there for
    all later t. Each endpoint is a phased permutation held as its index
    map (cols, vals). Its spectrum, formed on first read, is
    _cycle_spectrum's blocks (nodes, theta, z), one per cycle length, so
    z exp(i s theta) z* is block diagonal over the cycles. Every factor is
    some y (x) 1 below the top level, so u(t) can be read at the deepest
    level its factors reach.
    """

    k: int
    steps: tuple[EndomorphismStep, ...]
    endpoints: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def top_level(self) -> int:
        return self.steps[-1].n

    @property
    def dim(self) -> int:
        return self.k ** self.top_level

    @cached_property
    def spectra(self) -> tuple:
        return tuple(_cycle_spectrum(u) for u in self.endpoints)

    def _split(self, t: float) -> tuple:
        """(whole segments done by t, the fraction of the next)."""
        if not 0.0 <= t <= self.top_level - 1:
            raise ValueError(f"path parameter {t} outside [0, {self.top_level - 1}]")
        whole = int(np.floor(t))
        return whole, t - whole

    def _map(self, whole: int, level: int) -> tuple:
        """u(whole) at level: the first whole endpoints, each lifted by
        (x) 1, composed as one index map."""
        q = np.arange(self.k ** level), np.ones(self.k ** level, dtype=complex)
        for i in range(whole):
            q = _compose(_lift_map(self.endpoints[i], self.k ** (level - i - 2)), q)
        return q

    def _blocks(self, seg: int, s: float, level: int) -> tuple:
        """Segment seg's z exp(i s theta) z* at level, as triplets: each
        cycle's block, lifted by (x) 1."""
        R = self.k ** (level - seg - 2)
        parts = []
        for nodes, theta, z in self.spectra[seg]:
            blk = np.broadcast_to(((z * np.exp(1j * s * theta)[:, None, :]) @ dagger(z))[..., None],
                                  z.shape + (R,))
            at = nodes[:, :, None] * R + np.arange(R)          # (c, L, R)
            parts.append((np.broadcast_to(at[:, :, None, :], blk.shape).ravel(),
                          np.broadcast_to(at[:, None, :, :], blk.shape).ravel(), blk.ravel()))
        return tuple(np.concatenate(x) for x in zip(*parts))

    def value(self, t: float) -> np.ndarray:
        """u(t) as a dense top-level array."""
        whole, s = self._split(t)
        n, (cols, vals) = self.dim, self._map(whole, self.top_level)
        out = np.zeros((n, n), dtype=complex)
        out[np.arange(n), cols] = vals
        if s:
            rows, cols, vals = self._blocks(whole, s, self.top_level)
            b = np.zeros((n, n), dtype=complex)
            b[rows, cols] = vals
            out = b @ out
        return out


def unitary_path(steps: list[EndomorphismStep]) -> UnitaryPath:
    """Build the corrective unitary path for consecutive steps at levels
    2..L, in closed form from the steps' index maps. The level-n step's
    isometries assemble into one phased permutation U_n on C^m (x) C^k,
    U_n(e_q (x) e_i) = W_i e_q, so U_n (x (x) 1) U_n* = step_n(x). With
    U_1 = 1_k the endpoint of segment j is U_{j+1} (U_j (x) 1_k)*: the
    conjugations of segments 1..j then compose to U_{j+1}, which carries
    every x (x) 1 of level j onto the image of the level-(j+1) step. Each
    is an index map, one scatter and one composition, and its spectrum is
    read off its cycles.
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
    prev = np.arange(k), np.ones(k, dtype=complex)
    for step in steps:
        N = step.target_dim
        # U_n[rows[i, q], q*k + i] = phases[i, q]
        u = np.empty(N, dtype=np.intp), np.empty(N, dtype=complex)
        u[0][step.rows.T.ravel()], u[1][step.rows.T.ravel()] = np.arange(N), step.phases.T.ravel()
        endpoints.append(_compose(u, _adjoint(_lift_map(prev, k))))
        prev = u
    return UnitaryPath(k=k, steps=tuple(steps), endpoints=tuple(endpoints))


def innerness_residual(path: UnitaryPath, x: np.ndarray, t: float) -> float:
    """Operator-norm distance of u(t) x u(t)* from the step image of x.

    x lives at some level l in 1..L-1 (inferred from its size); both x and
    the image of x under the level-(l+1) step are embedded by tensoring
    with identities on the right. Every factor is some y (x) 1, so the
    distance is read at the deepest level that u(t), x and the image reach,
    on the triplets of x's nonzeros: the whole segments' phased permutation
    moves them by index arithmetic, a partial segment's cycle blocks
    multiply them as sparse products, and the norm is the largest over the
    connected components of the difference.
    """
    x = np.asarray(x, dtype=complex)
    k, L = path.k, path.top_level
    size = x.shape[0]
    level = round(np.log(size) / np.log(k))
    if k ** level != size or not 1 <= level <= L - 1:
        raise ValueError("element level out of range for this path")
    whole, s = path._split(t)
    M = max(level + 1, whole + 1 + (s > 0))
    n = k ** M
    r, c = np.nonzero(x)
    v, st = x[r, c], path.steps[level - 1]
    img = _lift(st.rows[:, r].ravel(), st.rows[:, c].ravel(),
                (st.phases[:, r] * v * st.phases[:, c].conj()).ravel(), k ** (M - level - 1))
    r, c, v = _lift(r, c, v, k ** (M - level))
    at, back = _adjoint(path._map(whole, M))   # u(whole) e_r = conj(back[r]) e_(at[r])
    ux = at[r], at[c], back[r].conj() * v * back[c]
    if s:
        b = path._blocks(whole, s, M)
        ux = _matmul(_matmul(b, ux, n), (b[1], b[0], b[2].conj()), n)
    diff = (np.concatenate(z) for z in zip(ux, img[:2] + (-img[2],)))
    return _opnorm(*algebra._coalesce(*diff, n))
