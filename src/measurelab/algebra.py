"""*-subalgebras of dense complex matrix algebras.

Provides generation (word closure), commutants, centers, minimal central
projections, and intertwiner spaces, all through one restrict loop: cut a
span down by Gram-matrix null spaces, one constraint pair at a time.
Commutants and intertwiner spaces {X: aX = Xb} start it from one staged
spectral split: split the ambient space along the spectra of a normal pair
(for a commutant, a Hermitian element built from the constraints on both
sides) and take the outer products between eigenvalue groups of equal value
as candidates (one candidate builder). A center starts it from the
algebra's own span and restricts by commutation with the algebra's
constraint set, so it needs neither a second commutant solve nor a span
intersection. A brute-force oracle for dimension cross-checks counts the
null space of the stacked constraint operator directly: it prunes
coordinates pinned by one-entry rows, splits the rest into the connected
components of the operator's exact zero pattern, and takes a dense rank of
each block. It reads structure only off that zero pattern, never off a
spectrum, so the two routes share no intermediate results.

Matrices are numpy complex128 arrays; the trace inner product <a,b> =
Tr(a*b) makes the flattened arrays ordinary vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
from scipy.linalg import lapack

from ._linalg import dagger, eig_normal, frob, opnorm, polar_unitary

SPAN_TOL = 1e-10     # span membership, relative to trace norm
SOLVE_TOL = 1e-9     # null-space decisions in commutant solves
GROUP_TOL = 1e-7     # eigenvalue grouping for spectral splits

# prime-root coefficients for generic Hermitian combinations
_COMBO_WEIGHTS = [1 / np.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]

_CANDIDATE_CAP = 3000
_PAIR_BUDGET = 4096   # basis pairs checked exhaustively; past it, a sample


def orthonormalize(mats) -> np.ndarray:
    """Orthonormal basis of span(mats) as an (r, N, N) array.

    One SVD of the stacked flattened inputs: the right singular vectors
    whose singular value is above SPAN_TOL times the largest input norm.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[0] == 0:
        raise ValueError("empty input")
    N = mats.shape[1]
    vecs = mats.reshape(mats.shape[0], -1)
    scale = max(float(np.linalg.norm(vecs, axis=1).max()), 1e-300)
    _, w, vh = np.linalg.svd(vecs, full_matrices=False)
    return vh[w > SPAN_TOL * scale].reshape(-1, N, N)


def _commutator_residual(basis: np.ndarray, mats) -> float:
    """Largest entry of |x b - b x| over x in basis and b in mats."""
    if basis.shape[0] == 0:
        return 0.0
    return max(float(np.abs(basis @ b - b @ basis).max()) for b in mats)


@dataclass
class SubAlgebra:
    """*-closed unital span inside M_N, with an orthonormal basis.

    basis has shape (r, N, N) and is orthonormal under the trace inner
    product. generators, when present, is a preferred small constraint set
    whose commutant equals the commutant of the whole span. symmetry
    optionally carries a distinguished unitary (used by the surrogate
    commutant machinery).
    """

    basis: np.ndarray
    generators: list | None = None
    symmetry: np.ndarray | None = None

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 3 or self.basis.shape[1] != self.basis.shape[2]:
            raise ValueError("basis must be an (r, N, N) array")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def constraints(self) -> list:
        """The generators when recorded, else the basis: a constraint set
        whose commutant is the commutant of the span."""
        return list(self.generators) if self.generators else list(self.basis)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of x onto the span."""
        vecs = self.basis.reshape(self.dim, -1)
        coef = vecs.conj() @ np.asarray(x, dtype=complex).reshape(-1)
        return (coef @ vecs).reshape(self.ambient_dim, self.ambient_dim)

    def span_residual(self, x: np.ndarray) -> float:
        return frob(x - self.project(x))

    def contains(self, x: np.ndarray) -> bool:
        return self.span_residual(x) <= SPAN_TOL * max(1.0, frob(x))

    def closure_residual(self) -> float:
        """Worst span residual over adjoints, products, and the identity.

        Checks every basis pair when dim^2 <= _PAIR_BUDGET, else a strided
        deterministic sample of pairs.
        """
        worst = 0.0
        for b in self.basis:
            worst = max(worst, self.span_residual(dagger(b)))
        worst = max(worst, self.span_residual(np.eye(self.ambient_dim)) / max(1.0, np.sqrt(self.ambient_dim)))
        r = self.dim
        stride = max(1, int(np.ceil(r * r / _PAIR_BUDGET)))
        for idx in range(0, r * r, stride):
            p = self.basis[idx // r] @ self.basis[idx % r]
            worst = max(worst, self.span_residual(p) / max(1.0, frob(p)))
        return worst


def full_matrix_algebra(d: int) -> SubAlgebra:
    """M_d with the matrix units e_ij (row-major in (i, j)) as its basis."""
    return SubAlgebra(np.eye(d * d).reshape(d * d, d, d))


def generated_algebra(generators, ambient_dim: int | None = None) -> SubAlgebra:
    """Smallest unital *-closed span containing the generators.

    Word closure: repeatedly multiply the current span by the generator set
    (and adjoints) until no new directions appear. Idempotent on the result.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient_dim required when there are no generators")
        ambient_dim = gens[0].shape[0]
    for g in gens:
        if g.shape != (ambient_dim, ambient_dim):
            raise ValueError("generator dimension mismatch")
    seed = [np.eye(ambient_dim, dtype=complex)]
    mult = []
    for g in gens:
        mult.append(g)
        mult.append(dagger(g))
    basis = orthonormalize(seed + mult)
    while True:
        r = basis.shape[0]
        new = [basis]
        for g in mult:
            new.append(basis @ g)
        basis2 = orthonormalize(np.concatenate(new, axis=0))
        if basis2.shape[0] == r:
            return SubAlgebra(basis2, generators=gens if gens else None)
        basis = basis2


# ---------------------------------------------------------------------------
# staged commutant machinery
# ---------------------------------------------------------------------------

def _with_adjoints(mats) -> list:
    out = []
    for g in mats:
        g = np.asarray(g, dtype=complex)
        out.append(g)
        if frob(g - dagger(g)) > 1e-12 * max(1.0, frob(g)):
            out.append(dagger(g))
    return out


def _split_element(constraints) -> np.ndarray:
    """Generic Hermitian element commuting with every commutant solution.

    Built from Hermitian/anti-Hermitian parts of a greedy pairwise-commuting
    normal subset of the constraints (prime-root weights), falling back to
    the Hermitian part of the first constraint. Any Hermitian combination of
    constraint parts is a valid split element; commuting subsets just split
    finer, which keeps the candidate count small.
    """
    chosen = []
    for g in constraints:
        sc = max(1.0, frob(g) ** 2)
        if frob(g @ dagger(g) - dagger(g) @ g) > 1e-10 * sc:
            continue
        if all(frob(g @ h - h @ g) <= 1e-10 * max(1.0, frob(g) * frob(h)) for h in chosen):
            chosen.append(g)
    if not chosen:
        chosen = [constraints[0]]
    h = np.zeros_like(np.asarray(constraints[0], dtype=complex))
    wi = 0
    for g in chosen:
        h = h + _COMBO_WEIGHTS[wi % len(_COMBO_WEIGHTS)] * (g + dagger(g)) / 2
        wi += 1
        h = h + _COMBO_WEIGHTS[wi % len(_COMBO_WEIGHTS)] * (g - dagger(g)) / 2j
        wi += 1
    if frob(h) < 1e-12:
        h = np.eye(h.shape[0], dtype=complex)
    return h


def _eigen_groups(lam: np.ndarray) -> list:
    """Chain-group sorted eigenvalues; returns index groups into lam."""
    order = np.lexsort((lam.imag.round(9), lam.real.round(9)))
    groups, cur = [], [order[0]]
    for idx in order[1:]:
        if abs(lam[idx] - lam[cur[-1]]) <= GROUP_TOL * max(1.0, abs(lam[idx])):
            cur.append(idx)
        else:
            groups.append(cur)
            cur = [idx]
    groups.append(cur)
    return groups


def _split_candidates(la: np.ndarray, za: np.ndarray, lb: np.ndarray,
                      zb: np.ndarray) -> np.ndarray:
    """Candidate basis for {X: aX = Xb} from eigenpairs (la, za) of a normal
    a and (lb, zb) of a normal b: the outer products za_i zb_j* over every
    pair of eigenvalue groups of a and b with the same value.
    """
    ga, gb = _eigen_groups(la), _eigen_groups(lb)
    va = np.array([la[g[0]] for g in ga])
    vb = np.array([lb[g[0]] for g in gb])
    gap = np.abs(va[:, None] - vb[None, :])
    near = gap <= GROUP_TOL * np.maximum(1.0, np.abs(va))[:, None]
    matches = [(ga[i], gb[np.argmax(near[i])]) for i in np.flatnonzero(near.any(axis=1))]
    count = sum(len(g) * len(h) for g, h in matches)
    if count > _CANDIDATE_CAP:
        raise RuntimeError(f"spectral split too coarse: {count} candidates")
    N, M = za.shape[0], zb.shape[0]
    mats = np.empty((count, N, M), dtype=complex)
    pos = 0
    for g, h in matches:
        blk = np.einsum("ai,bj->ijab", za[:, g], zb[:, h].conj())
        mats[pos:pos + len(g) * len(h)] = blk.reshape(-1, N, M)
        pos += len(g) * len(h)
    return mats


def _restrict(basis: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cut a nonempty span(basis) down to {X: aX - Xb = 0}.

    Null space of the Gram matrix of the constraint images. The cut keeps
    eigenvalues below max((SOLVE_TOL*scale)^2, 1e-13*lam_max): the second
    term is the Gram assembly noise floor, which the squared tolerance can
    undercut.
    """
    r = basis.shape[0]
    expr = a @ basis - basis @ b
    C = expr.reshape(r, -1)
    G = np.conj(C) @ C.T   # true Gram: G[p,q] = <expr_p, expr_q>
    G = (G + dagger(G)) / 2
    w, V = np.linalg.eigh(G)
    scale = max(1.0, opnorm(a), opnorm(b))
    lam_max = max(float(w[-1]), 0.0)
    cut = max((SOLVE_TOL * scale) ** 2, 1e-13 * max(lam_max, 1.0))
    null = V[:, w <= cut]
    if null.shape[1] == 0:
        return basis[:0]
    return np.einsum("rij,rp->pij", basis, null, optimize=True)


def _solve(basis: np.ndarray, pairs) -> np.ndarray:
    """Restrict span(basis) by each (a, b) in turn, stopping once empty."""
    for a, b in pairs:
        if basis.shape[0] == 0:
            break
        basis = _restrict(basis, a, b)
    return basis


def commutant(s) -> SubAlgebra:
    """Commutant {Q: Qb = bQ for all b in s} as a SubAlgebra.

    s may be a SubAlgebra (its generators, when recorded, are an equivalent
    and cheaper constraint set than the basis) or a plain list of matrices.
    """
    cons = s.constraints if isinstance(s, SubAlgebra) else list(s)
    if not cons:
        raise ValueError("empty constraint set")
    cons = [np.asarray(g, dtype=complex) for g in cons]
    if all(frob(g) < 1e-14 for g in cons):
        return full_matrix_algebra(cons[0].shape[0])
    both = _with_adjoints(cons)
    h = _split_element(both)
    lam, z = np.linalg.eigh(h)
    # restrict by the constraints least aligned with the split first: they
    # shrink the candidate set fastest
    order = sorted(both, key=lambda g: -frob(g @ h - h @ g))
    basis = _solve(_split_candidates(lam, z, lam, z), [(g, g) for g in order])
    scale = max(1.0, max(opnorm(g) for g in cons))
    worst = _commutator_residual(basis, cons)
    if worst > 1e-6 * scale:
        raise RuntimeError(f"commutant verification failed: residual {worst:.2e}")
    return SubAlgebra(basis)


def center(s: SubAlgebra) -> SubAlgebra:
    """s intersected with its commutant: the span of s restricted by
    commutation with its constraint set (generators, else basis) and their
    adjoints. An abelian s of at most _PAIR_BUDGET basis pairs is its own
    center and comes back with its basis unchanged.
    """
    r = s.dim
    if r == 0:
        raise ValueError("empty algebra")
    if r * r <= _PAIR_BUDGET and _commutator_residual(s.basis, s.basis) <= SOLVE_TOL:
        return SubAlgebra(s.basis.copy(), generators=s.generators)
    cons = _with_adjoints(s.constraints)
    return SubAlgebra(_solve(s.basis, [(g, g) for g in cons]))


def minimal_central_projections(s: SubAlgebra) -> list:
    """Minimal projections of the center, in a reproducible order.

    Spectral decomposition of a generic self-adjoint element of the center;
    retries with rotated weights if eigenvalue collisions merge blocks.
    Order: descending rank, then descending lexicographic rounded diagonal.
    """
    c = center(s)
    cdim = c.dim
    if cdim == 0:
        raise ValueError("empty center")
    if _commutator_residual(c.basis, c.basis) > 100 * SOLVE_TOL:
        raise ValueError("center is not abelian to tolerance")
    N = c.ambient_dim
    rng = np.random.default_rng(20260822)
    for attempt in range(6):
        if attempt == 0 and cdim <= len(_COMBO_WEIGHTS):
            wts = np.array(_COMBO_WEIGHTS[:cdim])
        else:
            wts = rng.standard_normal(cdim)
        h = np.zeros((N, N), dtype=complex)
        for wgt, b in zip(wts, c.basis):
            h += wgt * (b + dagger(b)) / 2
            h += wgt * 0.5 * ((b - dagger(b)) / 2j)
        lam, z = np.linalg.eigh(h)
        groups = _eigen_groups(lam.astype(complex))
        if len(groups) != cdim:
            continue
        projs = [z[:, grp] @ dagger(z[:, grp]) for grp in groups]
        if any(c.span_residual(p) > 100 * SOLVE_TOL * max(1.0, frob(p)) for p in projs):
            continue
        if np.abs(sum(projs) - np.eye(N)).max() > 1e-10:
            continue
        keys = [(-int(round(np.trace(p).real)),
                 tuple((-np.round(np.diagonal(p).real, 9)).tolist())) for p in projs]
        return [projs[i] for i in sorted(range(len(projs)), key=keys.__getitem__)]
    raise RuntimeError("could not separate central projections")


def intertwiner_space(pairs) -> np.ndarray:
    """Solution space of the system {X: a X = X b for all (a, b) in pairs}.

    The first pair must be normal on both sides; it seeds the spectral split.
    Returns an orthonormal (r, N, N) array.
    """
    pairs = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)) for a, b in pairs]
    basis = _split_candidates(*eig_normal(pairs[0][0]), *eig_normal(pairs[0][1]))
    return _solve(basis, pairs)


def unitary_in_space(basis: np.ndarray) -> np.ndarray:
    """A unitary element of span(basis), deterministic.

    Projects a fixed candidate list (identity, then seeded Gaussians) onto
    the span and polar-factors the first projection that is invertible. When
    the span is of the form u0 * C for a *-algebra C, the polar factor stays
    in the span.
    """
    if basis.shape[0] == 0:
        raise ValueError("empty space contains no unitary")
    N = basis.shape[1]
    vecs = basis.reshape(basis.shape[0], -1)
    cands = [np.eye(N, dtype=complex).reshape(-1)]
    rng = np.random.default_rng(11)
    for _ in range(6):
        cands.append(rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N))
    for cvec in cands:
        coef = vecs.conj() @ cvec
        s = (coef @ vecs).reshape(N, N)
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[-1] > 1e-6 * max(sv[0], 1e-30):
            return polar_unitary(s)
    raise RuntimeError("no invertible element found in the span")


# ---------------------------------------------------------------------------
# brute-force oracle (kept independent of the staged route)
# ---------------------------------------------------------------------------

_DENSE_BLOCK_MAX = 1024   # widest block ranked by dense SVD; wider ones by Gram


def _null_dimension(A) -> int:
    """dim ker A for a sparse complex operator A, read off its zero pattern.

    1. Singleton pruning: a row with exactly one entry above the cut pins
       that coordinate to zero; the row is used up and the coordinate
       dropped, until no row with one such entry is left.
    2. The remaining columns split into the connected components of A's
       exact nonzero pattern, over which A is block diagonal.
    3. Each block is ranked on its own: a real-stacked dense SVD up to
       _DENSE_BLOCK_MAX columns (a complex null space counts twice there,
       so an odd count is an error), else the pivot count of zpstrf on its
       Gram matrix. A block with no rows is all null space.

    The cuts are set once from the whole operator: SOLVE_TOL times its
    largest column norm for entries and singular values, 1e-8 times the
    largest Gram diagonal for pivots, both floored at 1e-12, so an operator
    made of rounding noise keeps its full null space instead of being pruned
    away.
    """
    A = scipy.sparse.csr_array(A, dtype=complex)
    A.eliminate_zeros()
    mag = abs(A)
    scale2 = float(np.asarray(mag.power(2).sum(axis=0)).max(initial=0.0))
    cut = max(SOLVE_TOL * np.sqrt(scale2), 1e-12)
    gram_cut = max(1e-8 * scale2, 1e-12)

    big = (mag > cut).astype(float)
    alive = np.ones(A.shape[1], dtype=bool)
    used = np.zeros(A.shape[0], dtype=bool)
    while True:
        rows = np.flatnonzero(big @ alive == 1)
        if rows.size == 0:
            break
        used[rows] = True
        alive[big[rows].nonzero()[1]] = False

    B = A[np.flatnonzero(~used)][:, np.flatnonzero(alive)]
    m = B.shape[0]
    link = B.astype(bool)
    pattern = scipy.sparse.bmat([[None, link], [link.T, None]], format="csr")
    count, labels = scipy.sparse.csgraph.connected_components(pattern, directed=False)
    row_lab, col_lab = labels[:m], labels[m:]
    heights = np.bincount(row_lab, minlength=count)
    widths = np.bincount(col_lab, minlength=count)
    null = int(widths[heights == 0].sum())
    B = B[np.argsort(row_lab, kind="stable")][:, np.argsort(col_lab, kind="stable")]
    r_end, c_end = np.cumsum(heights), np.cumsum(widths)
    for lab in np.flatnonzero((heights > 0) & (widths > 0)):
        blk = B[r_end[lab] - heights[lab]:r_end[lab],
                c_end[lab] - widths[lab]:c_end[lab]].toarray()
        null += _block_null(blk, cut, gram_cut)
    return null


def _block_null(blk: np.ndarray, cut: float, gram_cut: float) -> int:
    width = blk.shape[1]
    if width <= _DENSE_BLOCK_MAX:
        real = np.block([[blk.real, -blk.imag], [blk.imag, blk.real]])
        w = np.linalg.svd(real, compute_uv=False)
        null_real = 2 * width - int(np.sum(w > cut))
        if null_real % 2:
            raise RuntimeError("real-stacked null space has odd dimension")
        return null_real // 2
    G = blk.conj().T @ blk
    G = (G + dagger(G)) / 2
    _, _, rank, info = lapack.zpstrf(G, lower=1, tol=gram_cut)
    if info < 0:
        raise RuntimeError(f"pivoted Cholesky failed: info {info}")
    return width - int(rank)


def commutant_dimension_bruteforce(mats) -> int:
    """Commutant dimension as dim ker of the stacked b (x) I - I (x) b^T.

    One row block per constraint and adjoint; the null dimension comes from
    _null_dimension (prune, split by exact sparsity, rank each block). Its
    structure is read only off the zero pattern of the operator, never off
    a spectrum, so the oracle shares nothing with the staged solver.
    """
    cons = _with_adjoints(mats)
    ident = scipy.sparse.identity(cons[0].shape[0], format="csr", dtype=complex)
    A = scipy.sparse.vstack([scipy.sparse.kron(b, ident) - scipy.sparse.kron(ident, b.T)
                             for b in cons])
    return _null_dimension(A)


def conjugation_fixed_dimension_bruteforce(u: np.ndarray) -> int:
    """Dimension of {x: u x u* = x} as dim ker of u (x) conj(u) - I.

    Same route as commutant_dimension_bruteforce. For a diagonal u the
    operator is diagonal: pruning drops every entry with u_i conj(u_j) away
    from 1, and each coordinate left over is a one-column block.
    """
    u = scipy.sparse.csr_array(np.asarray(u, dtype=complex))
    n2 = u.shape[0] ** 2
    A = scipy.sparse.kron(u, u.conj()) - scipy.sparse.identity(n2, dtype=complex)
    return _null_dimension(A)
