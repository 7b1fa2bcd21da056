"""*-subalgebras of dense complex matrix algebras.

Provides generation (word closure), commutants, centers, minimal central
projections, and intertwiner spaces. Commutants are computed by a staged
spectral method: split the ambient space along a Hermitian element built
from the constraints, take the same-eigenvalue-group outer products as
candidates, then cut the candidate span down by Gram-matrix null spaces,
one constraint at a time. A brute-force oracle for dimension cross-checks
counts the null space of the stacked constraint operator directly: it
prunes coordinates pinned by one-entry rows, splits the rest into the
connected components of the operator's exact zero pattern, and takes a
dense rank of each block. It reads structure only off that zero pattern,
never off a spectrum, so the two routes share no intermediate results.

Matrices are numpy complex128 arrays; the trace inner product <a,b> =
Tr(a*b) makes the flattened arrays ordinary vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
from scipy.linalg import lapack

from ._linalg import dagger, frob, opnorm, matrix_unit, tensor

SPAN_TOL = 1e-10     # span membership, relative to trace norm
SOLVE_TOL = 1e-9     # null-space decisions in commutant solves
GROUP_TOL = 1e-7     # eigenvalue grouping for spectral splits

# prime-root coefficients for generic Hermitian combinations
_COMBO_WEIGHTS = [1 / np.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]

_CANDIDATE_CAP = 3000


def orthonormalize(mats, tol: float = SPAN_TOL) -> np.ndarray:
    """Orthonormal basis of span(mats) as an (r, N, N) array.

    Modified Gram-Schmidt with one re-orthogonalization pass; directions
    with norm below tol times the largest input norm are dropped.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValueError("empty input")
    N = mats[0].shape[0]
    scale = max(max(frob(m) for m in mats), 1e-300)
    out = []
    for m in mats:
        v = m.reshape(-1).copy()
        for _ in range(2):
            for b in out:
                v -= np.vdot(b, v) * b
        nv = np.linalg.norm(v)
        if nv > tol * scale:
            out.append(v / nv)
    if not out:
        return np.zeros((0, N, N), dtype=complex)
    return np.array(out).reshape(len(out), N, N)


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
    unital: bool = True
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

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of x onto the span."""
        vecs = self.basis.reshape(self.dim, -1)
        coef = vecs.conj() @ np.asarray(x, dtype=complex).reshape(-1)
        return (coef @ vecs).reshape(self.ambient_dim, self.ambient_dim)

    def span_residual(self, x: np.ndarray) -> float:
        return frob(x - self.project(x))

    def contains(self, x: np.ndarray, tol: float = SPAN_TOL) -> bool:
        return self.span_residual(x) <= tol * max(1.0, frob(x))

    def closure_residual(self, max_pairs: int = 4096) -> float:
        """Worst span residual over adjoints, products, and the identity.

        Checks every basis pair when dim^2 <= max_pairs, else a strided
        deterministic sample of pairs.
        """
        worst = 0.0
        for b in self.basis:
            worst = max(worst, self.span_residual(dagger(b)))
        if self.unital:
            worst = max(worst, self.span_residual(np.eye(self.ambient_dim)) / max(1.0, np.sqrt(self.ambient_dim)))
        r = self.dim
        if r == 0:
            return worst
        stride = max(1, int(np.ceil(r * r / max_pairs)))
        idx = 0
        for i in range(r):
            for j in range(r):
                if idx % stride == 0:
                    p = self.basis[i] @ self.basis[j]
                    worst = max(worst, self.span_residual(p) / max(1.0, frob(p)))
                idx += 1
        return worst


@dataclass(frozen=True)
class MatrixUnits:
    """Standard family e_ij in M_d: e_ij e_kl = delta_jk e_il, sum e_ii = 1."""

    d: int
    units: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.d
        u = np.zeros((d, d, d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                u[i, j, i, j] = 1.0
        object.__setattr__(self, "units", u)

    def __getitem__(self, ij) -> np.ndarray:
        i, j = ij
        return self.units[i, j]

    def relations_residual(self) -> float:
        d = self.d
        worst = 0.0
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        p = self.units[i, j] @ self.units[k, l]
                        expect = self.units[i, l] if j == k else 0.0
                        worst = max(worst, np.abs(p - expect).max())
                worst = max(worst, np.abs(dagger(self.units[i, j]) - self.units[j, i]).max())
        worst = max(worst, np.abs(sum(self.units[i, i] for i in range(d)) - np.eye(d)).max())
        return float(worst)


def full_matrix_algebra(d: int) -> SubAlgebra:
    basis = MatrixUnits(d).units.reshape(d * d, d, d)
    return SubAlgebra(basis)


def scalar_algebra(d: int) -> SubAlgebra:
    return SubAlgebra((np.eye(d, dtype=complex) / np.sqrt(d))[None, :, :])


def generated_algebra(generators, ambient_dim: int | None = None,
                      tol: float = SPAN_TOL) -> SubAlgebra:
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
    basis = orthonormalize(seed + mult, tol)
    while True:
        r = basis.shape[0]
        new = [basis]
        for g in mult:
            new.append(basis @ g)
        basis2 = orthonormalize(np.concatenate(new, axis=0), tol)
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


def _eigen_groups(lam: np.ndarray, tol: float = GROUP_TOL) -> list:
    """Chain-group sorted eigenvalues; returns index groups into lam."""
    order = np.lexsort((lam.imag.round(9), lam.real.round(9)))
    groups, cur = [], [order[0]]
    for idx in order[1:]:
        if abs(lam[idx] - lam[cur[-1]]) <= tol * max(1.0, abs(lam[idx])):
            cur.append(idx)
        else:
            groups.append(cur)
            cur = [idx]
    groups.append(cur)
    return groups


def _split_candidates(h: np.ndarray, tol: float = GROUP_TOL) -> np.ndarray:
    """Orthonormal candidate basis for {X: [X, h] = 0}, h Hermitian."""
    lam, z = np.linalg.eigh(h)
    groups = _eigen_groups(lam.astype(complex), tol)
    count = sum(len(g) ** 2 for g in groups)
    if count > _CANDIDATE_CAP:
        raise RuntimeError(f"spectral split too coarse: {count} candidates")
    N = h.shape[0]
    mats = np.empty((count, N, N), dtype=complex)
    pos = 0
    for grp in groups:
        zg = z[:, grp]
        m = len(grp)
        blk = np.einsum("ai,bj->ijab", zg, zg.conj())
        mats[pos:pos + m * m] = blk.reshape(m * m, N, N)
        pos += m * m
    return mats


def _split_candidates_pair(a: np.ndarray, b: np.ndarray,
                           tol: float = GROUP_TOL) -> np.ndarray:
    """Candidate basis for {X: aX = Xb}, a and b normal with related spectra."""
    from ._linalg import eig_normal
    la, za = eig_normal(a)
    lb, zb = eig_normal(b)
    mats = []
    used = np.zeros(len(la), dtype=bool)
    for i in range(len(la)):
        if used[i]:
            continue
        ga = [j for j in range(len(la)) if not used[j]
              and abs(la[j] - la[i]) <= tol * max(1.0, abs(la[i]))]
        for j in ga:
            used[j] = True
        gb = [j for j in range(len(lb)) if abs(lb[j] - la[i]) <= tol * max(1.0, abs(la[i]))]
        if not gb:
            continue
        if len(mats) + len(ga) * len(gb) > _CANDIDATE_CAP:
            raise RuntimeError("spectral split too coarse")
        blk = np.einsum("ai,bj->ijab", za[:, ga], zb[:, gb].conj())
        mats.extend(blk.reshape(len(ga) * len(gb), a.shape[0], b.shape[0]))
    if not mats:
        return np.zeros((0, a.shape[0], b.shape[0]), dtype=complex)
    return np.array(mats)


def _restrict(basis: np.ndarray, a: np.ndarray, b: np.ndarray | None = None,
              tol: float = SOLVE_TOL) -> np.ndarray:
    """Cut span(basis) down to {X: aX - Xb = 0} (b = a for commutation).

    Null space of the Gram matrix of the constraint images. The cut keeps
    eigenvalues below max((tol*scale)^2, 1e-13*lam_max): the second term is
    the Gram assembly noise floor, which the squared tolerance can undercut.
    """
    if b is None:
        b = a
    r = basis.shape[0]
    if r == 0:
        return basis
    expr = a @ basis - basis @ b
    C = expr.reshape(r, -1)
    G = np.conj(C) @ C.T   # true Gram: G[p,q] = <expr_p, expr_q>
    G = (G + dagger(G)) / 2
    w, V = np.linalg.eigh(G)
    scale = max(1.0, opnorm(a), opnorm(b))
    lam_max = max(float(w[-1]), 0.0)
    cut = max((tol * scale) ** 2, 1e-13 * max(lam_max, 1.0))
    null = V[:, w <= cut]
    if null.shape[1] == 0:
        return basis[:0]
    return np.einsum("rij,rp->pij", basis, null, optimize=True)


def _staged_commutant_basis(constraints, tol: float = SOLVE_TOL) -> np.ndarray:
    cons = _with_adjoints(constraints)
    h = _split_element(cons)
    basis = _split_candidates(h)
    # restrict by the constraints least aligned with the split first: they
    # shrink the candidate set fastest
    order = sorted(range(len(cons)),
                   key=lambda i: -frob(cons[i] @ h - h @ cons[i]))
    for i in order:
        basis = _restrict(basis, cons[i], tol=tol)
        if basis.shape[0] == 0:
            break
    return basis


def commutant(s, tol: float = SOLVE_TOL) -> SubAlgebra:
    """Commutant {Q: Qb = bQ for all b in s} as a SubAlgebra.

    s may be a SubAlgebra (its generators, when recorded, are an equivalent
    and cheaper constraint set than the basis) or a plain list of matrices.
    """
    if isinstance(s, SubAlgebra):
        cons = s.generators if s.generators else list(s.basis)
    else:
        cons = list(s)
    if not cons:
        raise ValueError("empty constraint set")
    N = np.asarray(cons[0]).shape[0]
    if all(frob(np.asarray(g)) < 1e-14 for g in cons):
        return full_matrix_algebra(N)
    basis = _staged_commutant_basis(cons, tol)
    scale = max(1.0, max(opnorm(np.asarray(g)) for g in cons))
    worst = 0.0
    for g in cons:
        g = np.asarray(g, dtype=complex)
        if basis.shape[0]:
            worst = max(worst, float(np.abs(basis @ g - g @ basis).max()))
    if worst > 1e-6 * scale:
        raise RuntimeError(f"commutant verification failed: residual {worst:.2e}")
    return SubAlgebra(basis)


def center(s: SubAlgebra, tol: float = SOLVE_TOL) -> SubAlgebra:
    """s intersected with commutant(s), as a span intersection."""
    r = s.dim
    if r == 0:
        raise ValueError("empty algebra")
    vecs = s.basis.reshape(r, -1)
    comm_worst = 0.0
    if r * r <= 4096:
        for a in s.basis:
            comm_worst = max(comm_worst, float(np.abs(s.basis @ a - a @ s.basis).max()))
        if comm_worst <= tol:
            return SubAlgebra(s.basis.copy(), generators=s.generators)
    cp = commutant(s, tol)
    return intersect_spans(s, cp, tol)


def intersect_spans(s1: SubAlgebra, s2: SubAlgebra, tol: float = SOLVE_TOL) -> SubAlgebra:
    """Span intersection via the null space of the stacked coefficient system."""
    v1 = s1.basis.reshape(s1.dim, -1)
    v2 = s2.basis.reshape(s2.dim, -1)
    M = np.concatenate([v1.T, -v2.T], axis=1)    # (N^2, r1+r2)
    u, w, vh = np.linalg.svd(M, full_matrices=True)
    cutoff = max(tol * (w[0] if len(w) else 1.0), 1e-13)
    null = vh[np.sum(w > cutoff):].conj().T      # columns spanning the null space
    if null.shape[1] == 0:
        N = s1.ambient_dim
        return SubAlgebra(np.zeros((0, N, N), dtype=complex), unital=False)
    mats = (null[:s1.dim].T @ v1).reshape(-1, s1.ambient_dim, s1.ambient_dim)
    return SubAlgebra(orthonormalize(mats, SPAN_TOL))


def minimal_central_projections(s: SubAlgebra, tol: float = SOLVE_TOL) -> list:
    """Minimal projections of the center, in a reproducible order.

    Spectral decomposition of a generic self-adjoint element of the center;
    retries with rotated weights if eigenvalue collisions merge blocks.
    Order: descending rank, then descending lexicographic rounded diagonal.
    """
    c = center(s, tol)
    cdim = c.dim
    if cdim == 0:
        raise ValueError("empty center")
    for a in c.basis:
        if float(np.abs(c.basis @ a - a @ c.basis).max()) > 100 * tol:
            raise ValueError("center is not abelian to tolerance")
    N = c.ambient_dim
    rng = np.random.default_rng(20260822)
    for attempt in range(6):
        if attempt == 0:
            wts = np.array(_COMBO_WEIGHTS[:cdim] if cdim <= len(_COMBO_WEIGHTS)
                           else list(rng.standard_normal(cdim)))
        else:
            wts = rng.standard_normal(cdim)
        h = np.zeros((N, N), dtype=complex)
        for wgt, b in zip(wts, c.basis):
            h += wgt * (b + dagger(b)) / 2
            h += wgt * 0.5 * ((b - dagger(b)) / 2j)
        lam, z = np.linalg.eigh(h)
        groups = _eigen_groups(lam.astype(complex), GROUP_TOL)
        if len(groups) != cdim:
            continue
        projs = []
        ok = True
        for grp in groups:
            zg = z[:, grp]
            p = zg @ dagger(zg)
            if c.span_residual(p) > 100 * tol * max(1.0, frob(p)):
                ok = False
                break
            projs.append(p)
        if not ok:
            continue
        total = sum(projs)
        if np.abs(total - np.eye(N)).max() > 1e-10:
            continue
        ranks = [int(round(np.trace(p).real)) for p in projs]
        keys = []
        for p, r in zip(projs, ranks):
            diag = tuple((-np.round(np.diagonal(p).real, 9)).tolist())
            keys.append((-r, diag))
        orderidx = sorted(range(len(projs)), key=lambda i: keys[i])
        return [projs[i] for i in orderidx]
    raise RuntimeError("could not separate central projections")


def intertwiner_space(pairs, tol: float = SOLVE_TOL) -> np.ndarray:
    """Solution space of the system {X: a X = X b for all (a, b) in pairs}.

    The first pair must be normal on both sides; it seeds the spectral split.
    Returns an orthonormal (r, N, N) array.
    """
    pairs = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)) for a, b in pairs]
    basis = _split_candidates_pair(pairs[0][0], pairs[0][1])
    for a, b in pairs:
        basis = _restrict(basis, a, b, tol=tol)
        if basis.shape[0] == 0:
            break
    return basis


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
            u, _, vh = np.linalg.svd(s)
            return u @ vh
    raise RuntimeError("no invertible element found in the span")


# ---------------------------------------------------------------------------
# brute-force oracle (kept independent of the staged route)
# ---------------------------------------------------------------------------

_DENSE_BLOCK_MAX = 1024   # widest block ranked by dense SVD; wider ones by Gram


def _null_dimension(A, tol: float = SOLVE_TOL) -> int:
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

    The cuts are set once from the whole operator: tol times its largest
    column norm for entries and singular values, 1e-8 times the largest
    Gram diagonal for pivots, both floored at 1e-12, so an operator made of
    rounding noise keeps its full null space instead of being pruned away.
    """
    A = scipy.sparse.csr_array(A, dtype=complex)
    A.eliminate_zeros()
    mag = abs(A)
    scale2 = float(np.asarray(mag.power(2).sum(axis=0)).max(initial=0.0))
    cut = max(tol * np.sqrt(scale2), 1e-12)
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


def commutant_dimension_bruteforce(mats, tol: float = SOLVE_TOL) -> int:
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
    return _null_dimension(A, tol)


def conjugation_fixed_dimension_bruteforce(u: np.ndarray, tol: float = SOLVE_TOL) -> int:
    """Dimension of {x: u x u* = x} as dim ker of u (x) conj(u) - I.

    Same route as commutant_dimension_bruteforce. For a diagonal u the
    operator is diagonal: pruning drops every entry with u_i conj(u_j) away
    from 1, and each coordinate left over is a one-column block.
    """
    u = scipy.sparse.csr_array(np.asarray(u, dtype=complex))
    n2 = u.shape[0] ** 2
    A = scipy.sparse.kron(u, u.conj()) - scipy.sparse.identity(n2, dtype=complex)
    return _null_dimension(A, tol)
