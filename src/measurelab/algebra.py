"""*-subalgebras of dense complex matrix algebras.

Provides commutants, centers, minimal central projections, and
intertwiner spaces, all through one restrict loop: cut a span down by
Gram-matrix null spaces, one constraint pair at a time. The loop works in
coefficient space: a span is an (r, count) coefficient matrix over an
orthonormal frame, and each constraint pair comes in as the frame's
count x count Gram matrix of its images. Commutants and intertwiner
spaces {X: aX = Xb} take their frame from one staged spectral split: split
the ambient space along the spectra of a normal pair (for a commutant, a
Hermitian element built from the constraints on both sides) and take the
outer products of eigenvectors between eigenvalue groups of equal value as
candidates, held as index pairs into the two eigenbases. Their Gram matrix
has a closed form in N x N products, so no candidate is formed densely,
and the dense basis is built once, for the survivors only (the
block-diagonalization of matrix *-algebras of Murota, Kanno, Kojima and
Kojima). A center takes the algebra's own basis as a dense frame and
restricts it by commutation with the algebra's constraint set, so it needs
neither a second commutant solve nor a span intersection.

A brute-force oracle for dimension cross-checks counts the null space of
the stacked constraint operator directly: it prunes coordinates pinned by
one-entry rows, splits the rest into the connected components of the
operator's exact zero pattern, and takes a dense rank of each block. It
reads structure only off that zero pattern, never off a spectrum, so the
two routes share no intermediate results. It imports scipy.sparse and
scipy.linalg.lapack when called, so importing the package does not.

Matrices are numpy complex128 arrays; the trace inner product <a,b> =
Tr(a*b) makes the flattened arrays ordinary vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._linalg import dagger, eig_normal, frob, opnorm, polar_unitary

SOLVE_TOL = 1e-9     # null-space decisions in commutant solves
GROUP_TOL = 1e-7     # eigenvalue grouping for spectral splits

# prime-root coefficients for generic Hermitian combinations
_COMBO_WEIGHTS = [1 / np.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]

# Largest spectral split the staged solve takes on. It bounds the count x
# count frame Gram matrix (144 MB at 3000) and its eigh: one group of 54^2 =
# 2916 candidates, commutant([eye(54)]), takes 18 s and peaks at 794 MB on
# one core of a 2-vCPU VM, mostly the eigh workspace.
_CANDIDATE_CAP = 3000
_PAIR_BUDGET = 4096   # most basis pairs center tests for commutativity


def _commutator_residual(basis: np.ndarray, mats) -> float:
    """Largest entry of |x b - b x| over x in basis and b in mats."""
    if basis.shape[0] == 0:
        return 0.0
    return max(float(np.abs(basis @ b - b @ basis).max()) for b in mats)


@dataclass(init=False)
class SubAlgebra:
    """*-closed unital span inside M_N, with an orthonormal basis.

    basis has shape (r, N, N) and is orthonormal under the trace inner
    product. It may be given as any array-like with a shape, such as a
    ladder step's image basis: it is then converted on the first read of
    basis and kept, and dim, ambient_dim and constraints never form it.
    generators, when present, is a preferred small constraint set whose
    commutant equals the commutant of the whole span. symmetry optionally
    carries a distinguished unitary (used by the surrogate commutant
    machinery).
    """

    generators: list | None
    symmetry: np.ndarray | None

    def __init__(self, basis, generators=None, symmetry=None):
        shape = np.shape(basis)
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError("basis must be an (r, N, N) array")
        self._source, self._shape = basis, shape
        self.generators = generators
        self.symmetry = symmetry

    @cached_property
    def basis(self) -> np.ndarray:
        return np.asarray(self._source, dtype=complex)

    @property
    def ambient_dim(self) -> int:
        return self._shape[1]

    @property
    def dim(self) -> int:
        return self._shape[0]

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


def full_matrix_algebra(d: int) -> SubAlgebra:
    """M_d with the matrix units e_ij (row-major in (i, j)) as its basis."""
    return SubAlgebra(np.eye(d * d).reshape(d * d, d, d))


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


def _split_candidates(la: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates for {X: aX = Xb} from the eigenvalues la of a normal a and
    lb of a normal b, as index pairs (I, J): candidate c is the outer product
    za_I[c] zb_J[c]* of eigenvectors of a and b, over every pair of
    eigenvalue groups of a and b with the same value. The candidates are
    orthonormal, and a span of them is held as an (r, count) coefficient
    matrix; no candidate is formed as a dense matrix.
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
    I = np.array([i for g, h in matches for i in g for _ in h], dtype=int)
    J = np.array([j for g, h in matches for _ in g for j in h], dtype=int)
    return I, J


def _split_gram(za: np.ndarray, zb: np.ndarray, I: np.ndarray, J: np.ndarray,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of the images a X_c - X_c b of the split candidates
    X_c = za_I[c] zb_J[c]*, in closed form from N x N products only.

    With a' = za* a za and b' = zb* b zb, the image of candidate (i, j) in
    the eigenbases is a' E_ij - E_ij b', so for c = (i, j), d = (k, l):
    M[c, d] = d_jl (a'* a')_ik + d_ik (b' b'*)_lj
              - conj(a'_ki) b'_lj - a'_ik conj(b'_jl).
    """
    same = b is a and zb is za
    a = dagger(za) @ a @ za
    b = a if same else dagger(zb) @ b @ zb
    M = a[np.ix_(I, I)] * np.conj(b[np.ix_(J, J)])
    M = -(M + dagger(M))
    rows, cols = np.nonzero(J[:, None] == J[None, :])
    M[rows, cols] += (dagger(a) @ a)[I[rows], I[cols]]
    rows, cols = np.nonzero(I[:, None] == I[None, :])
    M[rows, cols] += (b @ dagger(b))[J[cols], J[rows]]
    return M


def _split_basis(C: np.ndarray, za: np.ndarray, zb: np.ndarray, I: np.ndarray,
                 J: np.ndarray) -> np.ndarray:
    """The dense (r, N, M) basis za X zb* of a coefficient span C over the
    split candidates, where X[p] holds C[p] at the entries (I, J)."""
    X = np.zeros((C.shape[0], za.shape[0], zb.shape[0]), dtype=complex)
    X[:, I, J] = C
    return za @ X @ dagger(zb)


def _dense_gram(basis: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of the images a X - X b of the dense frame elements X."""
    img = (a @ basis - basis @ b).reshape(basis.shape[0], -1)
    return np.conj(img) @ img.T


def _restrict(C, M: np.ndarray, scale: float) -> np.ndarray:
    """Cut a span over a frame down to the null space of one constraint,
    given the frame's Gram matrix M of that constraint's images.

    The span is held by its coefficients C (r, count) over the frame, or C
    is None for the whole frame; its own Gram matrix is conj(C) M C^T. The
    cut keeps eigenvalues below max((SOLVE_TOL*scale)^2, 1e-13*lam_max):
    the second term is the Gram assembly noise floor, which the squared
    tolerance can undercut. Returns the coefficients null^T C of the span
    that survives.
    """
    G = M if C is None else np.conj(C) @ M @ C.T
    # symmetrized in place, allocating no second count x count array: G is
    # M, which the caller built for this call, or a fresh product
    G += dagger(G)
    G /= 2
    w, V = np.linalg.eigh(G)
    cut = max((SOLVE_TOL * scale) ** 2, 1e-13 * float(w.max(initial=1.0)))
    null = V[:, w <= cut].T
    return null if C is None else null @ C


def _solve(gram, count: int, pairs) -> np.ndarray:
    """Coefficients (r, count) of the span of a frame of count orthonormal
    elements, restricted by each (a, b, scale) in turn, stopping once empty.

    gram(a, b) gives the frame's Gram matrix of the images a X - X b, and
    scale, at least 1, is the spectral norm the cut is relative to.
    """
    C = None
    for a, b, scale in pairs:
        if C is not None and C.shape[0] == 0:
            break
        C = _restrict(C, gram(a, b), scale)
    return np.eye(count, dtype=complex) if C is None else C


def _self_pairs(mats):
    """Yield the restriction pairs (g, g, scale) for each constraint g and,
    when g is not Hermitian, its adjoint, with scale = max(1, ||g||_2) taken
    once for both (a matrix and its adjoint have the same spectral norm).
    Lazy, so a solve that empties early takes no further norms."""
    for g in mats:
        scale = max(1.0, opnorm(g))
        for h in _with_adjoints([g]):
            yield h, h, scale


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
    pairs = list(_self_pairs(cons))
    h = _split_element([g for g, _, _ in pairs])
    lam, z = np.linalg.eigh(h)
    # restrict by the constraints least aligned with the split first: they
    # shrink the candidate set fastest
    pairs.sort(key=lambda p: -frob(p[0] @ h - h @ p[0]))
    I, J = _split_candidates(lam, lam)
    C = _solve(partial(_split_gram, z, z, I, J), len(I), pairs)
    basis = _split_basis(C, z, z, I, J)
    scale = max(p[2] for p in pairs)
    worst = _commutator_residual(basis, cons)
    if worst > 1e-6 * scale:
        raise RuntimeError(f"commutant verification failed: residual {worst:.2e}")
    return SubAlgebra(basis)


def center(s: SubAlgebra) -> SubAlgebra:
    """s intersected with its commutant: the span of s restricted by
    commutation with its constraint set (generators, else basis) and their
    adjoints. An abelian s of at most _PAIR_BUDGET basis pairs is its own
    center and comes back sharing its basis array.
    """
    r = s.dim
    if r == 0:
        raise ValueError("empty algebra")
    if r * r <= _PAIR_BUDGET and _commutator_residual(s.basis, s.basis) <= SOLVE_TOL:
        return SubAlgebra(s.basis, generators=s.generators)
    C = _solve(partial(_dense_gram, s.basis), r, _self_pairs(s.constraints))
    return SubAlgebra(np.tensordot(C, s.basis, axes=1))


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
    # a center sharing the basis of s is s itself, which center has already
    # found abelian to SOLVE_TOL
    if (c.basis is not s.basis
            and _commutator_residual(c.basis, c.basis) > 100 * SOLVE_TOL):
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
    la, za = eig_normal(pairs[0][0])
    lb, zb = eig_normal(pairs[0][1])
    I, J = _split_candidates(la, lb)
    scaled = [(a, b, max(1.0, opnorm(a), opnorm(b))) for a, b in pairs]
    C = _solve(partial(_split_gram, za, zb, I, J), len(I), scaled)
    return _split_basis(C, za, zb, I, J)


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
    import scipy.sparse
    import scipy.sparse.csgraph

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
    from scipy.linalg import lapack

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
    import scipy.sparse

    cons = _with_adjoints(mats)
    ident = scipy.sparse.identity(cons[0].shape[0], format="csr", dtype=complex)
    A = scipy.sparse.vstack([scipy.sparse.kron(b, ident) - scipy.sparse.kron(ident, b.T)
                             for b in cons])
    return _null_dimension(A)
