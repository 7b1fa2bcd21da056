"""*-subalgebras of dense complex matrix algebras: commutants, centers,
minimal central projections, intertwiner spaces and a brute-force
dimension oracle.

Commutants and intertwiner spaces {X: aX = Xb} have one engine, for
monomial matrices (at most one nonzero per row and column, exact zeros,
phases as link ratios): the ladder's shift and corner images, its phase
symmetry and their tensor powers. There (aX - Xb)_ij = alpha_i
X_(sigma_i, j) - phi_j X_(i, pi_j) links two entries of X by a phase or
kills one; a numpy union-find over the N^2 entries gives the components,
and each with no killed entry and no broken link is one element, as
orbital matrices span a permutation group's centralizer ring. The span is
verified by gathers in the Frobenius norm, O(N^2) per constraint, and a
commutant forms its dense basis on first read. A set holding any other
matrix is refused; commutant_dimension_bruteforce gives the dimension of
its commutant.

A center restricts the algebra's own basis by commutation with its
constraints, one dense Gram null space (np.linalg.eigh) per constraint; an
abelian one of at most _PAIR_BUDGET basis pairs is its own center.

The oracle prunes coordinates pinned by one-entry rows of the stacked
constraint operator, splits the rest by its exact zero pattern and ranks
each block: it reads no spectrum, shares nothing with the engine, and is
the only code here that imports scipy, when called. Matrices are numpy
complex128 arrays; the trace inner product Tr(a*b) makes the flattened
arrays ordinary vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import dagger, frob, opnorm

SOLVE_TOL = 1e-9     # null-space decisions in commutant solves
GROUP_TOL = 1e-7     # eigenvalue grouping for central projections

# prime-root coefficients for generic Hermitian combinations
_COMBO_WEIGHTS = [1 / np.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]

# Most basis pairs (r^2) center's abelian shortcut takes; past it a center
# restricts a dense r-element frame, which tensor_power_report refuses.
_PAIR_BUDGET = 4096


def _pair_residual(basis: np.ndarray) -> float:
    """Largest entry of |x_p x_q - x_q x_p| over the pairs p < q of basis,
    each unordered pair once ([x_q, x_p] = -[x_p, x_q]) and in place."""
    worst = 0.0
    for p, x in enumerate(basis[:-1]):
        d = basis[p + 1:] @ x
        d -= x @ basis[p + 1:]
        worst = max(worst, float(np.abs(d).max()))
    return worst


class _DeferredBasis:
    """An (r, N, N) basis as an array-like that calls form when numpy asks."""

    def __init__(self, shape: tuple[int, int, int], form):
        self.shape, self._form = shape, form

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self._form()


@dataclass(init=False)
class SubAlgebra:
    """*-closed unital span inside M_N, with an orthonormal basis.

    basis has shape (r, N, N) and is orthonormal under the trace inner
    product. It may be given as any array-like with a shape, such as a
    step image's or a commutant's _DeferredBasis: it is then converted on
    the first read of basis and kept, and dim and ambient_dim never form it.
    step is the ladder step whose image the span is, when it is one: its
    two generators then stand in for the basis as the constraint set.
    """

    step: object | None

    def __init__(self, basis, step=None):
        shape = np.shape(basis)
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError("basis must be an (r, N, N) array")
        self._source, self._shape = basis, shape
        self.step = step

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
        """The step's generators for a step image, else the basis: a
        constraint set whose commutant is the commutant of the span."""
        if self.step is not None:
            return self.step.generators()
        return list(self.basis)

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

def _checked(mats) -> list:
    """mats as complex128 arrays, refused unless each is a finite square
    matrix and all share one size."""
    mats = [np.asarray(g, dtype=complex) for g in mats]
    if not mats:
        raise ValueError("empty constraint set")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(g.shape != shape for g in mats):
        raise ValueError("constraints must be square matrices of one size")
    if not all(np.isfinite(g).all() for g in mats):
        raise ValueError("constraints must be finite")
    return mats


def _with_adjoints(mats) -> list:
    return [a for a, _ in _self_pairs((np.asarray(g, dtype=complex), 1.0) for g in mats)]


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


def _dense_gram(basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gram matrix of the images a X - X a of the dense frame elements X."""
    img = (a @ basis - basis @ a).reshape(basis.shape[0], -1)
    return np.conj(img) @ img.T


def _restrict(G: np.ndarray, scale: float) -> np.ndarray | None:
    """Rows: the null space of a frame's Gram matrix G of one constraint's
    images, or None when nothing is cut.

    The cut keeps eigenvalues at or below max((SOLVE_TOL*scale)^2,
    1e-13*max(1, lam_max)): the last term is the Gram assembly noise floor,
    which the squared tolerance can undercut. When ||G||_F is at or below
    the smallest cut it bounds every eigenvalue, so none is cut and no
    eigensolve runs. G is symmetrized in place.
    """
    G += dagger(G)
    G /= 2
    floor = max((SOLVE_TOL * scale) ** 2, 1e-13)
    if np.linalg.norm(G) <= floor:
        return None
    w, V = np.linalg.eigh(G)
    return V[:, w <= max(floor, 1e-13 * float(w[-1]))].T


def _self_pairs(scaled):
    """Yield (a, scale) for each (a, scale) and, when a is not Hermitian,
    (a*, scale): the two have one spectral norm. Lazy, so a restriction
    that empties early forms no further adjoints."""
    for a, scale in scaled:
        yield a, scale
        if frob(a - dagger(a)) > 1e-12 * max(1.0, frob(a)):
            yield dagger(a), scale


def _monomial(g: np.ndarray):
    """(sigma, alpha, pi, phi): row a of g holds alpha_a at column sigma_a,
    column j holds phi_j at row pi_j (0 if empty). None unless g is finite,
    monomial and, unless diagonal, of one nonzero modulus (phase link ratios)."""
    nz, ar = g != 0, np.arange(len(g))
    mod, off_diagonal = np.abs(g[nz]), np.count_nonzero(nz) > np.count_nonzero(np.diagonal(nz))
    if (nz.sum(axis=1).max() > 1 or nz.sum(axis=0).max() > 1 or not np.isfinite(mod).all()
            or off_diagonal and np.ptp(mod) > SOLVE_TOL * mod.max()):
        return None
    sigma, pi = nz.argmax(axis=1), nz.argmax(axis=0)
    return sigma, g[ar, sigma], pi, g[pi, ar]


def _monomials(mats, what: str) -> list:
    monos = [_monomial(g) for g in mats]
    if any(m is None for m in monos):
        raise ValueError(
            f"{what} takes monomial matrices only (at most one nonzero per row and column); "
            "commutant_dimension_bruteforce gives the commutant dimension of any finite set")
    return monos


def _orbit_nodes(mono) -> tuple:
    """Nodes u = (sigma_a, j), v = (a, pi_j) of (aX - Xb)_aj = alpha_a X_u - phi_j X_v."""
    sigma, alpha, pi, phi = mono
    ar = np.arange(len(sigma))
    return sigma[:, None] * len(ar) + ar, ar[:, None] * len(ar) + pi, alpha, phi


def _orbit_equations(mono) -> tuple:
    """aX = Xb as killed nodes and links X_v = ratio X_u: a lone nonzero
    coefficient, or a self-loop with |alpha - phi| > SOLVE_TOL*max(1, |a|, |b|), kills."""
    u, v, alpha, phi = _orbit_nodes(mono)
    ra, cp = (alpha != 0)[:, None], (phi != 0)[None, :]
    a, j = np.nonzero(ra & cp & (u == v))
    tol = SOLVE_TOL * max(1.0, np.abs(alpha).max(), np.abs(phi).max())
    loops = u[a, j][np.abs(alpha[a] - phi[j]) > tol]
    a, j = np.nonzero(ra & cp & (u != v))
    return np.concatenate([u[ra & ~cp], v[~ra & cp], loops]), u[a, j], v[a, j], alpha[a] / phi[j]


def _orbit_union(p: np.ndarray, w: np.ndarray, u, v, ratio) -> np.ndarray:
    """Merge the links X_v = ratio X_u into the forest p with potentials
    w = X_x / X_root, in place, hooking each root under the least root it
    links to until no link joins two trees. Returns u of each broken link."""
    while True:
        while not np.array_equal(pp := p[p], p):
            w *= w[p]
            p[:] = pp
        ru, rv, f = p[u], p[v], ratio * w[u] / w[v]   # X_rv = f X_ru
        cross = ru != rv
        if not cross.any():
            return u[np.abs(w[v] - ratio * w[u]) > SOLVE_TOL]
        ru, rv, f = ru[cross], rv[cross], f[cross]
        lo, hi, f = np.minimum(ru, rv), np.maximum(ru, rv), np.where(rv > ru, f, 1 / f)
        np.minimum.at(p, hi, lo)
        keep = p[hi] == lo
        w[hi[keep]] = f[keep]


def _orbit_commutant(monos: list, N: int, what: str) -> tuple:
    """The span {X: aX = Xb} over the equations of monos, each (sigma_a,
    alpha_a, pi_b, phi_b): one normalized element per surviving component of
    the N^2 nodes, in the order of their least nodes. Returns its dimension
    and a function that forms the dense (r, N, N) basis."""
    p, w, dead = np.arange(N * N), np.ones(N * N, dtype=complex), []
    for mono in monos:
        killed, u, v, ratio = _orbit_equations(mono)
        dead += [killed, _orbit_union(p, w, u, v, ratio)]
    alive = np.flatnonzero(np.isin(p, p[np.concatenate(dead)], invert=True))
    roots, lab = np.unique(p[alive], return_inverse=True)
    r, labels, vals = len(roots), np.full(N * N, len(roots)), np.zeros(N * N, dtype=complex)
    labels[alive] = lab
    vals[alive] = w[alive] / np.sqrt(np.bincount(lab, np.abs(w[alive]) ** 2))[lab]
    worst = 0.0
    for mono in monos:
        # ||a X_p - X_p b||_F by gathers: equation (a, j) adds to the elements at u, v
        u, v, alpha, phi = _orbit_nodes(mono)
        cu, cv = (alpha[:, None] * vals[u]).ravel(), (phi * vals[v]).ravel()
        lu, lv = labels[u].ravel(), labels[v].ravel()
        sq = (np.bincount(lu, np.abs(np.where(lu == lv, cu - cv, cu)) ** 2, r)
              + np.bincount(lv, np.abs(np.where(lu == lv, 0, cv)) ** 2, r))
        worst = max(worst, float(np.sqrt(sq[:r].max(initial=0.0))))
    scale = max(1.0, *(np.abs(m[k]).max() for m in monos for k in (1, 3)))
    if worst > 1e-6 * scale:
        raise RuntimeError(f"{what} verification failed: residual {worst:.2e}")
    return r, lambda: ((np.arange(r)[:, None] == labels) * vals).reshape(r, N, N)


def commutant(s) -> SubAlgebra:
    """Commutant {Q: Qb = bQ for all b in s} as a SubAlgebra.

    s may be a SubAlgebra (a step image's generators are an equivalent and
    cheaper constraint set than its basis) or a plain list of matrices.
    Every constraint that is not a scalar must be monomial.
    """
    cons = _checked(s.constraints if isinstance(s, SubAlgebra) else list(s))
    N = cons[0].shape[0]
    # a multiple of the identity constrains nothing; dropped to rounding, so
    # one with off-diagonal noise is not refused as non-monomial
    eye = np.eye(N)
    cons = [g for g in cons
            if frob(g - np.trace(g) / N * eye) >= 1e-14 * max(1.0, frob(g))]
    if not cons:
        return full_matrix_algebra(N)
    monos = _monomials(_with_adjoints(cons), "commutant")
    r, form = _orbit_commutant(monos, N, "commutant")
    return SubAlgebra(_DeferredBasis((r, N, N), form))


def center(s: SubAlgebra) -> SubAlgebra:
    """s intersected with its commutant: the span of s restricted by
    commutation with its constraint set (a step image's generators, else
    its basis) and their adjoints. An abelian s of at most _PAIR_BUDGET
    basis pairs is its own center and comes back as s itself.
    """
    r = s.dim
    if r == 0:
        raise ValueError("empty algebra")
    if r * r <= _PAIR_BUDGET and _pair_residual(s.basis) <= SOLVE_TOL:
        return s
    # the frame is re-formed after each cut, so each Gram is over the
    # current span only
    span = s.basis
    for a, scale in _self_pairs((g, max(1.0, opnorm(g))) for g in s.constraints):
        if span.shape[0] == 0:
            break
        null = _restrict(_dense_gram(span, a), scale)
        if null is not None:
            span = np.tensordot(null, span, axes=1)
    return SubAlgebra(span)


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
    # a center that is s itself has already been found abelian to SOLVE_TOL
    if c is not s and _pair_residual(c.basis) > 100 * SOLVE_TOL:
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
    """Solution space of the system {X: a X = X b for all (a, b) in pairs},
    as an orthonormal (r, N, N) array. Every a and b must be monomial: a
    gives each equation's row link, b its column link.
    """
    mats = _checked([g for a, b in pairs for g in (a, b)])
    monos = _monomials(mats, "intertwiner_space")
    rows = [ma[:2] + mb[2:] for ma, mb in zip(monos[::2], monos[1::2])]
    return _orbit_commutant(rows, mats[0].shape[0], "intertwiner")[1]()


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
