"""*-subalgebras of dense complex matrix algebras: commutants, centers,
minimal central projections, intertwiner spaces and a brute-force
dimension oracle.

A commutant takes one of two routes, verifies its span in the Frobenius
norm ("commutant verification failed") and forms its dense basis on first
read. The orbit route takes sets of monomial constraints (at most one
nonzero per row and column, exact zeros, phases as link ratios): the
ladder's shift and corner images, its phase symmetry and their tensor
powers. There [g, X]_aj = alpha_a X_(sigma_a, j) - phi_j X_(a, pi_j) links
two entries of X by a phase or kills one; a numpy union-find over the N^2
entries gives the components, and each with no killed entry and no broken
link is one element, as orbital matrices span a permutation group's
centralizer ring. It is verified by gathers, O(N^2) per constraint.

The spectral route takes every other set, and intertwiner spaces
{X: aX = Xb} (the block-diagonalization of Murota, Kanno, Kojima and
Kojima): a frame of outer products of eigenvectors of a normal pair
between eigenvalue groups of equal value, cut by the null space of each
constraint's Gram matrix of images (a closed form in the constraint moved
into the eigenbasis once; skipped when its trace cannot reach the cut),
from np.linalg.eigh below _TRIDIAGONAL_MIN frame elements, else from a
tridiagonal reduction (scipy.linalg.lapack, imported on first call). It is
verified block by block in the eigenbasis. A center restricts the
algebra's own basis by commutation with its constraints; an abelian one of
at most _PAIR_BUDGET basis pairs is its own center.

The oracle prunes coordinates pinned by one-entry rows of the stacked
constraint operator, splits the rest by its exact zero pattern and ranks
each block: it reads no spectrum, shares nothing with either route, and
imports scipy only when called. Matrices are numpy complex128 arrays; the
trace inner product Tr(a*b) makes the flattened arrays ordinary vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._linalg import dagger, eig_normal, frob, frobs, opnorm

SOLVE_TOL = 1e-9     # null-space decisions in commutant solves
GROUP_TOL = 1e-7     # eigenvalue grouping for spectral splits

# prime-root coefficients for generic Hermitian combinations
_COMBO_WEIGHTS = [1 / np.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]

# Largest split the spectral route takes on. It bounds the count x count
# frame Gram (144 MB at 3000) and its null-space solve: 54^2 = 2916
# candidates cut by a generic 54 x 54 g take 11 s and 458 MB (2-vCPU VM).
_CANDIDATE_CAP = 3000
# Smallest frame whose restriction Gram _restrict reduces to tridiagonal
# form (faster from about 64 elements once scipy.linalg is loaded, which
# costs 0.25 s cold); smaller frames take a full eigh and need no scipy.
_TRIDIAGONAL_MIN = 512
# Most basis pairs (r^2) center's abelian shortcut takes; past it a center
# restricts a dense r-element frame, which tensor_power_report refuses.
_PAIR_BUDGET = 4096
_VERIFY_ENTRIES = 1 << 20   # most N x N entries a verification chunk holds


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

def _with_adjoints(mats) -> list:
    return [a for a, _, _ in _self_pairs((np.asarray(g, dtype=complex), 1.0) for g in mats)]


def _split_element(constraints) -> np.ndarray:
    """Generic Hermitian element commuting with every commutant solution.

    Built from Hermitian/anti-Hermitian parts of a greedy pairwise-commuting
    normal subset of the constraints (prime-root weights), falling back to
    the Hermitian part of the first constraint. Any Hermitian combination of
    constraint parts is a valid split element; commuting subsets just split
    finer, which keeps the candidate count small. The adjoints add nothing:
    by Fuglede's theorem a normal g's adjoint commutes with whatever g
    commutes with, and its Hermitian parts are those of g up to sign.
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
    for i, g in enumerate(chosen):
        h = h + _COMBO_WEIGHTS[2 * i % len(_COMBO_WEIGHTS)] * (g + dagger(g)) / 2
        h = h + _COMBO_WEIGHTS[(2 * i + 1) % len(_COMBO_WEIGHTS)] * (g - dagger(g)) / 2j
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


def _split_gram(I: np.ndarray, J: np.ndarray, pairs: tuple, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Gram matrix of the images a E_c - E_c b of the split candidates
    E_c = E_{I_c J_c}, from a and b already in the two eigenbases, in
    closed form from N x N products only. For c = (i, j), d = (k, l):
    M[c, d] = d_jl (a* a)_ik + d_ik (b b*)_lj - conj(a_ki) b_lj - a_ik conj(b_jl).
    pairs holds the (c, d) with J_c = J_d, then those with I_c = I_d."""
    M = a[np.ix_(I, I)] * np.conj(b[np.ix_(J, J)])
    M = -(M + dagger(M))
    (rows, cols), (rows_i, cols_i) = pairs
    M[rows, cols] += (dagger(a) @ a)[I[rows], I[cols]]
    M[rows_i, cols_i] += (b @ dagger(b))[J[cols_i], J[rows_i]]
    return M


def _frame_trace(I: np.ndarray, J: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Trace of _split_gram's PSD matrix, in O(count + N^2) and with no
    cancellation: candidate (i, j) has image a[:, i] e_j* - e_i b[j, :], of
    squared norm the off-diagonal squares of column i of a and row j of b
    plus |a_ii - b_jj|^2. It bounds ||G||_F over any orthonormal span."""
    da, db = np.diagonal(a), np.diagonal(b)
    return float((np.abs(a - np.diag(da)) ** 2).sum(axis=0)[I].sum()
                 + (np.abs(b - np.diag(db)) ** 2).sum(axis=1)[J].sum()
                 + (np.abs(da[I] - db[J]) ** 2).sum())


def _block_residuals(C: np.ndarray, groups: list, mats) -> np.ndarray:
    """||X_p a - a X_p||_F for each a in mats, in the split eigenbasis, and
    each element X_p of a commutant span C. X_p is block diagonal over the
    eigenvalue groups, whose candidates are their s x s blocks in row-major
    order. With the groups of each size made adjacent, the rows of X a and of
    X^T a^T = (a X)^T over them are one batched product: N sum s^2 per
    element, not 2 N^3. Chunks of elements hold no (r, N, N) stack."""
    sizes = np.array([len(g) for g in groups])
    order = np.argsort(sizes, kind="stable")
    perm = np.concatenate([groups[t] for t in order])
    mats = [a[np.ix_(perm, perm)] for a in mats]
    starts = np.cumsum(sizes ** 2) - sizes ** 2
    N, r, lo, classes = len(perm), C.shape[0], 0, []
    for s in np.unique(sizes):
        ts = order[sizes[order] == s]
        classes.append((slice(lo, lo + len(ts) * s), len(ts), s,
                        (starts[ts][:, None] + np.arange(s * s)).ravel()))
        lo += len(ts) * s
    out, chunk = np.empty((len(mats), r)), max(1, _VERIFY_ENTRIES // (N * N))
    for p in range(0, r, chunk):
        Cp = C[p:p + chunk]
        blocks = [(rows, Cp[:, cols].reshape(-1, n, s, s)) for rows, n, s, cols in classes]
        XA, AXT = np.empty((2, len(Cp), N, N), dtype=complex)
        for k, a in enumerate(mats):
            for rows, B in blocks:
                shape = B.shape[1:3] + (N,)
                np.matmul(B, a[rows].reshape(shape), out=XA[:, rows].reshape(-1, *shape))
                np.matmul(B.swapaxes(2, 3), a.T[rows].reshape(shape),
                          out=AXT[:, rows].reshape(-1, *shape))
            XA -= AXT.swapaxes(1, 2)
            out[k, p:p + chunk] = frobs(XA)
    return out


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


def _null_dense(G: np.ndarray, floor: float) -> np.ndarray:
    """Rows: the eigenvectors of G with eigenvalue at or below the cut
    max(floor, 1e-13*lam_max), from a full np.linalg.eigh."""
    w, V = np.linalg.eigh(G)
    cut = max(floor, 1e-13 * float(w[-1]))
    return V[:, w <= cut].T


def _null_tridiagonal(G: np.ndarray, floor: float) -> np.ndarray:
    """_null_dense's null space without the eigenvectors it drops.

    One Householder reduction G = Q T Q* (zhetrd, in place), every
    eigenvalue of the real tridiagonal T (dsterf) to set the cut as
    _null_dense does, eigenvectors of T for the eigenvalues at or below it
    only (bisection, then inverse iteration), and Q applied to those
    (zunmqr on the reflectors below the subdiagonal): 0.14 s against 0.36 s
    in _null_dense for a 625-element frame (one core of a 2-vCPU VM).
    """
    from scipy.linalg import lapack

    n = G.shape[0]
    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    # G.T is conj(G) in Fortran order, so the reduction runs in G's own
    # storage; the eigenvectors of conj(G) are the conjugates of G's
    qt, d, e, tau, info = lapack.zhetrd(G.T, lower=1, lwork=lwork, overwrite_a=1)
    w, info_w = lapack.dsterf(d, e)
    cut = max(floor, 1e-13 * float(w[-1]))
    r = int(np.count_nonzero(w <= cut))
    if r == 0:
        return np.zeros((0, n), dtype=complex)
    m, wr, block, split, info_b = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, r, 0.0, "B")
    z, info_z = lapack.dstein(d, e, wr[:m], block, split)
    if info or info_w or info_b or info_z or m != r:
        raise np.linalg.LinAlgError("tridiagonal null-space solve did not converge")
    # inverse iteration leaves a cluster of hundreds of vectors orthonormal
    # to about 1e-12 only; a QR restores it to rounding
    Z = np.linalg.qr(z[:, :r])[0].astype(complex)
    reflectors = qt[1:, :n - 1]
    lwork = int(lapack.zunmqr("L", "N", reflectors, tau, Z[1:], -1)[1][0].real)
    Z[1:] = lapack.zunmqr("L", "N", reflectors, tau, Z[1:], lwork)[0]
    return dagger(Z)


def _floor(scale: float) -> float:
    """The smallest cut _restrict can make for a constraint of this scale."""
    return max((SOLVE_TOL * scale) ** 2, 1e-13)


def _restrict(C, M: np.ndarray, scale: float) -> np.ndarray | None:
    """Cut a span over a frame down to the null space of one constraint,
    given the frame's Gram matrix M of that constraint's images.

    The span is held by its coefficients C (r, count) over the frame, or C
    is None for the whole frame; its own Gram matrix G is conj(C) M C^T.
    The cut keeps eigenvalues at or below max((SOLVE_TOL*scale)^2,
    1e-13*max(1, lam_max)): the last term is the Gram assembly noise floor,
    which the squared tolerance can undercut. Returns the coefficients
    null^T C of the span that survives, or C itself when ||G||_F is at or
    below the smallest cut: it bounds every eigenvalue, so none is cut.
    Frames of _TRIDIAGONAL_MIN or more elements take _null_tridiagonal.
    """
    G = M if C is None else np.conj(C) @ M @ C.T
    # symmetrized in place, allocating no second count x count array: G is
    # M, which the caller built for this call, or a fresh product
    G += dagger(G)
    G /= 2
    floor = _floor(scale)
    if np.linalg.norm(G) <= floor:
        return C
    solve = _null_tridiagonal if G.shape[0] >= _TRIDIAGONAL_MIN else _null_dense
    null = solve(G, floor)
    return null if C is None else null @ C


def _solve(I: np.ndarray, J: np.ndarray, pairs) -> np.ndarray:
    """Coefficients (r, count) of the span of the split candidates (I, J),
    restricted by each (a, b, scale) in turn, a and b in the two eigenbases
    and scale, at least 1, the spectral norm the cut is relative to; stops
    once empty. A pair whose _frame_trace is at or below the floor would cut
    nothing from any span, so it builds no Gram."""
    C, same = None, (np.nonzero(J[:, None] == J), np.nonzero(I[:, None] == I))
    for a, b, scale in pairs:
        if C is not None and C.shape[0] == 0:
            break
        if _frame_trace(I, J, a, b) <= _floor(scale):
            continue
        C = _restrict(C, _split_gram(I, J, same, a, b), scale)
    return np.eye(len(I), dtype=complex) if C is None else C


def _self_pairs(scaled):
    """Yield (a, a, scale) for each (a, scale) and, when a is not Hermitian,
    (a*, a*, scale): the two have one spectral norm. Lazy, so a solve that
    empties early forms no further adjoints."""
    for a, scale in scaled:
        yield a, a, scale
        if frob(a - dagger(a)) > 1e-12 * max(1.0, frob(a)):
            a = dagger(a)
            yield a, a, scale


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


def _orbit_nodes(mono) -> tuple:
    """Nodes u = (sigma_a, j), v = (a, pi_j) of [g, X]_aj = alpha_a X_u - phi_j X_v."""
    sigma, alpha, pi, phi = mono
    ar = np.arange(len(sigma))
    return sigma[:, None] * len(ar) + ar, ar[:, None] * len(ar) + pi, alpha, phi


def _orbit_equations(mono) -> tuple:
    """[g, X] = 0 as killed nodes and links X_v = ratio X_u: a lone nonzero
    coefficient, or a self-loop with |alpha - phi| > SOLVE_TOL*max(1, |g|), kills."""
    u, v, alpha, phi = _orbit_nodes(mono)
    ra, cp = (alpha != 0)[:, None], (phi != 0)[None, :]
    a, j = np.nonzero(ra & cp & (u == v))
    loops = u[a, j][np.abs(alpha[a] - phi[j]) > SOLVE_TOL * max(1.0, np.abs(alpha).max())]
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


def _orbit_commutant(monos: list, N: int) -> tuple:
    """One normalized element per surviving component of the N^2 nodes, in
    the order of their least nodes, as labels (r if dead) and values."""
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
        # ||[g, X_p]||_F by gathers: equation (a, j) adds to the elements at u, v
        u, v, alpha, phi = _orbit_nodes(mono)
        cu, cv = (alpha[:, None] * vals[u]).ravel(), (phi * vals[v]).ravel()
        lu, lv = labels[u].ravel(), labels[v].ravel()
        sq = (np.bincount(lu, np.abs(np.where(lu == lv, cu - cv, cu)) ** 2, r)
              + np.bincount(lv, np.abs(np.where(lu == lv, 0, cv)) ** 2, r))
        worst = max(worst, float(np.sqrt(sq[:r].max(initial=0.0))))
    return r, worst, max(1.0, *(np.abs(m[1]).max() for m in monos)), lambda: (
        (np.arange(r)[:, None] == labels) * vals).reshape(r, N, N)


def commutant(s) -> SubAlgebra:
    """Commutant {Q: Qb = bQ for all b in s} as a SubAlgebra.

    s may be a SubAlgebra (a step image's generators are an equivalent and
    cheaper constraint set than its basis) or a plain list of matrices.
    Monomial constraints take the orbit route, any others the spectral one.
    """
    cons = s.constraints if isinstance(s, SubAlgebra) else list(s)
    if not cons:
        raise ValueError("empty constraint set")
    cons = [np.asarray(g, dtype=complex) for g in cons]
    N = cons[0].shape[0]
    # a multiple of the identity constrains nothing; left in, it would make
    # the split element scalar and put every candidate in one frame
    eye = np.eye(N)
    cons = [g for g in cons
            if frob(g - np.trace(g) / N * eye) >= 1e-14 * max(1.0, frob(g))]
    if not cons:
        return full_matrix_algebra(N)
    monos = [_monomial(a) for a, _, _ in _self_pairs((g, 1.0) for g in cons)]
    if all(m is not None for m in monos):
        r, worst, scale, form = _orbit_commutant(monos, N)
    else:
        lam, z = np.linalg.eigh(_split_element(cons))
        I, J = _split_candidates(lam, lam)
        moved = [(dagger(z) @ g @ z, max(1.0, opnorm(g))) for g in cons]
        # restrict by the constraints least aligned with the split first, by
        # ||z*[g, h]z||_F: they shrink the candidate set fastest
        moved.sort(key=lambda m: -frob(m[0] * (lam - lam[:, None])))
        C = _solve(I, J, _self_pairs(moved))
        worst = _block_residuals(C, _eigen_groups(lam), [a for a, _ in moved]).max(initial=0.0)
        r, scale, form = len(C), max(sc for _, sc in moved), partial(_split_basis, C, z, z, I, J)
    if worst > 1e-6 * scale:
        raise RuntimeError(f"commutant verification failed: residual {worst:.2e}")
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
    for a, b, scale in _self_pairs((g, max(1.0, opnorm(g))) for g in s.constraints):
        if span.shape[0] == 0:
            break
        null = _restrict(None, _dense_gram(span, a, b), scale)
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
    """Solution space of the system {X: a X = X b for all (a, b) in pairs}.

    The first pair must be normal on both sides; it seeds the spectral split.
    Returns an orthonormal (r, N, N) array.
    """
    pairs = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)) for a, b in pairs]
    la, za = eig_normal(pairs[0][0])
    lb, zb = eig_normal(pairs[0][1])
    I, J = _split_candidates(la, lb)
    moved = ((dagger(za) @ a @ za, dagger(zb) @ b @ zb, max(1.0, opnorm(a), opnorm(b)))
             for a, b in pairs)
    return _split_basis(_solve(I, J, moved), za, zb, I, J)


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
