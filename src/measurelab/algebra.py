"""*-subalgebras of dense complex matrix algebras: commutants, centers,
minimal central projections, intertwiner spaces and a brute-force
dimension oracle.

A SubAlgebra is an orthonormal frame of disjoint supports held by its live
entries: the flat index i*N + j of each, ascending, with the label of the
element it belongs to and its value there. It is built from those entries
alone, and its dense basis is formed on first read. A center, which
seldom has such a frame, is orthonormal coefficient rows over one.

Commutants and intertwiner spaces {X: aX = Xb} of monomial sets come from
a numpy union-find over the N^2 entries. A constraint is an index map
(cols, vals), row a holding vals[a] at column cols[a], as the ladder builds
each one, or a dense monomial matrix (at most one nonzero per row and
column, exact zeros, phases as link ratios); _index_maps reads either as
row and column maps (sigma, alpha, pi, phi), and an adjoint swaps them.
A commutant adds the adjoint only of a map that is not normal: whatever
commutes with a normal map commutes with its adjoint (Fuglede).
(aX - Xb)_ij = alpha_i X_(sigma_i, j) - phi_j X_(i, pi_j) links two entries
of X by a phase or kills one. Which it does is read off length-N masks of
the maps (a lone nonzero coefficient, a self-loop where sigma_i = i and
pi_j = j, or a link), so a diagonal map forms no link arrays. Each
component with no killed entry and no broken link is one element, as
orbital matrices span a permutation group's centralizer ring, emitted as
its live entries. Only the result is verified, not the equations: a live
entry v at (r, c) of X_p puts phi_r v at (pi_r, c) in aX_p and v alpha_c at
(r, sigma_c) in X_p b (a's maps on rows, b's on columns), so the entry of
X_p b that meets it is the live one at (pi_r, pi_c), found by one
searchsorted; each element's ||aX - Xb||_F sums by bincount, in O(live) a
map. Any other set is refused; commutant_dimension_bruteforce gives the
dimension of its commutant.

A center solves sum_p c_p (C^u_pq - C^u_qp) = 0 over the structure constants
X_p X_q = sum_u C^u_pq X_u (an orbit commutant's are the intersection numbers
of a coherent configuration), a proper solution checked on one seeded
commutator; its minimal projections are eigenprojections of a generic
self-adjoint central element acting on it by multiplication. Both solve per
connected component (_blocks): each component of the multiplication spans
an ideal, and the center is their direct sum.

The oracle holds the stacked constraint operator b (x) I - I (x) b^T as
(row, col, value) index triplets read off each constraint's nonzeros; the
two terms meet only at the diagonal entry ((i, j), (i, j)), written once
as b_ii - b_jj, so no entry is stored twice and none is an exact zero. It
prunes coordinates pinned by one-entry rows, splits the rest by the exact
zero pattern and ranks each block by the singular values of one complex
SVD: it reads no eigenvalue, shares nothing with the engine, and is the
only code here that imports scipy, when called, for connected_components
alone. Matrices are numpy complex128 arrays; the trace inner product
Tr(a*b) makes the flattened arrays ordinary vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import dagger, frob

SOLVE_TOL = 1e-9     # null-space decisions in commutant solves
GROUP_TOL = 1e-7     # eigenvalue separation for central projections


def _sums(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """np.bincount with complex weights."""
    return np.bincount(index, weights.real, length) + 1j * np.bincount(index, weights.imag, length)


def _scatter(N: int, idx, lab, val, coef=None) -> np.ndarray:
    """The (rows, N, N) matrices with the rows of coef as coefficients over
    the frame of live entries (idx, lab, val), or the frame itself for no
    coef."""
    rows = np.arange(lab.max(initial=-1) + 1)[:, None] == lab if coef is None else coef[:, lab]
    out = np.zeros((len(rows), N * N), dtype=complex)
    out[:, idx] = rows * val
    return out.reshape(-1, N, N)


@dataclass(eq=False)
class SubAlgebra:
    """*-closed unital span inside M_N, with an orthonormal basis: the frame
    whose element lab[e] holds val[e] at the flat index idx[e] = i*N + j,
    over the live entries e in ascending idx, or a center's orthonormal
    coefficient rows coef over it. The dense basis is formed on first read,
    outside the fields. step is the ladder step whose image the span is, if
    any: uhf.surrogate_commutant solves over its two generators in place of
    the basis."""

    ambient_dim: int
    idx: np.ndarray = field(repr=False)
    lab: np.ndarray = field(repr=False)
    val: np.ndarray = field(repr=False)
    coef: np.ndarray | None = field(default=None, repr=False)
    step: object | None = None

    def __post_init__(self):
        N, idx, lab = self.ambient_dim, np.asarray(self.idx), np.asarray(self.lab)
        val = np.asarray(self.val, dtype=complex)
        if (idx.ndim != 1 or lab.shape != idx.shape or val.shape != idx.shape
                or idx.dtype.kind not in "iu" or lab.dtype.kind not in "iu"
                or idx.size and (idx[0] < 0 or idx[-1] >= N * N or (np.diff(idx) <= 0).any()
                                 or lab.min() < 0)):
            raise ValueError("entries must be ascending flat indices in range(N*N), "
                             "labels of at least 0 and values, one each")
        r = int(lab.max(initial=-1)) + 1
        norms = np.bincount(lab, np.abs(val) ** 2, r)   # 0 if unused, not finite past inf or nan
        if not (val.all() and np.abs(norms - 1).max(initial=0.0) <= 1e-10):
            raise ValueError("labels 0..r-1 must each mark nonzero values of unit norm")
        coef = self.coef
        if coef is not None:
            coef = np.asarray(coef, dtype=complex)
            if not (coef.ndim == 2 and coef.shape[1] == r and np.abs(
                    coef.conj() @ coef.T - np.eye(len(coef))).max(initial=0.0) <= 1e-10):
                raise ValueError(f"coef must be orthonormal rows of {r} columns")
        self.idx, self.lab, self.val, self.coef, self._r = idx, lab, val, coef, r

    @cached_property
    def basis(self) -> np.ndarray:
        return _scatter(self.ambient_dim, self.idx, self.lab, self.val, self.coef)

    @property
    def dim(self) -> int:
        return self._r if self.coef is None else len(self.coef)


# ---------------------------------------------------------------------------
# orbit route: commutants and intertwiner spaces of monomial sets
# ---------------------------------------------------------------------------

def _index_maps(cons, what: str) -> tuple:
    """(maps, N): each constraint as (sigma, alpha, pi, phi), row a holding
    alpha_a at column sigma_a and column j holding phi_j at row pi_j (0 if
    empty). A tuple is an index map (cols, vals), vals[a] = 0 marking an
    empty row; anything else is a matrix, read as monomial as it is checked.
    Refused unless each is finite, of one size N, one to one on its nonzero
    rows and, unless diagonal, of one nonzero modulus (phase link ratios)."""
    maps, N = [], None
    for g in cons:
        if isinstance(g, tuple):
            sigma, alpha, extra = np.asarray(g[0]), np.asarray(g[1], dtype=complex), 0
            if (sigma.ndim != 1 or alpha.shape != sigma.shape or sigma.dtype.kind not in "iu"
                    or not sigma.size or sigma.min() < 0 or sigma.max() >= len(sigma)):
                raise ValueError("an index map is N integer columns in range(N) and N values")
        else:
            g = np.asarray(g, dtype=complex)
            if g.ndim != 2 or g.shape[0] != g.shape[1]:
                raise ValueError("constraints must be square matrices of one size")
            sigma = (g != 0).argmax(axis=1)
            alpha = g[np.arange(len(g)), sigma]
            extra = np.count_nonzero(g) - np.count_nonzero(alpha)   # entries past one a row
        N, sigma = len(sigma) if N is None else N, sigma.astype(np.intp, copy=False)
        if len(sigma) != N:
            raise ValueError("constraints must be square matrices of one size")
        if not np.isfinite(alpha).all():
            raise ValueError("constraints must be finite")
        ar, live = np.arange(N), alpha != 0
        mod = np.abs(alpha[live])
        if (extra or np.bincount(sigma[live], minlength=N).max(initial=0) > 1
                or (sigma[live] != ar[live]).any() and np.ptp(mod) > SOLVE_TOL * mod.max()):
            raise ValueError(
                f"{what} takes monomial matrices only (at most one nonzero per row and column); "
                "commutant_dimension_bruteforce gives the commutant dimension of any finite set")
        pi, phi = np.zeros(N, dtype=np.intp), np.zeros(N, dtype=complex)
        pi[sigma[live]], phi[sigma[live]] = ar[live], alpha[live]
        maps.append((sigma, alpha, pi, phi))
    if N is None:
        raise ValueError("empty constraint set")
    return maps, N


def _orbit_equations(mono) -> tuple:
    """(killed, u, v, ratio): the equations (aX - Xb)_aj = alpha_a X_u -
    phi_j X_v, u = (sigma_a, j), v = (a, pi_j), over blocks of rows a x
    columns j that length-N masks pick out. A lone nonzero coefficient kills
    its node, as does a self-loop (u = v: sigma_a = a, pi_j = j) with
    |alpha_a - phi_j| > SOLVE_TOL*max(1, |a|, |b|); the pairs left are links
    X_v = ratio X_u, none for a diagonal map. A pair of zeros is no equation."""
    sigma, alpha, pi, phi = mono
    N, ar = len(sigma), np.arange(len(sigma))
    ra, cp = alpha != 0, phi != 0
    fr, fc = ra & (sigma == ar), cp & (pi == ar)
    # rows: dead, live, fixed, moving; columns: dead, live, fixed, moving
    dr, lr, xr, mr = (m.nonzero()[0][:, None] for m in (~ra, ra, fr, ra & ~fr))
    dc, lc, xc, mc = (m.nonzero()[0] for m in (~cp, cp, fc, cp & ~fc))
    tol = SOLVE_TOL * max(1.0, np.abs(alpha).max(), np.abs(phi).max())
    killed = np.concatenate([(sigma[lr] * N + dc).ravel(), (dr * N + pi[lc]).ravel(),
                             (xr * N + xc)[np.abs(alpha[xr] - phi[xc]) > tol]])
    u, v, ratio = (np.concatenate([x.ravel() for x in xs]) for xs in zip(
        *[(sigma[a] * N + j, a * N + pi[j], alpha[a] / phi[j]) for a, j in ((mr, lc), (xr, mc))]))
    return killed, u, v, ratio


def _orbit_union(p: np.ndarray, w: np.ndarray, u, v, ratio) -> np.ndarray:
    """Merge the links X_v = ratio X_u into the forest p with potentials
    w = X_x / X_p[x], in place, p[x] being x's root on entry and on return,
    hooking each root under the least root it links to until no link joins
    two trees. A tree never splits, so each round gathers only the links
    whose ends were in two trees the round before. Returns u of each broken
    link."""
    cu, cv, cr = u, v, ratio
    while True:
        ru, rv = p[cu], p[cv]
        cross = ru != rv
        if not cross.any():
            return u[np.abs(w[v] - ratio * w[u]) > SOLVE_TOL]
        if not cross.all():
            cu, cv, cr, ru, rv = cu[cross], cv[cross], cr[cross], ru[cross], rv[cross]
        f = cr * w[cu] / w[cv]   # X_rv = f X_ru
        lo, hi, f = np.minimum(ru, rv), np.maximum(ru, rv), np.where(rv > ru, f, 1 / f)
        np.minimum.at(p, hi, lo)
        keep = p[hi] == lo
        w[hi[keep]] = f[keep]
        # a root may be hooked under a root hooked in turn: jump to the roots
        while not np.array_equal(pp := p[p], p):
            w *= w[p]
            p[:] = pp


def _places(labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each node's place within its component, in the nodes' order."""
    order = np.argsort(labels, kind="stable")
    places = np.empty_like(order)
    places[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[labels[order]]
    return places


def _coalesce(rows, cols, vals, n: int) -> tuple:
    """The triplets of a matrix of n columns, the values at one (row, col)
    summed, in ascending (row, col), exact zeros dropped."""
    key, at = np.unique(rows * n + cols, return_inverse=True)
    vals = _sums(at, vals, key.size)
    return *np.divmod(key[vals != 0], n), vals[vals != 0]


def _blocks(rows, cols, vals):
    """The connected components of the pattern of triplets (rows, cols,
    vals), by _orbit_union at unit ratios over the distinct rows and columns:
    yields one (C, B) per block shape (h, w), C (m, w) the columns of its m
    components and B (m, h, w) their blocks, rows and columns ascending,
    duplicates summed in entry order, stacked for one LAPACK call."""
    if not rows.size:
        return
    (rn, ri), (cn, ci) = (np.unique(x, return_inverse=True) for x in (rows, cols))
    p = np.arange(rn.size + cn.size)
    _orbit_union(p, np.ones(p.size, dtype=complex), ri, rn.size + ci, np.ones(ri.size))
    comp = (np.cumsum(p == np.arange(p.size)) - 1)[p]   # numbered by least node
    cr, cc = comp[:rn.size], comp[rn.size:]
    h, w = np.bincount(cr), np.bincount(cc)
    pr, pc, wide = _places(cr, h), _places(cc, w), int(w.max()) + 1
    shape, ec, byc = h * wide + w, cr[ri], np.argsort(cc, kind="stable")
    for sh in np.unique(shape):
        pick = shape == sh
        slot, (hh, ww), m = np.cumsum(pick) - 1, divmod(int(sh), wide), int(pick.sum())
        C, e = cn[byc[pick[cc[byc]]]].reshape(m, ww), pick[ec]
        at = (slot[ec[e]] * hh + pr[ri[e]]) * ww + pc[ci[e]]
        yield C, _sums(at, vals[e], m * hh * ww).reshape(m, hh, ww)


def _orbit_commutant(pairs: list, N: int, what: str) -> tuple:
    """The span {X: aX = Xb} over the equations of pairs (a, b) of maps,
    each (sigma, alpha, pi, phi), a giving the row links and b the column
    links: one normalized element per surviving component of the N^2
    nodes, in the order of their least nodes (each tree's root), as the
    live entries (idx, lab, val) of a SubAlgebra, verified by
    _orbit_residual."""
    p, w, dead = np.arange(N * N), np.ones(N * N, dtype=complex), np.zeros(N * N, dtype=bool)
    for a, b in pairs:
        killed, u, v, ratio = _orbit_equations(a[:2] + b[2:])
        dead[killed] = True
        if u.size:
            dead[_orbit_union(p, w, u, v, ratio)] = True
    dead_root = np.zeros(N * N, dtype=bool)
    dead_root[p[dead]] = True
    idx = np.flatnonzero(~dead_root[p])
    roots = (p == np.arange(N * N)) & ~dead_root
    lab, wa = (np.cumsum(roots) - 1)[p[idx]], w[idx]
    val = wa / np.sqrt(np.bincount(lab, np.abs(wa) ** 2))[lab]
    worst = _orbit_residual(pairs, N, idx, lab, val)
    scale = max([1.0] + [np.abs(x).max() for a, b in pairs for x in (a[1], b[3])])
    if worst > 1e-6 * scale:
        raise RuntimeError(f"{what} verification failed: residual {worst:.2e}")
    return idx, lab, val


def _orbit_residual(pairs: list, N: int, idx, lab, val) -> float:
    """max over pairs (a, b) and elements of ||a X_p - X_p b||_F, read off
    the live entries and the maps alone. Entry v at (r, c) of X_p puts
    phi^a_r v at (pi^a_r, c) in aX_p, and v alpha^b_c at (r, sigma^b_c) in
    X_p b. So the entry of X_p b that meets it is the one the live entry at
    (pi^a_r, pi^b_c) puts there, with alpha^b_(pi^b_c) = phi^b_c."""
    r = int(lab.max(initial=-1)) + 1
    rows, cols = np.divmod(idx, N)
    worst = 0.0
    for (_, _, pa, fa), (_, ab, pb, fb) in pairs:
        xa = fa[rows] * val                                   # aX_p at (pa_r, c)
        key = pa[rows] * N + pb[cols]
        at = np.minimum(np.searchsorted(idx, key), len(idx) - 1)
        hit = (idx[at] == key) & (lab[at] == lab) & (fa[rows] != 0) & (fb[cols] != 0)
        np.subtract(xa, val[at] * fb[cols], out=xa, where=hit)
        xb = val * ab[cols]                                   # X_p b at (r, sigma_c)
        xb[at[hit]] = 0                                       # met by an entry of aX_p
        sq = np.bincount(lab, np.abs(xa) ** 2, r) + np.bincount(lab, np.abs(xb) ** 2, r)
        worst = max(worst, float(np.sqrt(sq.max(initial=0.0))))
    return worst


def commutant(cons) -> SubAlgebra:
    """Commutant {Q: Qb = bQ for all b in cons} as a SubAlgebra, over the
    constraints and the adjoints of those that are not normal. Each is an
    index map or a monomial matrix (see _index_maps). A monomial g is normal
    when |alpha_a| = |phi_a| for every a, as gg* and g*g are diagonal; then
    whatever commutes with g commutes with g* (Fuglede), so the adjoint's
    equations would remove no solution (for a phased permutation they are
    g's own links, reversed)."""
    maps, N = _index_maps(list(cons), "commutant")
    solved = []
    for sigma, alpha, pi, phi in maps:
        if (alpha == alpha[0]).all() and (alpha[0] == 0 or (sigma == np.arange(N)).all()):
            continue   # an exact scalar constrains nothing
        solved.append((sigma, alpha, pi, phi))
        # gg* and g*g are diag |alpha_a|^2 and diag |phi_a|^2: compare the moduli
        if np.linalg.norm(np.abs(alpha) - np.abs(phi)) > 1e-12 * max(1.0, np.linalg.norm(alpha)):
            solved.append((pi, phi.conj(), sigma, alpha.conj()))
    return SubAlgebra(N, *_orbit_commutant([(m, m) for m in solved], N, "commutant"))


def intertwiner_space(pairs) -> np.ndarray:
    """Solution space of the system {X: a X = X b for all (a, b) in pairs},
    as an orthonormal (r, N, N) array. Every a and b is an index map or a
    monomial matrix: a gives each equation's row link, b its column link."""
    maps, N = _index_maps([g for a, b in pairs for g in (a, b)], "intertwiner_space")
    return _scatter(N, *_orbit_commutant(list(zip(maps[::2], maps[1::2])), N, "intertwiner"))


def _runs(starts: np.ndarray, stops: np.ndarray) -> tuple:
    """(run, position) of each position starts[e]..stops[e]-1 of each run e,
    run by run, in order."""
    size = stops - starts
    run = np.repeat(np.arange(len(size)), size)
    return run, starts[run] + np.arange(run.size) - (np.cumsum(size) - size)[run]


def _structure(s: SubAlgebra) -> tuple:
    """(p, q, u, c, r): X_p X_q = sum of c X_u over the entries, for the r
    frame elements of s. C^u_pq is read at the first entry (i, j) of X_u:
    each live (i, l) of element p meeting a live (l, j) of element q adds
    their values' product over X_u's at (i, j). Row i is a run of the
    ascending entries, and column j one of the entries sorted stably by
    column. One seeded O(live) product check, X_f(X_g v) against X_fg v,
    verifies them away from the entries they were read at. s's coefficient
    rows, if any, are not read: see _coef_structure."""
    idx, lab, val, N, r = s.idx, s.lab, s.val, s.ambient_dim, s._r
    first = np.unique(lab, return_index=True)[1]
    i, j = np.divmod(idx[first], N)
    rows, cols = np.divmod(idx, N)
    ur, at_r = _runs(np.searchsorted(idx, i * N), np.searchsorted(idx, (i + 1) * N))
    by_col = np.argsort(cols, kind="stable")
    uc, at_c = _runs(np.searchsorted(cols[by_col], j), np.searchsorted(cols[by_col], j, "right"))
    at_c = by_col[at_c]
    # the l of each X_u met on both sides: keys u*N + l, ascending on each
    key_r, key_c = ur * N + cols[at_r], uc * N + rows[at_c]
    m = np.minimum(np.searchsorted(key_r, key_c), key_r.size - 1)
    hit = key_r[m] == key_c
    a, b, u = at_r[m[hit]], at_c[hit], uc[hit]
    C = lab[a], lab[b], u, val[a] * val[b] / val[first][u], r
    rng = np.random.default_rng(0)
    f, g, v = ([1, 1j] @ rng.standard_normal((2, n)) for n in (r, r, N))
    f, g, v = f / np.linalg.norm(f), g / np.linalg.norm(g), v / np.linalg.norm(v)
    act = lambda h, x: _sums(rows, h[lab] * val * x[cols], N)   # X_h x
    err = np.linalg.norm(act(f, act(g, v)) - act(_product(C, f, g)[0], v))
    if not err <= SOLVE_TOL:
        raise RuntimeError(f"center verification failed: residual {err:.2e}")
    return C


def _coef_structure(C: tuple, Z: np.ndarray) -> tuple:
    """The constants <Z_c, Z_a Z_b> of the basis of coefficient rows Z over
    a frame of structure constants C, in _structure's form."""
    d = len(Z)
    K = Z.conj() @ _product(C, np.repeat(Z, d, axis=0), np.tile(Z, (d, 1))).T
    return *np.indices((d, d, d))[[1, 2, 0]].reshape(3, -1), K.ravel(), d


def _product(C: tuple, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficient rows of X_f X_g under structure constants C, for rows
    (or equal stacks of rows) f and g."""
    p, q, u, c, r = C
    w = np.atleast_2d(f)[:, p] * np.atleast_2d(g)[:, q] * c
    return _sums((np.arange(len(w))[:, None] * r + u).ravel(), w.ravel(), len(w) * r).reshape(-1, r)


def _null_rows(rows, cols, vals, r: int) -> np.ndarray | None:
    """Rows: the null space of the r-column system A held as coalesced
    triplets, from each component B's Gram B*B, one stacked eigh per block
    shape, cut at 1e-13*max(1, lam_max) over all blocks, the assembly noise
    floor; a column A never reads is null. None, with no eigensolve, when
    ||A*A||_F <= 1e-13 bounds every eigenvalue."""
    grams = [(C, dagger(B) @ B) for C, B in _blocks(rows, cols, vals)]
    if np.sqrt(sum(np.linalg.norm(G) ** 2 for _, G in grams)) <= 1e-13:
        return None
    free = np.setdiff1d(np.arange(r), cols)[:, None]
    parts = [(C, *np.linalg.eigh(G)) for C, G in grams + [(free, np.zeros((free.size, 1, 1)))]]
    cut = 1e-13 * max(float(lam.max(initial=1.0)) for _, lam, _ in parts)
    keep = [np.nonzero(lam <= cut) for _, lam, _ in parts]
    null = np.zeros((sum(b.size for b, _ in keep), r), dtype=complex)
    for (C, _, V), (b, j), at in zip(parts, keep, np.cumsum([0] + [b.size for b, _ in keep])):
        null[at + np.arange(b.size)[:, None], C[b]] = V[b, :, j]
    return null


def _center(s: SubAlgebra) -> tuple:
    """(center of s, its structure constants), s's frame gathered and
    verified once for both, a proper center on one seeded commutator."""
    if s.dim == 0:
        raise ValueError("empty algebra")
    C = _structure(s)
    p, q, u, k, r = K = C if s.coef is None else _coef_structure(C, s.coef)
    null = _null_rows(*_coalesce(np.concatenate([q * r + u, p * r + u]), np.concatenate([p, q]),
                                 np.concatenate([k, -k]), r), r)   # A[(q, u), p] = C^u_pq - C^u_qp
    if null is None or len(null) == s.dim:
        return s, K
    rng = np.random.default_rng(0)   # a random unit z of the span must commute with g of s
    z, g = ([1, 1j] @ rng.standard_normal((2, n)) for n in (len(null), s.dim))
    z, g = z @ null / np.linalg.norm(z), g / np.linalg.norm(g)
    err = np.linalg.norm(_product(K, z, g) - _product(K, g, z))
    if not err <= SOLVE_TOL:
        raise RuntimeError(f"center verification failed: residual {err:.2e}")
    c = SubAlgebra(s.ambient_dim, s.idx, s.lab, s.val, null if s.coef is None else null @ s.coef)
    return c, _coef_structure(C, c.coef)


def center(s: SubAlgebra) -> SubAlgebra:
    """s intersected with its commutant: the elements of s that commute with
    each of its basis elements, read off the structure constants, as
    coefficient rows over s's frame. An abelian s comes back as s itself."""
    return _center(s)[0]


def _central_projections(s: SubAlgebra) -> tuple:
    """(center, frame coefficient rows of its minimal projections in order,
    their traces, frob of their sum minus 1), forming no N x N matrix. The
    order keys are read off the frame's live diagonal entries and sorted by
    one stable np.lexsort."""
    c, K = _center(s)
    (p, q, u, k, d), N = K, c.ambient_dim
    on = np.flatnonzero(c.idx % (N + 1) == 0)                # live (i, i), i ascending
    dlab, dval = c.lab[on], c.val[on]
    tr = _sums(dlab, dval, c._r)                             # Tr X_p
    ident = (tr if c.coef is None else c.coef @ tr).conj()   # <Z_a, 1>
    rng, node = np.random.default_rng(20260822), np.arange(d)
    for _ in range(6):
        wts = rng.standard_normal(d)
        # g = sum wts_a Z_a acts on the center as L[u, q] = (g Z_q)_u and g* as L*, so h
        # acts as a self-adjoint central element, per component (a diagonal link per node
        # squares each block); E: its scaled eigenprojections, vector j of block b at row S[b, j]
        parts = [(S, *np.linalg.eigh((L + dagger(L)) / 2 + 0.5 * ((L - dagger(L)) / 2j)))
                 for S, L in _blocks(np.concatenate([u, node]), np.concatenate([q, node]),
                                     np.concatenate([wts[p] * k, np.zeros(d)]))]
        if any((np.diff(lam) <= GROUP_TOL * np.maximum(1.0, np.abs(lam[:, 1:]))).any()
               for _, lam, _ in parts):
            continue
        E = np.zeros((d, d), dtype=complex)
        for S, _, z in parts:
            E[S[:, None, :], S[:, :, None]] = z * (dagger(z) @ ident[S][..., None]).swapaxes(1, 2)
        if (np.linalg.norm(_product(K, E, E) - E, axis=1)
                > 100 * SOLVE_TOL * np.maximum(1.0, np.linalg.norm(E, axis=1))).any():
            continue
        E = E if c.coef is None else E @ c.coef
        # frob(sum - 1) over the live entries: an unlive diagonal adds 1
        x = E.sum(axis=0)[c.lab] * c.val
        x[on] -= 1
        resolve = float(np.sqrt(x.real @ x.real + x.imag @ x.imag + (N - on.size)))
        if resolve > 1e-10:
            continue
        traces = (E @ tr).real
        # descending rank, then descending rounded diagonal, first entry first
        diagonal = -np.round((E[:, dlab] * dval).real, 9)
        order = np.lexsort(np.vstack([diagonal.T[::-1], -np.round(traces)]))
        return c, E[order], traces[order], resolve
    raise RuntimeError("could not separate central projections")


def minimal_central_projections(s: SubAlgebra) -> list:
    """Minimal projections of the center: eigenprojections of a generic
    self-adjoint central element acting on it, per connected component,
    scaled by the identity's coefficients (its weights drawn from a seeded
    generator, and drawn again while eigenvalues in one component collide),
    by descending rank, then descending lexicographic rounded diagonal."""
    c, E, _, _ = _central_projections(s)
    return list(_scatter(c.ambient_dim, c.idx, c.lab, c.val, E))


# ---------------------------------------------------------------------------
# brute-force oracle (kept independent of the staged route)
# ---------------------------------------------------------------------------

def _null_dimension(rows, cols, vals, shape) -> int:
    """dim ker A for a complex operator A of the given shape held as
    (row, col, value) triplets, no (row, col) pair twice and no exact zero,
    read off its zero pattern.

    1. Singleton pruning: a row with exactly one entry above the cut pins
       that coordinate to zero; the row is used up and the coordinate
       dropped, until no row with one such entry is left.
    2. The remaining columns split into the connected components of A's
       exact nonzero pattern, over which A is block diagonal.
    3. Each block is scattered densely, rows and columns in their original
       order, and ranked on its own by one complex SVD, whatever its width:
       its null dimension is its width less its singular values above the
       cut. A block with no rows is all null space.

    The cut is set once from the whole operator, SOLVE_TOL times its largest
    column norm floored at 1e-12, and serves entries and singular values
    alike, so an operator made of rounding noise keeps its full null space
    instead of being pruned away.
    """
    import scipy.sparse
    from scipy.sparse.csgraph import connected_components

    height, width = shape
    mag = np.abs(vals)
    cut = max(SOLVE_TOL * np.sqrt(np.bincount(cols, mag * mag, width).max(initial=0.0)), 1e-12)

    big = mag > cut
    br, bc = rows[big], cols[big]
    alive = np.ones(width, dtype=bool)
    used = np.zeros(height, dtype=bool)
    while True:
        live = alive[bc]
        br, bc = br[live], bc[live]
        single = np.bincount(br, minlength=height) == 1
        hit = single[br]
        if not hit.any():
            break
        used |= single
        alive[bc[hit]] = False

    # rows left with no entry are components of their own and rank nothing,
    # so only rows that keep an entry become graph nodes
    keep = ~used[rows] & alive[cols]
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    node = np.zeros(height, dtype=np.int64)
    node[rows] = 1
    m = int(node.sum())
    node = np.cumsum(node) - 1
    r, c = node[rows], (np.cumsum(alive) - 1)[cols]
    n = int(alive.sum())
    graph = scipy.sparse.coo_array((np.ones(r.size), (r, m + c)), shape=(m + n, m + n))
    count, labels = connected_components(graph, directed=False)
    row_lab, col_lab = labels[:m], labels[m:]
    heights = np.bincount(row_lab, minlength=count)
    widths = np.bincount(col_lab, minlength=count)
    null = int(widths[heights == 0].sum())

    lab = row_lab[r]
    r, c = _places(row_lab, heights)[r], _places(col_lab, widths)[c]
    order = np.argsort(lab, kind="stable")
    ends = np.cumsum(np.bincount(lab, minlength=count))
    start = 0
    for b in np.flatnonzero(heights):
        at = order[start:ends[b]]
        start = ends[b]
        blk = np.zeros((heights[b], widths[b]), dtype=complex)
        blk[r[at], c[at]] = vals[at]
        null += _block_null(blk, cut)
    return null


def _block_null(blk: np.ndarray, cut: float) -> int:
    """blk's width less the number of its singular values above cut."""
    return blk.shape[1] - int(np.sum(np.linalg.svd(blk, compute_uv=False) > cut))


def _stacked_triplets(cons: list) -> tuple:
    """(rows, cols, vals, shape) of the stacked b (x) I - I (x) b^T, one
    N^2-row block per constraint b, read off each b's nonzeros.

    Off the diagonal of b the two terms never meet: b_ik sits at
    ((i, j), (k, j)) and -b_ik at ((j, k), (j, i)) for every j. Diagonal
    entries of b fall on the operator's diagonal, where the terms overlap
    only at ((i, j), (i, j)); that entry, b_ii - b_jj, is written once and
    only when nonzero.
    """
    b = np.stack(cons)
    count, N, _ = b.shape
    j = np.arange(N)
    c, i, k = np.nonzero(b)
    off = i != k
    c, i, k = c[off], i[off], k[off]
    v = b[c, i, k][:, None]
    base = (c * N * N)[:, None]
    d = np.diagonal(b, axis1=1, axis2=2)
    gaps = (d[:, :, None] - d[:, None, :]).ravel()
    diag = np.flatnonzero(gaps)
    rows = np.concatenate([(base + i[:, None] * N + j).ravel(),
                           (base + j * N + k[:, None]).ravel(),
                           diag])
    cols = np.concatenate([(k[:, None] * N + j).ravel(),
                           (j * N + i[:, None]).ravel(),
                           diag % (N * N)])
    vals = np.concatenate([np.broadcast_to(v, (v.size, N)).ravel(),
                           np.broadcast_to(-v, (v.size, N)).ravel(),
                           gaps[diag]])
    return rows, cols, vals, (count * N * N, N * N)


def commutant_dimension_bruteforce(mats) -> int:
    """Commutant dimension as dim ker of the stacked b (x) I - I (x) b^T.

    One row block per constraint and adjoint, built as index triplets by
    _stacked_triplets; the null dimension comes from _null_dimension
    (prune, split by exact sparsity, rank each block). Its structure is
    read only off the zero pattern of the operator, never off a spectrum,
    so the oracle shares nothing with the staged solver.
    """
    mats = [np.asarray(g, dtype=complex) for g in mats]
    cons = [x for a in mats
            for x in ([a] if frob(a - dagger(a)) <= 1e-12 * max(1.0, frob(a)) else [a, dagger(a)])]
    return _null_dimension(*_stacked_triplets(cons))
