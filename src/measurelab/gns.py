"""GNS construction over matrix algebras and intertwiners.

The representation for a state rho on M_N is built in purified form: with
rho of rank r, the representation space is C^N (x) C^r, the map sends x to
x (x) 1, and the cyclic vector is the flattened square root of rho. This is
unitarily the same as the quotient construction on M_N by the null space of
the form (a, b) -> Tr(rho a* b), with rep_dim = N * r.

gns_intertwiner is the generic engine: it solves for the intertwiner of a
*-homomorphism over all matrix units and checks the relation on the two
generators of the source algebra. Along a natural ladder step the uniform
product state needs no solve: its intertwiner (1/sqrt k) sum_j W_j is the
step's own index map, which scenarios reads directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cyclic_shift, dagger, frob, matrix_unit
from .states import State

RANK_CUT = 1e-10


@dataclass(frozen=True)
class GnsRep:
    """GNS data for a state on M_N: rep(x) = x (x) 1_r on C^(N r)."""

    source_dim: int
    rank: int
    omega: np.ndarray

    @property
    def rep_dim(self) -> int:
        return self.source_dim * self.rank

    def vector(self, x: np.ndarray) -> np.ndarray:
        """rep(x) applied to the cyclic vector, without forming rep(x)."""
        om = self.omega.reshape(self.source_dim, self.rank)
        return (np.asarray(x, dtype=complex) @ om).reshape(-1)


def _canonical_phases(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j]).round(12)))
        c = out[i, j]
        if abs(c) > 1e-14:
            out[:, j] *= np.conj(c) / abs(c)
    return out


def gns(phi: State) -> GnsRep:
    """GNS representation of a state, rank cut at 1e-10 relative."""
    rho = phi.density
    N = phi.dim
    w, v = np.linalg.eigh((rho + dagger(rho)) / 2)
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    top = max(float(w[0]), 0.0)
    keep = w > RANK_CUT * max(top, 1e-300)
    mu = w[keep]
    F = _canonical_phases(v[:, keep])
    r = int(mu.size)
    if r == 0:
        raise ValueError("state density is numerically zero")
    omega = (F * np.sqrt(mu)[None, :]).reshape(-1)
    return GnsRep(source_dim=N, rank=r, omega=omega)


@dataclass(frozen=True)
class GnsIntertwiner:
    """Isometry between GNS spaces carrying rep_a into rep_b along a map."""

    matrix: np.ndarray
    isometry_residual: float
    intertwining_residual: float
    cyclic_residual: float


def gns_intertwiner(gamma, target_state: State,
                    source_state: State | None = None) -> GnsIntertwiner:
    """Isometry V with V rep_a(x) = rep_b(gamma(x)) V and V Omega_a = Omega_b.

    gamma must be a *-homomorphism (a ladder step or an AdjointAction)
    exposing source_dim, target_dim and application to matrices. V is
    solved over all matrix units; the relation is linear and closed under
    products, so it is checked on the cyclic shift and the corner unit,
    which generate M_a. The source state is the pullback of the target
    state, read off the same unit images: rho_a[q, p] = Tr(rho_b gamma(e_pq)).
    Passing source_state explicitly turns on an invariance check against
    that pullback. When gamma is a state-preserving automorphism the result
    is unitary.
    """
    a, b = int(gamma.source_dim), int(gamma.target_dim)
    rho_b = target_state.density
    if rho_b.shape[0] != b:
        raise ValueError("target state dimension does not match the map")
    rep_b = gns(target_state)
    units = [matrix_unit(p, q, a) for p in range(a) for q in range(a)]
    B = np.empty((rep_b.rep_dim, a * a), dtype=complex)
    pulled = np.empty(a * a, dtype=complex)
    for col, x in enumerate(units):
        image = gamma(x)
        B[:, col] = rep_b.vector(image)
        pulled[col] = np.sum(rho_b * image.T)
    rho_a = pulled.reshape(a, a).T
    rho_a = (rho_a + dagger(rho_a)) / 2
    if source_state is not None:
        if frob(source_state.density - rho_a) > 1e-10 * max(1.0, frob(rho_a)):
            raise ValueError("state is not invariant under the map to tolerance")
        rho_a = source_state.density
    rep_a = gns(State(rho_a))
    A = np.stack([rep_a.vector(x) for x in units], axis=1)
    V = B @ np.linalg.pinv(A, rcond=1e-12)
    iso = frob(dagger(V) @ V - np.eye(rep_a.rep_dim))
    cyc = float(np.linalg.norm(V @ rep_a.omega - rep_b.omega))
    # rep(x) = x (x) 1_r, applied on the (site, multiplicity) axes of V
    V4 = V.reshape(b, rep_b.rank, a, rep_a.rank)
    inter = 0.0
    for x in (cyclic_shift(a), matrix_unit(0, 0, a)):
        lhs = np.einsum("isqt,qp->ispt", V4, x)
        rhs = np.einsum("pq,qsjt->psjt", gamma(x), V4)
        inter = max(inter, frob(lhs - rhs))
    if iso > 1e-10 * max(1.0, np.sqrt(rep_a.rep_dim)):
        raise ValueError(f"intertwiner is not an isometry: residual {iso:.2e}")
    if inter > 1e-9:
        raise ValueError(f"intertwining residual {inter:.2e} exceeds 1.0e-09")
    return GnsIntertwiner(matrix=V, isometry_residual=iso,
                          intertwining_residual=inter, cyclic_residual=cyc)
