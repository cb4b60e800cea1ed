"""1-D P1 finite element machinery for the put-option obstacle problem.

The truncated asset domain (0, s_f) carries a uniform mesh with H interior
nodes; the affine boundary lift K*(1 - s/s_f) is subtracted from the price
so all fields satisfy homogeneous Dirichlet conditions.  The bilinear form
and load separate into parameter-independent blocks,

    a(mu) = sigma^2 * a1 + (r - q) * a2 + r * mass,
    f(mu) = K*q * f1 - K*r * f2,

where a1 is the s^2-diffusion block (the 1/2 factor folded in), a2 the
convection block -<s u', v>, mass the reaction block <u, v>, f1 the ramp
load <s/s_f, phi_i> and f2 the constant load <1, phi_i>.  Every block is
stored as its three bands (``Tridiagonal``).

The energy inner product <u, v> = <s u', s v'> + <u, v> has Gram matrix
``gram``.  Multipliers are expanded in the basis biorthogonal to the nodal
hats, so their duality action on a coefficient vector is a plain dot
product, the dual norm is sqrt(eta' gram^{-1} eta), and the Riesz lift of
a multiplier (its supremizer) is gram^{-1} eta.  One banded Cholesky
factorization gram = U'U backs all of these at O(H) per solve, and whitens
both products: they are dot products of U u and of U^{-T} eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import AssemblyError

_INV_SQRT3 = 1.0 / np.sqrt(3.0)
BOX_RTOL = 1e-12  # ParameterBox.contains pads each bound by this times 1 + |bound|


@dataclass(frozen=True)
class Mesh1D:
    """Uniform grid on (0, s_f) with H interior degrees of freedom."""

    s_f: float
    nodes: np.ndarray

    @property
    def H(self) -> int:
        return self.nodes.size - 2

    @property
    def delta_s(self) -> float:
        return self.s_f / (self.H + 1)

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


def build_mesh(H: int, s_f: float) -> Mesh1D:
    """Uniform mesh with H interior nodes and spacing s_f / (H + 1).

    The one check of a mesh, for the run config and the model file alike.
    """
    if H < 2:
        raise ValueError(f"need at least 2 interior nodes, got H={H}")
    if not 0 < s_f < math.inf:
        raise ValueError(f"upper asset bound must be positive and finite, got s_f={s_f}")
    s_f = float(s_f)
    return Mesh1D(s_f=s_f, nodes=np.linspace(0.0, s_f, int(H) + 2))


@dataclass(frozen=True)
class ParameterVector:
    """Market parameters: strike, interest rate, dividend rate, volatility."""

    K: float
    r: float
    q: float
    sigma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.K, self.r, self.q, self.sigma))):
            raise ValueError(f"market parameters must be finite, got {self}")
        if self.K <= 0:
            raise ValueError(f"strike must be positive, got K={self.K}")
        if self.sigma <= 0:
            raise ValueError(f"volatility must be positive, got sigma={self.sigma}")

    def as_array(self) -> np.ndarray:
        return np.array([self.K, self.r, self.q, self.sigma], dtype=float)


@dataclass(frozen=True)
class ParameterBox:
    """Product of per-coordinate intervals [(1 -/+ eps/2) * center].

    eps < 2 keeps the strike and volatility intervals positive.
    """

    K0: float
    r0: float
    q0: float
    sigma0: float
    eps: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.K0, self.r0, self.q0, self.sigma0, self.eps))):
            raise ValueError(f"parameter box must be finite, got {self}")
        if self.K0 <= 0 or self.sigma0 <= 0:
            raise ValueError(f"need K0 > 0 and sigma0 > 0, got K0={self.K0}, sigma0={self.sigma0}")
        if not 0 <= self.eps < 2:
            raise ValueError(f"relative width must lie in [0, 2), got eps={self.eps}")
        with np.errstate(over="ignore"):
            bounds = self.bounds()
        if not np.isfinite(bounds).all():  # else a draw is an infinite K, r, q or sigma
            raise ValueError(f"parameter box bounds overflow, got {self}")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        center = np.array([self.K0, self.r0, self.q0, self.sigma0], dtype=float)
        a = (1.0 - 0.5 * self.eps) * center
        b = (1.0 + 0.5 * self.eps) * center
        # a negative center flips the interval endpoints
        return np.minimum(a, b), np.maximum(a, b)

    def contains(self, mu) -> bool:
        lo, hi = self.bounds()
        x = np.array([mu.K, mu.r, mu.q, mu.sigma], dtype=float)
        pad = BOX_RTOL * (1.0 + np.abs(hi))
        return bool(np.all(x >= lo - pad) and np.all(x <= hi + pad))


class Tridiagonal(NamedTuple):
    """Tridiagonal matrix by its bands: lower[i] = A[i+1, i], upper[i] = A[i, i+1]."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Product with x of shape (H,) or (H, k), as a CSR product computes it:
        each row summed lower, diagonal, upper, and a C-ordered result."""
        lower, diag, upper = self if x.ndim == 1 else (band[:, None] for band in self)
        y = np.multiply(diag, x, order="C")  # whatever x's layout: GEMMs round by layout
        y[1:] += lower * x[:-1]
        y[:-1] += upper * x[1:]
        return y


@dataclass(frozen=True)
class AffineOperatorSet:
    """Parameter-separable operator bands plus inner-product machinery."""

    mesh: Mesh1D
    gram: Tridiagonal
    mass: Tridiagonal
    a1: Tridiagonal
    a2: Tridiagonal
    f1: np.ndarray
    f2: np.ndarray
    gram_chol: np.ndarray

    @property
    def dim(self) -> int:
        return self.mesh.H

    def a_matrix(self, mu) -> Tridiagonal:
        """Bands of the bilinear form sigma^2*a1 + (r - q)*a2 + r*mass."""
        return Tridiagonal(*((mu.sigma ** 2) * b1 + (mu.r - mu.q) * b2 + mu.r * bm
                             for b1, b2, bm in zip(self.a1, self.a2, self.mass)))

    def f_vector(self, mu) -> np.ndarray:
        return mu.K * mu.q * self.f1 - mu.K * mu.r * self.f2

    def v_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ (self.gram @ v))

    def v_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.v_inner(u, u), 0.0)))

    def whiten(self, u: np.ndarray) -> np.ndarray:
        """U u for the factor gram = U'U: energy products become dot products."""
        return Tridiagonal(np.zeros(self.dim - 1), self.gram_chol[1], self.gram_chol[0, 1:]) @ u

    def unwhiten(self, w: np.ndarray) -> np.ndarray:
        """U^{-1} w, the nodal vector with whitened coordinates w."""
        return _band_solve(self.gram_chol, w, "N")

    def whiten_dual(self, eta: np.ndarray) -> np.ndarray:
        """U^{-T} eta = U gram^{-1} eta: dual products become dot products."""
        return _band_solve(self.gram_chol, eta, "T")

    def x_solve(self, b: np.ndarray) -> np.ndarray:
        """Apply gram^{-1} = U^{-1} U^{-T} through the stored banded factor."""
        return self.unwhiten(self.whiten_dual(b))


def _band_solve(chol: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    """Solve U x = b (trans "N") or U' x = b (trans "T") with LAPACK ``tbtrs``."""
    if b.size == 0:  # scipy 1.17's tbtrs wrapper corrupts memory on zero columns
        return np.zeros(b.shape)
    x, info = dtbtrs(chol, b, trans=trans)
    if info:
        raise ValueError(f"banded triangular solve failed (info={info})")
    return x


def assemble_operators(mesh: Mesh1D) -> AffineOperatorSet:
    """Assemble all operator blocks with 2-point Gauss quadrature.

    Each integrand is a polynomial of degree at most two in s per element,
    so the rule is exact; the P1 hat overlap makes every block tridiagonal,
    and the element blocks are scattered straight into its bands.
    """
    nodes = mesh.nodes
    h = np.diff(nodes)
    left, right = nodes[:-1], nodes[1:]
    mid = 0.5 * (left + right)
    gp = np.stack([mid - 0.5 * h * _INV_SQRT3, mid + 0.5 * h * _INV_SQRT3])  # (2, nel)
    gw = np.stack([0.5 * h, 0.5 * h])

    val = np.stack([(right - gp) / h, (gp - left) / h])  # val[a, g, e], a = local node
    der = np.stack([-1.0 / h, 1.0 / h])                  # der[a, e], constant per element

    # conv[a, b, e] = int s * trial_b' * test_a over element e
    conv = np.einsum("ge,ge,age,be->abe", gw, gp, val, der)
    sgrad = np.einsum("ge,ge,ae,be->abe", gw, gp ** 2, der, der)
    mass_loc = np.einsum("ge,age,bge->abe", gw, val, val)

    def scatter(block: np.ndarray) -> Tridiagonal:
        # element e couples nodes e and e + 1; interior node i is node i + 1
        return Tridiagonal(block[1, 0, 1:-1], block[0, 0, 1:] + block[1, 1, :-1],
                           block[0, 1, 1:-1])

    def scatter_vec(block: np.ndarray) -> np.ndarray:
        return block[0, 1:] + block[1, :-1]

    mass = scatter(mass_loc)
    gram = scatter(sgrad + mass_loc)
    a1 = scatter(conv + 0.5 * sgrad)
    a2 = scatter(-conv)
    f1 = scatter_vec(np.einsum("ge,ge,age->ae", gw, gp / mesh.s_f, val))
    f2 = scatter_vec(np.einsum("ge,age->ae", gw, val))

    try:
        gram_chol, _ = (cholesky_banded(np.array([np.r_[0.0, m.upper], m.diag]), lower=False)
                        for m in (gram, mass))  # LAPACK upper band storage
    except (np.linalg.LinAlgError, ValueError) as err:  # ValueError: inf or nan entries
        raise AssemblyError(f"inner-product matrices are not finite and SPD: {err}") from err

    return AffineOperatorSet(
        mesh=mesh, gram=gram, mass=mass, a1=a1, a2=a2,
        f1=f1, f2=f2, gram_chol=gram_chol,
    )


@dataclass(frozen=True)
class ObstacleData:
    """Boundary lift and lifted obstacle (payoff minus lift) at interior nodes."""

    p0: np.ndarray
    psi_tilde: np.ndarray


def obstacle_data(mesh: Mesh1D, K: float) -> ObstacleData:
    if K <= 0:
        raise ValueError(f"strike must be positive, got K={K}")
    s = mesh.interior_nodes
    psi = np.maximum(K - s, 0.0)
    p0 = K * (1.0 - s / mesh.s_f)
    return ObstacleData(p0=p0, psi_tilde=psi - p0)


def w_inner(eta, zeta, ops: AffineOperatorSet) -> float:
    """Dual-space inner product eta' gram^{-1} zeta."""
    e = np.asarray(eta, dtype=float)
    z = np.asarray(zeta, dtype=float)
    if e.shape != (ops.dim,) or z.shape != (ops.dim,):
        raise ValueError(f"dual vectors must have shape ({ops.dim},), got {e.shape} and {z.shape}")
    return float(e @ ops.x_solve(z))


def w_norm(eta, ops: AffineOperatorSet) -> float:
    return float(np.sqrt(max(w_inner(eta, eta, ops), 0.0)))


def riesz_supremizer(xi, ops: AffineOperatorSet) -> np.ndarray:
    """Primal representative of a dual vector: gram * (lift) = coefficients.

    The lift realizes the duality pairing through the energy inner product,
    so its energy norm equals the dual norm of the input.
    """
    c = np.asarray(xi, dtype=float)
    if c.shape != (ops.dim,):
        raise ValueError(f"dual vector must have shape ({ops.dim},), got {c.shape}")
    return ops.x_solve(c)

