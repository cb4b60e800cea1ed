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
stored as its three bands (``Tridiagonal``).  This module assembles the
blocks only: ``amrb.truth.step_pair`` and ``load_vector`` apply the
coefficients, to these bands and to their reduced projections alike.

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

from .errors import AssemblyError
from .lapack import dpbtrf, dtbtrs

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
        return bool(np.all(x >= lo - BOX_RTOL * (1.0 + np.abs(lo)))
                    and np.all(x <= hi + BOX_RTOL * (1.0 + np.abs(hi))))


class Tridiagonal(NamedTuple):
    """Tridiagonal matrix by its bands: lower[i] = A[i+1, i], upper[i] = A[i, i+1]."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Product with x of shape (H,) or (H, k) into a fresh C-ordered array,
        whatever x's layout (GEMMs on the result round by layout), in the
        precision of the bands and x together."""
        dtype = np.result_type(*self, x)
        return band_product(self, x, np.empty(x.shape, dtype), np.empty(x.shape, dtype))


def band_product(T: Tridiagonal, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """T @ x along the first axis of x (one vector, or the columns of a block)
    into ``out``, each row summed lower, diagonal, upper as a CSR product
    sums it; ``scratch`` is a buffer of out's shape.  Bands of x's dimension
    give each column a matrix of its own.  The one tridiagonal product:
    ``Tridiagonal @``, the truth steps' right-hand sides and the residual
    check all come here."""
    lower, diag, upper = T if T.diag.ndim == x.ndim else (band[:, None] for band in T)
    np.multiply(diag, x, out=out)
    np.multiply(lower, x[:-1], out=scratch[1:])
    out[1:] += scratch[1:]
    np.multiply(upper, x[1:], out=scratch[:-1])
    out[:-1] += scratch[:-1]
    return out


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

    def whiten(self, u: np.ndarray) -> np.ndarray:
        """U u for the factor gram = U'U: energy products become dot products.

        The product of U's bidiagonal band storage with a vector or the
        columns of a block, into a fresh C-ordered array (``pod_greedy``
        deflates it in place)."""
        chol = self.gram_chol if u.ndim == 1 else self.gram_chol[:, :, None]
        out = np.multiply(chol[1], u, out=np.empty(u.shape))
        out[:-1] += chol[0, 1:] * u[1:]
        return out

    def unwhiten(self, w: np.ndarray) -> np.ndarray:
        """U^{-1} w, the nodal vector with whitened coordinates w."""
        return _band_solve(self.gram_chol, w, "N")

    def whiten_dual(self, eta: np.ndarray) -> np.ndarray:
        """U^{-T} eta = U gram^{-1} eta: dual products become dot products."""
        return _band_solve(self.gram_chol, eta, "T")


def _band_solve(chol: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    """Solve U x = b (trans "N") or U' x = b (trans "T") with LAPACK ``tbtrs``."""
    if b.size == 0:  # scipy 1.17's tbtrs wrapper corrupts memory on zero columns
        return np.zeros(b.shape)
    x, info = dtbtrs(chol, b, trans=trans)
    if info:
        raise ValueError(f"banded triangular solve failed (info={info})")
    return x


def _cholesky_banded(T: Tridiagonal) -> np.ndarray:
    """Upper banded Cholesky factor of a symmetric T, by LAPACK ``pbtrf``."""
    ab = np.array([np.r_[0.0, T.upper], T.diag])  # LAPACK upper band storage
    if not np.isfinite(ab).all():
        raise AssemblyError("inner-product matrices are not finite and SPD: "
                            "array must not contain infs or NaNs")
    chol, info = dpbtrf(ab)
    if info > 0:
        raise AssemblyError("inner-product matrices are not finite and SPD: "
                            f"{info}-th leading minor not positive definite")
    return chol


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

    gram_chol, _ = (_cholesky_banded(m) for m in (gram, mass))  # mass: only checked

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

