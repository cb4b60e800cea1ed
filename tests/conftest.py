import math
from types import SimpleNamespace

import numpy as np
import pytest

from amrb import (
    ParameterBox,
    ParameterVector,
    SchemeConfig,
    assemble_operators,
    build_mesh,
    build_reduced_model_from_store,
    generate_snapshots,
    sample_training_set,
)
from amrb.cli import test_stream, train_stream


@pytest.fixture(scope="session")
def default_mesh():
    return build_mesh(99, 300.0)


@pytest.fixture(scope="session")
def default_ops(default_mesh):
    return assemble_operators(default_mesh)


@pytest.fixture(scope="session")
def default_scheme():
    return SchemeConfig(T=1.0, L=20, theta=0.5)


@pytest.fixture(scope="session")
def default_box():
    return ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.1)


@pytest.fixture(scope="session")
def mu0():
    return ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5)


@pytest.fixture(scope="session")
def bbsr_at_strike(mu0):
    """``bbsr_put`` at s = K, stock mu and T = 1 by its number of steps."""
    return {steps: bbsr_put(mu0.K, mu0, 1.0, steps) for steps in (2000, 4000, 8000)}


@pytest.fixture(scope="session")
def store16(default_ops, default_scheme, default_box):
    params = sample_training_set(default_box, 16, train_stream(0))
    return generate_snapshots(params, default_ops, default_scheme)


@pytest.fixture(scope="session")
def test_params10(default_box):
    return sample_training_set(default_box, 10, test_stream(0))


@pytest.fixture(scope="session")
def model_4_4(store16, default_ops):
    model, _ = build_reduced_model_from_store(store16, 4, 4, default_ops)
    return model


@pytest.fixture(scope="session")
def model_8_8(store16, default_ops):
    model, _ = build_reduced_model_from_store(store16, 8, 8, default_ops)
    return model


@pytest.fixture(scope="session")
def model_16_16(store16, default_ops):
    model, _ = build_reduced_model_from_store(store16, 16, 16, default_ops)
    return model


@pytest.fixture(scope="session")
def small_setup():
    """Cheap configuration for algebra-level tests."""
    mesh = build_mesh(40, 300.0)
    ops = assemble_operators(mesh)
    scheme = SchemeConfig(T=1.0, L=8, theta=0.5)
    box = ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.1)
    return mesh, ops, scheme, box


@pytest.fixture(scope="session")
def small_store(small_setup):
    mesh, ops, scheme, box = small_setup
    params = sample_training_set(box, 5, train_stream(3))
    return generate_snapshots(params, ops, scheme)


@pytest.fixture(scope="session")
def small_model(small_store, small_setup):
    _, ops, _, _ = small_setup
    model, _ = build_reduced_model_from_store(small_store, 5, 5, ops)
    return model


def dense(op) -> np.ndarray:
    """Dense copy of a Tridiagonal operator."""
    return np.diag(op.diag) + np.diag(op.lower, -1) + np.diag(op.upper, 1)


def dense_step_pair(mu, config, ops):
    """``step_pair`` of the dense truth operators: (S, explicit) as arrays."""
    from amrb.truth import step_pair

    return step_pair(mu, config, *map(dense, (ops.mass, ops.a1, ops.a2)))


def identity_operator_set(n: int):
    """Operator set with identity matrices; dual norms become Euclidean."""
    from scipy.linalg import cholesky_banded

    from amrb.fem import AffineOperatorSet, Tridiagonal, build_mesh as _bm

    eye = Tridiagonal(np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    ab = np.zeros((2, n))
    ab[1] = 1.0
    chol = cholesky_banded(ab, lower=False)
    return AffineOperatorSet(mesh=_bm(n, float(n + 1)), gram=eye, mass=eye,
                             a1=eye, a2=eye,
                             f1=np.zeros(n), f2=np.zeros(n), gram_chol=chol)


def reduced_blocks(model, mu):
    """What ``online_setup`` combines before it keeps only the step maps,
    rebuilt from the model's affine blocks: the load f_n, the step matrix
    s_n with its LU factors, and the explicit part rhs_n."""
    from scipy.linalg import lu_factor

    cfg = model.config
    a_n = (mu.sigma ** 2) * model.a1_n + (mu.r - mu.q) * model.a2_n + mu.r * model.mass_n
    mass_dt = model.mass_n / cfg.delta_t
    s_n = mass_dt + cfg.theta * a_n
    return SimpleNamespace(f_n=mu.K * mu.q * model.f1_n - mu.K * mu.r * model.f2_n,
                           s_n=s_n, s_lu=lu_factor(s_n),
                           rhs_n=mass_dt - (1.0 - cfg.theta) * a_n)


def empty_diagnostics():
    """Greedy diagnostics of a model assembled without the greedy loops."""
    from amrb import GreedyDiagnostics

    return GreedyDiagnostics(eps_u=np.zeros(0), eps_lambda=np.zeros(0), selected_params_u=(),
                             selected_pairs_lambda=(), training_params=np.zeros((0, 4)))


def energy_product(ops, u, v=None) -> float:
    """The energy product u' gram v through ``ops.gram @``, as
    ``error_metrics`` takes it; with v omitted, the energy norm of u."""
    if v is None:
        return float(np.sqrt(max(float(u @ (ops.gram @ u)), 0.0)))
    return float(u @ (ops.gram @ v))


def model_basis(doc, key):
    """A writable copy of the basis ``key`` ("psi_matrix" or "xi_matrix") of
    the model document ``doc``, unpacked as ``load_model`` unpacks it."""
    from amrb.offline import unpack

    return unpack(doc[key], key, (doc["mesh"]["H"], -1)).copy()


def _bsm_terms(s: float, mu, T: float):
    """(d1, d2) of the Black-Scholes-Merton formulas with dividend yield."""
    spread = mu.sigma * math.sqrt(T)
    d1 = (math.log(s / mu.K) + (mu.r - mu.q + 0.5 * mu.sigma ** 2) * T) / spread
    return d1, d1 - spread


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bsm_put(s: float, mu, T: float) -> float:
    """The closed-form European put with dividend yield (Merton, 1973) at
    asset price s > 0 and horizon T > 0: K e^(-rT) N(-d2) - s e^(-qT) N(-d1)."""
    d1, d2 = _bsm_terms(s, mu, T)
    return (mu.K * math.exp(-mu.r * T) * _normal_cdf(-d2)
            - s * math.exp(-mu.q * T) * _normal_cdf(-d1))


def bsm_call(s: float, mu, T: float) -> float:
    """The closed-form European call beside ``bsm_put``:
    s e^(-qT) N(d1) - K e^(-rT) N(d2)."""
    d1, d2 = _bsm_terms(s, mu, T)
    return (s * math.exp(-mu.q * T) * _normal_cdf(d1)
            - mu.K * math.exp(-mu.r * T) * _normal_cdf(d2))


def _bbs_put(s: float, mu, T: float, steps: int) -> float:
    """The American put by the binomial Black-Scholes method: a
    Cox-Ross-Rubinstein tree of ``steps`` steps whose last step prices the
    continuation by the closed-form European put over one step."""
    dt = T / steps
    up = math.exp(mu.sigma * math.sqrt(dt))
    p_up = (math.exp((mu.r - mu.q) * dt) - 1.0 / up) / (up - 1.0 / up)
    discount = math.exp(-mu.r * dt)
    # the asset prices at step n of the tree are s up^(2j - n), j = 0..n
    n = steps - 1
    prices = s * up ** (2.0 * np.arange(n + 1) - n)
    values = np.maximum(mu.K - prices, [bsm_put(x, mu, dt) for x in prices])
    for n in range(steps - 2, -1, -1):
        values = discount * (p_up * values[1:] + (1.0 - p_up) * values[:-1])
        np.maximum(values, mu.K - s * up ** (2.0 * np.arange(n + 1) - n), out=values)
    return float(values[0])


def bbsr_put(s: float, mu, T: float, steps: int) -> float:
    """BBS-R, the American put of Broadie and Detemple (1996): the binomial
    Black-Scholes price at ``steps`` (even) and ``steps / 2`` steps with
    two-point Richardson extrapolation, 2 P(steps) - P(steps / 2)."""
    return 2.0 * _bbs_put(s, mu, T, steps) - _bbs_put(s, mu, T, steps // 2)
