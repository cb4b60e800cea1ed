import numpy as np
import pytest
import sympy as sym

from amrb import (
    ParameterBox,
    ParameterVector,
    Tridiagonal,
    assemble_operators,
    build_mesh,
    obstacle_data,
)

from conftest import dense, energy_product, identity_operator_set


# ---------------------------------------------------------------------------
# mesh


def test_build_mesh_stock_spacing():
    mesh = build_mesh(99, 300.0)
    assert np.all(np.diff(mesh.nodes) == 3.0)
    assert mesh.nodes.size == 101
    assert mesh.nodes[50] == 150.0


def test_build_mesh_tiny():
    mesh = build_mesh(2, 3.0)
    assert np.array_equal(mesh.nodes, [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("H,s_f", [(2, 1.0), (7, 2.5), (99, 300.0), (500, 123.4)])
def test_mesh_invariants(H, s_f):
    mesh = build_mesh(H, s_f)
    assert np.all(np.diff(mesh.nodes) > 0)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == s_f
    assert np.abs(np.diff(mesh.nodes) * (H + 1) - s_f).max() <= 1e-12 * s_f


@pytest.mark.parametrize("H,s_f", [(1, 10.0), (0, 10.0), (5, 0.0), (5, -1.0),
                                   (99, np.nan), (99, np.inf)])
def test_build_mesh_invalid(H, s_f):
    # a non-finite s_f used to give a mesh of NaN nodes
    with pytest.raises(ValueError):
        build_mesh(H, s_f)


def test_parameter_vector_validation():
    with pytest.raises(ValueError):
        ParameterVector(K=0.0, r=0.05, q=0.0, sigma=0.5)
    with pytest.raises(ValueError):
        ParameterVector(K=100.0, r=0.05, q=0.0, sigma=0.0)
    for field in ("K", "r", "q", "sigma"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                ParameterVector(**{"K": 100.0, "r": 0.05, "q": 0.0015, "sigma": 0.5, field: value})
    mu = ParameterVector(K=100.0, r=-0.01, q=-0.02, sigma=0.5)  # negative rates allowed
    assert mu.r == -0.01


@pytest.mark.parametrize("change", [
    {"K0": np.nan}, {"r0": np.inf}, {"q0": np.nan}, {"sigma0": -np.inf}, {"eps": np.nan},
    {"K0": 0.0}, {"K0": -100.0}, {"sigma0": 0.0}, {"sigma0": -0.5},
    {"eps": -0.1}, {"eps": 2.0}, {"eps": 3.0},
    {"K0": 1e308, "eps": 1.9}, {"r0": -1e308, "eps": 1.9},
], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
def test_parameter_box_rejects_out_of_range(change):
    # eps >= 2 would let a draw reach K = 0 or sigma = 0; finite centres
    # whose bounds overflow would draw an infinite parameter
    values = dict(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.1)
    values.update(change)
    with pytest.raises(ValueError):
        ParameterBox(**values)


def test_parameter_box_bounds():
    box = ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.1)
    lo, hi = box.bounds()
    assert np.allclose(lo, [95.0, 0.0475, 0.001425, 0.475])
    assert np.allclose(hi, [105.0, 0.0525, 0.001575, 0.525])
    assert box.contains(ParameterVector(K=100.0, r=0.05, q=0.0015, sigma=0.5))
    assert not box.contains(ParameterVector(K=106.9, r=0.05, q=0.0015, sigma=0.5))


def test_parameter_box_negative_center_flips_interval():
    box = ParameterBox(K0=100.0, r0=-0.05, q0=0.0015, sigma0=0.5, eps=0.1)
    lo, hi = box.bounds()
    assert lo[1] == pytest.approx(-0.0525)
    assert hi[1] == pytest.approx(-0.0475)


def test_parameter_box_pads_each_bound_by_its_own_magnitude():
    # BOX_RTOL * (1 + |bound|) below the lower bound: 9.6e-11 under K = 95,
    # and 1.0525e-12 under r = -0.0525, where the upper bound's magnitude
    # would give 1.06e-10 and 1.0475e-12
    stock = ParameterBox(K0=100.0, r0=0.05, q0=0.0015, sigma0=0.5, eps=0.1)
    k_lo = stock.bounds()[0][0]
    assert stock.contains(ParameterVector(K=k_lo - 0.9e-10, r=0.05, q=0.0015, sigma=0.5))
    assert not stock.contains(ParameterVector(K=k_lo - 1.0e-10, r=0.05, q=0.0015, sigma=0.5))
    negative = ParameterBox(K0=100.0, r0=-0.05, q0=0.0015, sigma0=0.5, eps=0.1)
    r_lo = negative.bounds()[0][1]
    assert negative.contains(ParameterVector(K=100.0, r=r_lo - 1.05e-12, q=0.0015, sigma=0.5))
    assert not negative.contains(ParameterVector(K=100.0, r=r_lo - 1.1e-12, q=0.0015, sigma=0.5))


# ---------------------------------------------------------------------------
# assembly against closed forms and symbolic integration


def test_mass_closed_form(default_ops, default_mesh):
    ds = default_mesh.nodes[1] - default_mesh.nodes[0]
    mass = dense(default_ops.mass)
    assert np.allclose(np.diag(mass), 2 * ds / 3, rtol=1e-13)
    assert np.allclose(np.diag(mass, 1), ds / 6, rtol=1e-13)


def _hat_pieces(i, nodes):
    """Symbolic P1 hat centered at nodes[i] as per-element polynomials."""
    s = sym.Symbol("s")
    pieces = {}
    left, center, right = nodes[i - 1], nodes[i], nodes[i + 1]
    pieces[i - 1] = (s - left) / (center - left)
    pieces[i] = (right - s) / (right - center)
    return pieces


def _symbolic_blocks(H, s_f):
    s = sym.Symbol("s")
    nodes = [sym.Rational(s_f) * m / (H + 1) for m in range(H + 2)]
    hats = {i: _hat_pieces(i, nodes) for i in range(1, H + 1)}

    def integrate(expr_by_element):
        total = sym.Integer(0)
        for e, expr in expr_by_element.items():
            total += sym.integrate(expr, (s, nodes[e], nodes[e + 1]))
        return total

    def pair(i, j, integrand):
        shared = set(hats[i]) & set(hats[j])
        return integrate({e: integrand(hats[i][e], hats[j][e]) for e in shared})

    mass = np.zeros((H, H))
    gram = np.zeros((H, H))
    a1 = np.zeros((H, H))
    a2 = np.zeros((H, H))
    f1 = np.zeros(H)
    f2 = np.zeros(H)
    for i in range(1, H + 1):
        for j in range(1, H + 1):
            if abs(i - j) > 1:
                continue
            m_ij = pair(i, j, lambda ti, tj: ti * tj)
            mass[i - 1, j - 1] = float(m_ij)
            gram[i - 1, j - 1] = float(
                pair(i, j, lambda ti, tj: s ** 2 * sym.diff(ti, s) * sym.diff(tj, s)) + m_ij)
            # row = test index i, column = trial index j
            a1[i - 1, j - 1] = float(
                pair(i, j, lambda ti, tj: sym.Rational(1, 2) * sym.diff(tj, s)
                     * sym.diff(s ** 2 * ti, s)))
            a2[i - 1, j - 1] = float(pair(i, j, lambda ti, tj: -s * sym.diff(tj, s) * ti))
        f1[i - 1] = float(integrate({e: (s / s_f) * expr for e, expr in hats[i].items()}))
        f2[i - 1] = float(integrate({e: expr for e, expr in hats[i].items()}))
    return mass, gram, a1, a2, f1, f2


def test_symbolic_assembly_oracle():
    H, s_f = 3, 4.0
    ops = assemble_operators(build_mesh(H, s_f))
    mass, gram, a1, a2, f1, f2 = _symbolic_blocks(H, s_f)

    def check(actual, expected):
        actual = dense(actual) if isinstance(actual, Tridiagonal) else np.asarray(actual)
        assert np.all(np.abs(actual - expected) <= 1e-13 * (1.0 + np.abs(expected)))

    check(ops.mass, mass)
    check(ops.gram, gram)
    check(ops.a1, a1)
    check(ops.a2, a2)
    check(ops.f1, f1)
    check(ops.f2, f2)


def test_a2_rowsums_against_symbolic_oracle():
    # action of the convection block on the interior interpolant of 1
    H, s_f = 3, 4.0
    ops = assemble_operators(build_mesh(H, s_f))
    _, _, _, a2, _, _ = _symbolic_blocks(H, s_f)
    ones = np.ones(H)
    assert np.allclose(ops.a2 @ ones, a2 @ ones, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("H", [2, 17, 99, 1000, 10000])
def test_assembly_spd_across_sizes(H):
    ops = assemble_operators(build_mesh(H, 300.0))  # raises on Cholesky failure
    assert ops.gram_chol.shape == (2, H)


def test_tridiagonal_product_keeps_its_operands_precision(default_ops):
    # the product is formed in the precision of the bands and x together:
    # long-double operands sum each row (lower, diagonal, upper) in long
    # double; float64 operands give float64, as the CSR check in test_truth
    wide = np.longdouble
    rng = np.random.default_rng(11)
    H = default_ops.dim
    x = rng.normal(size=H).astype(wide) / 3
    for bands in (default_ops.a1, default_ops.a2, default_ops.gram):
        lower, diag, upper = (band.astype(wide) / 7 for band in bands)
        rows = [diag[i] * x[i] + (lower[i - 1] * x[i - 1] if i else wide(0))
                + (upper[i] * x[i + 1] if i < H - 1 else wide(0)) for i in range(H)]
        for T, v in ((Tridiagonal(lower, diag, upper), x),
                     (Tridiagonal(*(band.astype(wide) for band in bands)), x.astype(float))):
            assert (T @ v).dtype == wide
        y = Tridiagonal(lower, diag, upper) @ x
        assert np.array_equal(y, np.array(rows, dtype=wide))
        assert (bands @ x.astype(float)).dtype == np.float64


# ---------------------------------------------------------------------------
# obstacle data


def test_obstacle_stock_values(default_mesh):
    data = obstacle_data(default_mesh, 100.0)
    s = default_mesh.interior_nodes
    payoff = data.psi_tilde + data.p0
    i150 = int(np.flatnonzero(s == 150.0)[0])
    assert payoff[i150] == 0.0
    assert data.p0[i150] == 50.0
    assert data.psi_tilde[i150] == -50.0
    i90 = int(np.flatnonzero(s == 90.0)[0])
    assert payoff[i90] == pytest.approx(10.0)
    assert data.psi_tilde[i90] == pytest.approx(10.0 - 70.0)
    assert np.all(payoff >= 0.0)


def test_obstacle_strike_at_boundary_vanishes(default_mesh):
    data = obstacle_data(default_mesh, default_mesh.s_f)
    assert np.abs(data.psi_tilde).max() <= 1e-12 * default_mesh.s_f


def test_obstacle_invalid_strike(default_mesh):
    with pytest.raises(ValueError):
        obstacle_data(default_mesh, 0.0)


# ---------------------------------------------------------------------------
# dual-space machinery


def test_dual_biorthogonal_action():
    # a multiplier's coefficients act on primal nodal values by a plain dot
    # product, which the energy inner product of its lift reproduces
    ops = assemble_operators(build_mesh(3, 4.0))
    eta = np.array([0.0, 1.0, 0.0])
    v = np.array([5.0, 7.0, -2.0])
    assert float(eta @ v) == 7.0
    lift = ops.unwhiten(ops.whiten_dual(eta))
    assert energy_product(ops, lift, v) == pytest.approx(7.0, rel=1e-12)


def test_w_inner_identity_is_dot_product():
    ops = identity_operator_set(6)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=6), rng.normal(size=6)
    dual = float(ops.whiten_dual(a) @ ops.whiten_dual(b))
    assert dual == pytest.approx(float(a @ b), rel=1e-14)


def test_w_inner_is_inner_product(default_ops):
    # the dual inner product is the dot product of U^{-T} eta
    rng = np.random.default_rng(1)
    H = default_ops.dim
    white = default_ops.whiten_dual
    for _ in range(100):
        a, b = rng.normal(size=H), rng.normal(size=H)
        s_ab = float(white(a) @ white(b))
        assert s_ab == pytest.approx(float(white(b) @ white(a)), rel=1e-10, abs=1e-12)
        # bilinearity in the first slot
        c = rng.normal(size=H)
        lhs = float(white(2.5 * a + c) @ white(b))
        assert lhs == pytest.approx(2.5 * s_ab + float(white(c) @ white(b)),
                                    rel=1e-10, abs=1e-10)
        # Cauchy-Schwarz
        assert abs(s_ab) <= np.linalg.norm(white(a)) * np.linalg.norm(white(b)) * (1 + 1e-10)
    z = np.zeros(H)
    assert float(white(z) @ white(z)) == 0.0
    assert float(white(a) @ white(a)) > 0.0


def test_w_norm_is_the_dual_norm(default_ops):
    # sampled sup never exceeds the factorization-based value and the
    # analytic maximizer attains it
    rng = np.random.default_rng(42)
    H = default_ops.dim
    eta = rng.normal(size=H)
    wn = np.linalg.norm(default_ops.whiten_dual(eta))
    V = rng.normal(size=(H, 10_000))
    ratios = (eta @ V) / np.sqrt(np.einsum("ij,ij->j", V, default_ops.gram @ V))
    assert ratios.max() <= wn * (1 + 1e-12)
    vstar = default_ops.unwhiten(default_ops.whiten_dual(eta))
    attained = float(eta @ vstar) / energy_product(default_ops, vstar)
    assert attained == pytest.approx(wn, rel=1e-10)


def test_whitened_coordinates(default_ops):
    # gram = U'U: U u carries the energy product, U^{-T} eta the dual one
    # (against a dense solve), and two triangular solves are the Cholesky
    # solve bit for bit
    from scipy.linalg import cho_solve_banded

    rng = np.random.default_rng(10)
    H = default_ops.dim
    u, v = rng.normal(size=(2, H))
    wu, wv = default_ops.whiten(u), default_ops.whiten(v)
    assert float(wu @ wv) == pytest.approx(energy_product(default_ops, u, v), rel=1e-12)
    assert np.abs(default_ops.unwhiten(wu) - u).max() <= 1e-12 * np.abs(u).max()
    lift = default_ops.whiten_dual(u)
    dual = float(u @ np.linalg.solve(dense(default_ops.gram), u))
    assert float(lift @ lift) == pytest.approx(dual, rel=1e-12)
    block = rng.normal(size=(H, 4))
    for b in (u, block, np.asfortranarray(block)):
        assert np.array_equal(default_ops.unwhiten(default_ops.whiten_dual(b)),
                              cho_solve_banded((default_ops.gram_chol, False), b))


def test_triangular_solves_take_empty_blocks(default_ops):
    empty = np.zeros((default_ops.dim, 0))
    assert default_ops.unwhiten(empty).shape == (default_ops.dim, 0)
    assert default_ops.whiten_dual(empty).shape == (default_ops.dim, 0)


def test_riesz_identity_ops():
    ops = identity_operator_set(5)
    xi = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    assert np.allclose(ops.unwhiten(ops.whiten_dual(xi)), xi)


def test_riesz_solve_residual_and_column(default_ops):
    H = default_ops.dim
    e5 = np.zeros(H)
    e5[5] = 1.0
    lift = default_ops.unwhiten(default_ops.whiten_dual(e5))
    assert np.abs(default_ops.gram @ lift - e5).max() <= 1e-10
    rng = np.random.default_rng(3)
    xi = rng.normal(size=H) * 50
    lift = default_ops.unwhiten(default_ops.whiten_dual(xi))
    assert np.abs(default_ops.gram @ lift - xi).max() <= 1e-10 * np.abs(xi).max()


def test_riesz_duality_pairing(default_ops):
    rng = np.random.default_rng(4)
    xi = rng.normal(size=default_ops.dim)
    white = default_ops.whiten_dual(xi)
    lift = default_ops.unwhiten(white)
    target = energy_product(default_ops, lift) ** 2
    assert float(xi @ lift) == pytest.approx(target, rel=1e-10)
    assert float(white @ white) == pytest.approx(target, rel=1e-10)


def test_riesz_isometry(default_ops):
    rng = np.random.default_rng(5)
    for _ in range(100):
        white = default_ops.whiten_dual(rng.normal(size=default_ops.dim))
        lift = default_ops.unwhiten(white)
        assert energy_product(default_ops, lift) == pytest.approx(np.linalg.norm(white), rel=1e-10)

