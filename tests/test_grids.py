import numpy as np
import pytest

from cmcindex.grids import ParamGrid, sphere_grid, torus_grid


def test_resolution_floor_enforced():
    with pytest.raises(ValueError):
        torus_grid(4, 16)
    with pytest.raises(ValueError):
        ParamGrid("torus", 16, 1, (0, 1), (0, 1))


@pytest.mark.parametrize("ny", [0, 4])
def test_sphere_grid_floor_comes_before_spacing(ny):
    with pytest.raises(ValueError, match="at least 8 per direction"):
        sphere_grid(64, ny)


def test_sphere_grid_needs_even_longitude():
    with pytest.raises(ValueError):
        sphere_grid(15, 12)


def test_torus_trapezoid_integrates_trig_exactly():
    g = torus_grid(16, 16)
    X, Y = g.meshes()
    f = 1.5 + np.cos(3 * X) * np.sin(2 * Y) + np.sin(X)
    val = (g.chart_weights * f).sum()
    assert abs(val - 1.5 * (2 * np.pi) ** 2) < 1e-12


def test_sphere_quadrature_spectral_on_smooth_integrands():
    # integral of (cos^2 theta) over the sphere chart, dx dtheta/sin embedded
    # in the chart weights: int cos^2 sin dtheta dx = 4 pi / 3
    g = sphere_grid(16, 24)
    X, TH = np.meshgrid(g.x, g.theta, indexing="ij")
    integrand = np.cos(TH) ** 2 * np.sin(TH) ** 2  # chart density ~ sin^2
    val = (g.chart_weights * integrand).sum()
    assert abs(val - 4 * np.pi / 3) < 1e-12


def test_diff_x_eighth_order():
    errs = []
    for n in (24, 48):
        g = torus_grid(n, 8)
        X, _ = g.meshes()
        err = np.abs(g.diff_x(np.sin(3 * X)) - 3 * np.cos(3 * X)).max()
        errs.append(err)
    assert errs[0] / errs[1] > 150  # ~2^8
    assert errs[1] < 1e-5  # 3 * (3 h)^8 / 630 at n = 48


def test_diff_y_sphere_matches_chain_rule():
    g = sphere_grid(16, 48)
    _, TH = np.meshgrid(g.x, g.theta, indexing="ij")
    f = np.cos(TH)          # smooth scalar on the sphere (z-coordinate)
    exact = -np.sin(TH) ** 2  # sin(theta) d/dtheta cos(theta)
    assert np.abs(g.diff_y(f) - exact).max() < 1e-9


def test_pole_mirror_differentiates_through_poles():
    # field = z^2 = cos^2 theta is x-independent and smooth across both poles
    g = sphere_grid(16, 16)
    _, TH = np.meshgrid(g.x, g.theta, indexing="ij")
    f = np.cos(TH) ** 2
    exact = -2 * np.sin(TH) ** 2 * np.cos(TH)
    assert np.abs(g.diff_y(f) - exact).max() < 1e-6


def test_matrix_paths_match_roll_paths():
    rngl = np.random.default_rng(3)
    for g in (torus_grid(16, 12), sphere_grid(12, 10)):
        f = rngl.standard_normal((g.nx, g.ny))
        antipodal = (np.arange(g.nx) + g.nx // 2) % g.nx
        dx_mat = g.axis_stencil(0, "diff")[0] @ f
        P, Q = g.axis_stencil(1, "diff")
        dy_mat = f @ P.T + f[antipodal] @ Q.T
        assert np.abs(dx_mat - g.diff_x(f)).max() < 1e-12
        assert np.abs(dy_mat - g.diff_y(f)).max() < 1e-12


def test_filter_annihilates_constants_and_kills_sawtooth():
    g = torus_grid(16, 16)
    c = g.axis_stencil(0, "filter")[0]
    ones = np.ones((g.nx, g.ny))
    assert np.abs(c @ ones).max() < 1e-14
    saw = np.tile((-1.0) ** np.arange(g.nx)[:, None], (1, g.ny))
    # first-derivative stencil annihilates the sawtooth, the filter does not
    assert np.abs(g.axis_stencil(0, "diff")[0] @ saw).max() < 1e-12
    assert np.abs(c @ saw).max() > 1.0


def test_theta_weights_positive():
    for ny in (8, 9, 16, 33, 64):
        g = sphere_grid(8, ny)
        assert np.all(g.theta_weights > 0)
        # integrates sin(theta) exactly: total 2
        assert abs((g.theta_weights * np.sin(g.theta)).sum() - 2.0) < 1e-13
