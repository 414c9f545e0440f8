import numpy as np
import pytest

from cmcindex import ambient as amb
from cmcindex import gallery as gal


def _random_tangent(space, p, rng):
    w = rng.standard_normal(space.dim)
    return amb.project_tangent(space, p, w)


def _random_point(space, rng):
    if space.kind in ("R3", "FlatT3"):
        return rng.standard_normal(3)
    if space.kind == "S3":
        p = rng.standard_normal(4)
        return p / np.linalg.norm(p)
    x = 0.7 * rng.standard_normal(3)
    return np.concatenate([x, [np.sqrt(1.0 + x @ x)]])


SPACES = [amb.R3, amb.S3, amb.H3, amb.FLAT_T3]


def test_metric_examples():
    assert amb.inner(amb.R3, np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == 1.0
    x = np.array([0.0, 1, 0, 0])
    y = np.array([0.0, 0, 1, 0])
    assert amb.inner(amb.S3, x, y) == 0.0


def test_h3_metric_matches_minkowski_oracle(rng):
    # brute-force oracle: sum of spatial products minus product of time parts
    for _ in range(20):
        p = _random_point(amb.H3, rng)
        x = _random_tangent(amb.H3, p, rng)
        y = _random_tangent(amb.H3, p, rng)
        oracle = sum(x[i] * y[i] for i in range(3)) - x[3] * y[3]
        assert abs(amb.inner(amb.H3, x, y) - oracle) < 1e-12


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_space_form_riemann_identity(space, rng):
    # Rm agrees with kappa (<X,W><Y,Z> - <X,Z><Y,W>) on random frames
    for _ in range(100):
        p = _random_point(space, rng)
        vecs = [_random_tangent(space, p, rng) for _ in range(4)]
        x, y, z, w = vecs
        val = amb.riemann(space, p, x, y, z, w)
        expect = space.curvature * (amb.inner(space, x, w) * amb.inner(space, y, z)
                                    - amb.inner(space, x, z) * amb.inner(space, y, w))
        assert abs(val - expect) < 1e-12


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_riemann_symmetries_and_bianchi(space, rng):
    for _ in range(25):
        p = _random_point(space, rng)
        x, y, z, w = (_random_tangent(space, p, rng) for _ in range(4))
        r = lambda a, b, c, d: amb.riemann(space, p, a, b, c, d)
        assert abs(r(x, y, z, w) + r(y, x, z, w)) < 1e-12
        assert abs(r(x, y, z, w) + r(x, y, w, z)) < 1e-12
        assert abs(r(x, y, z, w) + r(y, z, x, w) + r(z, x, y, w)) < 1e-12


def test_sectional_curvature_normalization(rng):
    # sec(X, Y) = Rm(X,Y,Y,X) / gram = +1 on S3, -1 on H3
    for space, expect in ((amb.S3, 1.0), (amb.H3, -1.0)):
        p = _random_point(space, rng)
        x = _random_tangent(space, p, rng)
        y = _random_tangent(space, p, rng)
        gram = (amb.inner(space, x, x) * amb.inner(space, y, y)
                - amb.inner(space, x, y) ** 2)
        sec = amb.riemann(space, p, x, y, y, x) / gram
        assert abs(sec - expect) < 1e-12


def test_ricci_normal_space_forms():
    # Ric(nu, nu) = 2 kappa along the unit normal of any surface
    for name, kappa in (("sphere_r3", 0.0), ("sphere_s3", 1.0), ("sphere_h3", -1.0)):
        imm = gal.gallery(name, resolution=(16, 8))
        assert np.all(imm.ricci_nu == 2.0 * kappa), name
        assert np.abs(amb.inner(imm.space, imm.nu, imm.nu) - 1.0).max() < 1e-12, name


def test_volume_form_orientation_and_alternating(rng):
    e = np.eye(3)
    assert abs(amb.volume_form(amb.R3, np.zeros(3), e[0], e[1], e[2]) - 1.0) < 1e-14
    p = np.array([1.0, 0, 0, 0])
    f = np.eye(4)[1:]
    assert abs(amb.volume_form(amb.S3, p, f[0], f[1], f[2]) - 1.0) < 1e-14
    ph = np.array([0.0, 0, 0, 1.0])
    assert abs(amb.volume_form(amb.H3, ph, *np.eye(4)[:3]) - 1.0) < 1e-14
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    assert abs(amb.volume_form(amb.R3, np.zeros(3), x, y, x)) < 1e-14
    # +1 on any positively oriented orthonormal frame (rotate the standard one)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    assert abs(amb.volume_form(amb.R3, np.zeros(3), q[:, 0], q[:, 1], q[:, 2]) - 1) < 1e-12


def _check_volume_form_against_det(space, p, x, y, z):
    # the rows of volume_form: (x, y, z) in R^3, (p, x, y, z) on S3 and
    # (x, y, z, p) on H3
    bp, bx, by, bz = np.broadcast_arrays(p, x, y, z)
    rows = {"R3": [bx, by, bz], "S3": [bp, bx, by, bz], "H3": [bx, by, bz, bp]}[space.kind]
    ref = np.linalg.det(np.stack(rows, axis=-2))
    got = amb.volume_form(space, p, x, y, z)
    assert np.shape(got) == ref.shape
    # Hadamard: |det| is at most the product of the row norms
    scale = np.prod([np.linalg.norm(r, axis=-1) for r in rows], axis=0)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def _check_cofactor_against_det(a, b, c):
    # component k of the cofactor is det(e_k, a, b, c)
    rows = list(np.broadcast_arrays(a, b, c))
    ref = np.stack([np.linalg.det(np.stack([np.broadcast_to(e, rows[0].shape)] + rows,
                                           axis=-2)) for e in np.eye(4)], axis=-1)
    got = amb.cofactor(a, b, c)
    assert got.shape == ref.shape
    scale = np.prod([np.linalg.norm(r, axis=-1) for r in rows], axis=0)[..., None]
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("space", [amb.R3, amb.S3, amb.H3], ids=lambda s: s.kind)
def test_volume_form_matches_stacked_det(space, rng):
    d = space.dim
    p, x, y, z = (rng.standard_normal((7, 5, d)) for _ in range(4))
    _check_volume_form_against_det(space, p, x, y, z)
    # one base point for the whole batch, and single frames
    _check_volume_form_against_det(space, p[0, 0], x, y, z)
    _check_volume_form_against_det(space, p[0, 0], x[0, 0], y[0, 0], z[0, 0])
    # near-degenerate and degenerate frames
    _check_volume_form_against_det(space, p, x, y, 0.3 * x - y + 1e-12 * z)
    _check_volume_form_against_det(space, p, x, y, x)
    if d == 4:
        _check_volume_form_against_det(space, p, x, 2.0 * p + 1e-12 * y, z)
        # the cofactor vector of three rows, on the same batches
        _check_cofactor_against_det(p, x, y)
        _check_cofactor_against_det(p[0, 0], x, y)
        _check_cofactor_against_det(p[0, 0], x[0, 0], y[0, 0])
        _check_cofactor_against_det(p, x, 0.3 * x - p + 1e-12 * y)
        _check_cofactor_against_det(p, x, x)


def test_exp_map_examples():
    p = np.array([0.3, -0.2, 1.0])
    w = np.array([1.0, 2.0, 3.0])
    assert np.allclose(amb.exp_map(amb.R3, p, w, 0.5), p + 0.5 * w)
    ps = np.array([1.0, 0, 0, 0])
    ws = np.array([0.0, 1.0, 0, 0])
    assert np.allclose(amb.exp_map(amb.S3, ps, ws, np.pi / 2),
                       [0.0, 1.0, 0, 0], atol=1e-15)
    pt = np.array([0.9, 0.0, 0.0])
    wt = np.array([1.0, 0.0, 0.0])
    assert np.allclose(amb.exp_map(amb.FLAT_T3, pt, wt, 0.2), [0.1, 0.0, 0.0])


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_exp_map_unit_speed(space, rng):
    p = _random_point(space, rng)
    w = _random_tangent(space, p, rng)
    speed = np.sqrt(amb.inner(space, w, w))
    dt = 1e-5
    for t in (0.0, 0.3, 0.8):
        if space.kind == "FlatT3":
            a = p + (t + dt) * w   # avoid wrap jumps in the difference
            b = p + (t - dt) * w
        else:
            a = amb.exp_map(space, p, w, t + dt)
            b = amb.exp_map(space, p, w, t - dt)
        vel = (a - b) / (2 * dt)
        assert abs(np.sqrt(amb.inner(space, vel, vel)) - speed) < 1e-7 * max(1, speed)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_exp_velocity_and_directional_match_fd(space, rng):
    p = _random_point(space, rng)
    w = 0.7 * _random_tangent(space, p, rng)
    t, dt = 0.4, 1e-5
    if space.kind == "FlatT3":
        vel_fd = w
    else:
        vel_fd = (amb.exp_map(space, p, w, t + dt) - amb.exp_map(space, p, w, t - dt)) / (2 * dt)
    assert np.allclose(amb.exp_velocity(space, p, w, t), vel_fd, atol=1e-7)
    # directional derivative along a curve of base points and vectors
    dp = _random_tangent(space, p, rng)
    dw = rng.standard_normal(space.dim)
    eps = 1e-6

    def curve(s):
        ps = p + s * dp
        ws = w + s * dw
        if space.kind == "S3":
            ps = ps / np.linalg.norm(ps)
            ws = amb.project_tangent(space, ps, ws)
        elif space.kind == "H3":
            ps = ps.copy()
            ps[3] = np.sqrt(1.0 + ps[:3] @ ps[:3])
            ws = amb.project_tangent(space, ps, ws)
        return ps, ws

    (pp, wp), (pm, wm) = curve(eps), curve(-eps)
    dp_eff = (pp - pm) / (2 * eps)
    dw_eff = (wp - wm) / (2 * eps)
    if space.kind == "FlatT3":
        fd = (pp + t * wp - (pm + t * wm)) / (2 * eps)
    else:
        fd = (amb.exp_map(space, pp, wp, t) - amb.exp_map(space, pm, wm, t)) / (2 * eps)
    got = amb.exp_directional(space, p, w, t, dp_eff, dw_eff)
    assert np.allclose(got, fd, atol=1e-5)


def test_exp_directional_stable_at_zero_vector():
    p = np.array([1.0, 0, 0, 0])
    w = np.zeros(4)
    out = amb.exp_directional(amb.S3, p, w, 0.3, np.array([0.0, 1, 0, 0]),
                              np.array([0.0, 0, 1, 0]))
    assert np.all(np.isfinite(out))
