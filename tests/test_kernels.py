"""The comparison-identity kernels against their reference formulas:
``(x * y).sum(-1)`` for ambient inner products, the meshgrid trig sum for
seeded torus fields, ``np.einsum`` for the quadratic part of seeded
sphere fields and the per-space S3 and H3 formulas for the tangent
projection, connection and geodesics must give the same floating-point
result element by element, signed zeros included.  Chart derivatives apply the ``axis_stencil``
matrices, whose summation order is BLAS's, so they are held to the
``np.roll`` stencils and pole padding within 1e-13 max|f| / h, with exact
zeros kept exact; the sphere d/dy is also held bit for bit to its matrix
formula with the flip factor restricted to its nonzero rows.  The eigenvector
sign normalization must equal its column-by-column loop bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from cmcindex import ambient as amb
from cmcindex import cli
from cmcindex import gallery as gal
from cmcindex import spectral as sp
from cmcindex import variations as vr
from cmcindex.grids import _C8, sphere_grid, torus_grid

STENCIL_HALF_WIDTH = 4
DIFF_RTOL = 1e-13


def _same_bits(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return (new.dtype == old.dtype and np.array_equal(new, old)
            and new.tobytes() == old.tobytes())


def _field(rng, shape, cplx):
    f = rng.standard_normal(shape)
    if cplx:
        f = f + 1j * rng.standard_normal(shape)
    f[rng.random(shape) < 0.1] = 0.0
    f[rng.random(shape) < 0.1] = -0.0
    if len(shape) >= 2:
        # a block of zeros of both signs, so that some stencil sums are zero
        block = f[:shape[0] * 2 // 3, :shape[1] * 3 // 4]
        block[...] = np.where(rng.random(block.shape) < 0.5, 0.0, -0.0)
    return f


def _ref_inner(space, x, y):
    if space.kind == "H3":
        return (x[..., :3] * y[..., :3]).sum(-1) - x[..., 3] * y[..., 3]
    return (x * y).sum(-1)


def _ref_sinhc(t):
    small = np.abs(t) < 1e-4
    ts = np.where(small, 1.0, t)
    return np.where(small, 1.0 + t * t / 6.0, np.sinh(ts) / ts)


def _ref_g2(space, t):
    small = np.abs(t) < 1e-3
    ts = np.where(small, 1.0, t)
    if space.kind == "S3":
        return np.where(small, -1.0 / 3.0 + t * t / 30.0,
                        (np.cos(ts) - np.sinc(ts / np.pi)) / (ts * ts))
    return np.where(small, 1.0 / 3.0 + t * t / 30.0,
                    (np.cosh(ts) - _ref_sinhc(ts)) / (ts * ts))


def _ref_project_tangent(space, p, w):
    if space.kind == "S3":
        return w - _ref_inner(space, w, p)[..., None] * p
    return w + _ref_inner(space, w, p)[..., None] * p


def _ref_covariant_correction(space, p, direction, v):
    if space.kind == "S3":
        return _ref_inner(space, direction, v)[..., None] * p
    return -_ref_inner(space, direction, v)[..., None] * p


def _ref_exp_map(space, p, w, t):
    th = t * np.sqrt(_ref_inner(space, w, w))
    if space.kind == "S3":
        return np.cos(th)[..., None] * p + (t * np.sinc(th / np.pi))[..., None] * w
    return np.cosh(th)[..., None] * p + (t * _ref_sinhc(th))[..., None] * w


def _ref_exp_velocity(space, p, w, t):
    th = t * np.sqrt(_ref_inner(space, w, w))
    w2 = _ref_inner(space, w, w)
    if space.kind == "S3":
        return (-t * w2 * np.sinc(th / np.pi))[..., None] * p + np.cos(th)[..., None] * w
    return (t * w2 * _ref_sinhc(th))[..., None] * p + np.cosh(th)[..., None] * w


def _ref_exp_directional(space, p, w, t, dp, dw):
    wdw = _ref_inner(space, w, dw)
    th = t * np.sqrt(_ref_inner(space, w, w))
    if space.kind == "S3":
        s = np.sinc(th / np.pi)
        return (np.cos(th)[..., None] * dp + (t * s)[..., None] * dw
                - (t * t * s * wdw)[..., None] * p
                + (t ** 3 * _ref_g2(space, th) * wdw)[..., None] * w)
    s = _ref_sinhc(th)
    return (np.cosh(th)[..., None] * dp + (t * s)[..., None] * dw
            + (t * t * s * wdw)[..., None] * p
            + (t ** 3 * _ref_g2(space, th) * wdw)[..., None] * w)


def _ref_roll_diff(f, axis, h):
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    for k, c in enumerate(_C8, start=1):
        out += c * (np.roll(f, -k, axis=axis) - np.roll(f, k, axis=axis))
    return out / h


def _ref_diff(grid, f, axis):
    if axis == 0:
        return _ref_roll_diff(f, 0, grid.hx)
    if grid.topology == "torus":
        return _ref_roll_diff(f, 1, grid.hy)
    m, nx, ny = STENCIL_HALF_WIDTH, grid.nx, grid.ny
    g = np.empty((nx, ny + 2 * m) + f.shape[2:], dtype=f.dtype)
    g[:, m:ny + m] = f
    rolled = np.roll(f, nx // 2, axis=0)
    g[:, :m] = rolled[:, m - 1::-1]
    g[:, ny + m:] = rolled[:, :ny - m - 1:-1]
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    for k, c in enumerate(_C8, start=1):
        out += c * (g[:, m + k:m + k + ny] - g[:, m - k:m - k + ny])
    shape = (1, ny) + (1,) * (f.ndim - 2)
    return np.sin(grid.theta).reshape(shape) * (out / grid.dtheta)


def _ref_random_scalar(imm, rng, degree=None, decay=0.3):
    g = imm.grid
    m = min(degree or 2, g.nx // 4, g.ny // 4)
    X, Y = g.meshes()
    xi = 2.0 * np.pi * (X - g.x_range[0]) / (g.x_range[1] - g.x_range[0])
    eta = 2.0 * np.pi * (Y - g.y_range[0]) / (g.y_range[1] - g.y_range[0])
    out = np.zeros_like(X)
    for j in range(m + 1):
        for k in range(m + 1):
            amp = decay ** (j + k)
            out += amp * rng.standard_normal() * np.cos(j * xi + rng.uniform(0, 2 * np.pi)) \
                * np.cos(k * eta + rng.uniform(0, 2 * np.pi))
    return out


def _ref_random_scalar_sphere(imm, rng, degree=None):
    p = imm.u
    deg = min(degree or 2, 2)
    out = rng.standard_normal() * np.ones(p.shape[:2])
    d = imm.space.dim
    if deg >= 1:
        out = out + p @ (0.6 * rng.standard_normal(d))
    if deg >= 2:
        coef2 = 0.35 * rng.standard_normal((d, d))
        out = out + np.einsum("...a,ab,...b->...", p, coef2, p)
    return out


def _ref_sphere_diff_y(grid, f):
    """Sphere d/dy: the interior factor on every chart line, then the flip
    factor restricted to its nonzero rows, each x half added to the
    antipodal one."""
    f = np.ascontiguousarray(f, dtype=np.result_type(f.dtype, np.float64))
    g = f.reshape(grid.nx, grid.ny, -1)
    if np.iscomplexobj(g):
        g = g.view(np.float64)
    P, Q = grid.axis_stencil(1, "diff")
    out = np.matmul(P, g)
    rows = np.flatnonzero(Q.any(axis=1))
    flipped, h = np.matmul(Q[rows], g), grid.nx // 2
    out[:h, rows] += flipped[h:]
    out[h:, rows] += flipped[:h]
    return out.view(f.dtype).reshape(f.shape)


def _ref_normalize_signs(vecs):
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.abs(col) > 1e-8 * np.abs(col).max()
        k = int(np.argmax(big))
        if col[k] < 0:
            out[:, j] = -col
    return out


def _synthetic_columns():
    """All-zero columns of both signs, leading entries below 1e-8 max (one at
    the threshold exactly), first large entry negative or positive, and
    signed zeros throughout; each with its negation."""
    cols = np.array([
        [0.0] * 8,
        [-0.0] * 8,
        [1e-10, -2e-9, -0.0, 0.0, -3.0, 2.0, -0.0, 1.0],
        [-1e-8, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 0.5],
        [-0.0, 3e-8, -1.0, 0.0, -0.0, 0.25, -0.0, 1.0],
        [-5e-300, 0.0, -0.0, -0.0, -7.0, 0.0, 7.0, -0.0],
        [-2.0, -0.0, 0.0, 1e-12, -0.0, 0.0, 2.0, -0.0],
    ]).T
    return np.concatenate([cols, -cols], axis=1)


def _check_inner(space, cplx):
    rng = np.random.default_rng(11)
    for shape in ((24, 16), (5,), ()):
        x = _field(rng, shape + (space.dim,), cplx)
        y = _field(rng, shape + (space.dim,), False)
        if shape:
            x[0] = -0.0  # all-zero products: the sign of a zero sum
        for other in (y, -y, x.conj()):
            assert _same_bits(amb.inner(space, x, other), _ref_inner(space, x, other))


def _points(space, rng, n):
    p = 0.6 * rng.standard_normal((n, 4))
    if space.kind == "S3":
        return p / np.sqrt((p * p).sum(-1))[:, None]
    p[:, 3] = np.sqrt(1.0 + (p[:, :3] ** 2).sum(-1))
    return p


def _check_connection(space, cplx):
    rng = np.random.default_rng(13)
    p = _points(space, rng, 40)
    w = _field(rng, p.shape, cplx)
    assert _same_bits(amb.project_tangent(space, p, w), _ref_project_tangent(space, p, w))
    real = _field(rng, p.shape, False)
    for direction in (real, -real, w.conj()):
        assert _same_bits(amb.covariant_correction(space, p, direction, w),
                          _ref_covariant_correction(space, p, direction, w))


# |w| of unit tangent vectors: zero, below the 1e-4 (sinhc) and 1e-3 (g2)
# small-angle switches, between and above them
W_SCALES = (0.0, -0.0, 3e-5, 2e-4, 8e-4, 2e-3, 0.4, 1.7)


def _check_geodesics(space):
    rng = np.random.default_rng(14)
    n = 8 * len(W_SCALES)
    p = _points(space, rng, n)
    w = _ref_project_tangent(space, p, rng.standard_normal((n, 4)))
    w /= np.sqrt(_ref_inner(space, w, w))[:, None]
    w *= np.resize(W_SCALES, n)[:, None]
    dp = _ref_project_tangent(space, p, rng.standard_normal((n, 4)))
    dw = rng.standard_normal((n, 4))
    for t in (1.0, 0.7, -1.3):
        for new, old in ((amb.exp_map(space, p, w, t), _ref_exp_map(space, p, w, t)),
                         (amb.exp_velocity(space, p, w, t),
                          _ref_exp_velocity(space, p, w, t)),
                         (amb.exp_directional(space, p, w, t, dp, dw),
                          _ref_exp_directional(space, p, w, t, dp, dw))):
            assert np.isfinite(old).all()
            assert _same_bits(new, old)


def _check_diff(grid, axis, cplx, trailing, strided=False):
    rng = np.random.default_rng(12)
    shape = (grid.nx, grid.ny) + trailing
    if strided:
        f = _field(rng, shape[:-1] + (2 * shape[-1],), cplx)[..., ::2]
    else:
        f = _field(rng, shape, cplx)
    new = grid.diff_x(f) if axis == 0 else grid.diff_y(f)
    ref = _ref_diff(grid, f, axis)
    h = grid.hx if axis == 0 else (grid.dtheta if grid.topology == "sphere" else grid.hy)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.abs(new - ref).max() <= DIFF_RTOL * np.abs(f).max() / h
    assert not new[ref == 0].any()


def _check_random_scalar(kind, params, resolution):
    imm = gal.gallery(kind, resolution=resolution, **params)
    ref = _ref_random_scalar if imm.grid.topology == "torus" else _ref_random_scalar_sphere
    for seed in range(5 if imm.grid.topology == "torus" else 40):
        for degree in (None, 1, 3):
            new = vr.random_scalar(imm, np.random.default_rng(seed), degree=degree)
            old = ref(imm, np.random.default_rng(seed), degree=degree)
            assert _same_bits(new, old)


def _check_sphere_diff_y(res, cplx):
    grid = sphere_grid(*res)
    rng = np.random.default_rng(31)
    for trailing in ((), (4,)):
        f = _field(rng, res + trailing, cplx)
        assert _same_bits(grid.diff_y(f), _ref_sphere_diff_y(grid, f))


def _check_normalize_signs(desc):
    op = sp.assemble_jacobi(gal.from_descriptor(desc))
    vecs = sp._block_eigen(op, 12, True)[1]
    for v in (vecs, -vecs, _synthetic_columns()):
        assert _same_bits(sp._normalize_signs(v), _ref_normalize_signs(v))


DIFF_GRIDS = (torus_grid(24, 16, 1.3, 0.7), sphere_grid(16, 12))

CASES = (
    [pytest.param(_check_inner, (space, cplx),
                  id=f"inner-{space.kind}-{'complex' if cplx else 'real'}")
     for space in (amb.R3, amb.S3, amb.H3) for cplx in (False, True)]
    + [pytest.param(_check_connection, (space, cplx),
                    id=f"connection-{space.kind}-{'complex' if cplx else 'real'}")
       for space in (amb.S3, amb.H3) for cplx in (False, True)]
    + [pytest.param(_check_geodesics, (space,), id=f"geodesics-{space.kind}")
       for space in (amb.S3, amb.H3)]
    + [pytest.param(_check_diff, (grid, axis, cplx, (4,) if vector else ()),
                    id=f"diff_{'xy'[axis]}-{grid.topology}-"
                       f"{'complex' if cplx else 'real'}-{'vector' if vector else 'scalar'}")
       for grid in DIFF_GRIDS
       for axis in (0, 1) for cplx in (False, True) for vector in (False, True)]
    + [pytest.param(_check_diff, (grid, axis, True, trailing, strided),
                    id=f"diff_{'xy'[axis]}-{grid.topology}-complex-{name}")
       for grid in DIFF_GRIDS for axis in (0, 1)
       for name, trailing, strided in (("matrix", (3, 2), False), ("strided", (4,), True))]
    + [pytest.param(_check_random_scalar, (kind, params, res), id=f"random_scalar-{kind}")
       for kind, params, res in [("clifford_torus", {}, (32, 24)),
                                 ("delaunay_t3", {"k": 2, "neck": 0.55}, (48, 24)),
                                 ("sphere_r3", {}, (64, 48)),
                                 ("sphere_s3", {"radius": 0.9}, (64, 48)),
                                 ("sphere_h3", {"radius": 0.8}, (32, 24))]]
    + [pytest.param(_check_sphere_diff_y, (res, cplx),
                    id=f"diff_y-flip_rows-{res[0]}x{res[1]}-{'complex' if cplx else 'real'}")
       for res in ((16, 12), (64, 48)) for cplx in (False, True)]
    + [pytest.param(_check_normalize_signs, (desc,), id=f"normalize_signs-{desc['kind']}")
       for desc in cli._SPECTRUM_DEFAULTS]
)


@pytest.mark.parametrize("check,args", CASES)
def test_kernel_matches_reference_formula_bit_for_bit(check, args):
    check(*args)


@pytest.mark.parametrize("kind,params,res", [("clifford_torus", {}, (32, 24)),
                                              ("sphere_s3", {"radius": 0.9}, (64, 48))],
                         ids=["clifford_torus", "sphere_s3"])
def test_seeded_variation_matches_reference_loop(kind, params, res):
    """``seeded_variation`` draws its d scalar fields in one call; the field
    equals d reference fields drawn in turn from one generator, bit for
    bit."""
    imm = gal.gallery(kind, resolution=res, **params)
    torus = imm.grid.topology == "torus"
    ref = _ref_random_scalar if torus else _ref_random_scalar_sphere
    kw = {"decay": vr._VARIATION_DECAY} if torus else {}
    for seed in (0, 7, 697501 * 100003 + 5):
        rng = np.random.default_rng(seed)
        comps = [ref(imm, rng, **kw) for _ in range(imm.space.dim)]
        old = vr.VariationField(imm, np.stack(comps, axis=-1)).v
        assert _same_bits(vr.seeded_variation(imm, seed).v, old)
