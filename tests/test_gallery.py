import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cmcindex import ambient as amb
from cmcindex import gallery as gal
from cmcindex import surfaces as sf


def test_unknown_surface_rejected():
    with pytest.raises(KeyError):
        gal.gallery("wente_torus")
    with pytest.raises(KeyError):
        gal.default_resolution("nope")


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        gal.gallery("sphere_r3", radius=-1.0)
    with pytest.raises(ValueError):
        gal.gallery("sphere_s3", radius=3.5)   # outside (0, pi)
    with pytest.raises(ValueError):
        gal.gallery("sphere_h3", radius=0.0)
    # rejected before any build, with the reason
    for value in (float("inf"), float("-inf"), float("nan")):
        for name in ("sphere_r3", "sphere_s3", "sphere_h3"):
            with pytest.raises(ValueError, match="finite"):
                gal.gallery(name, radius=value)
        with pytest.raises(ValueError, match="finite"):
            gal.gallery("delaunay_t3", neck=value)


def _parent_sphere(space, radius, resolution):
    """The S3 and H3 geodesic spheres as built by two separate functions
    before they were merged: (sin, cos) with the longitude flip on S3,
    (sinh, cosh) and the index_plus_nullity key on H3."""
    s3 = space is amb.S3
    sr, cr = (np.sin(radius), np.cos(radius)) if s3 else (np.sinh(radius), np.cosh(radius))

    def u(n):
        return np.concatenate([sr * n, np.full(n.shape[:-1] + (1,), cr)], axis=-1)

    def du(dn):
        return np.concatenate([sr * dn, np.zeros(dn.shape[:-1] + (1,))], axis=-1)

    ref = {
        "area_exact": float(4.0 * np.pi * sr ** 2),
        "h_exact": float(2.0 * cr / sr),
        "A2_exact": float(2.0 * (cr / sr) ** 2),
        "jacobi_index": 1, "jacobi_nullity": 3,
    }
    if not s3:
        ref["index_plus_nullity"] = 4
    name = f"sphere_{'s3' if s3 else 'h3'}(rho={radius})"
    return gal._make_sphere(space, (u, du), name, s3, resolution, ref,
                            float(2.0 * cr / sr))


@pytest.mark.parametrize("name, radius", [("sphere_s3", 0.9), ("sphere_s3", 2.2),
                                          ("sphere_h3", 0.8), ("sphere_h3", 1.7)])
def test_curved_spheres_bit_for_bit(name, radius):
    res = (24, 12)
    imm = gal.gallery(name, radius=radius, resolution=res)
    ref = _parent_sphere(amb.S3 if name == "sphere_s3" else amb.H3, radius, res)
    for attr in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
        assert np.array_equal(getattr(imm, attr), getattr(ref, attr)), attr
    assert np.array_equal(imm.cmc_value, ref.cmc_value)
    assert imm.name == ref.name
    assert imm.reference == ref.reference
    assert list(imm.reference) == list(ref.reference)


def _same_member(a, b) -> bool:
    return (a.name == b.name and a.reference == b.reference
            and all(np.array_equal(getattr(a, attr), getattr(b, attr))
                    for attr in ("u", "ux", "uy", "uxx", "uxy", "uyy")))


def test_gallery_members_built_afresh():
    a = gal.gallery("sphere_r3", radius=1.0)
    b = gal.gallery("sphere_r3", radius=1.0)
    assert a is not b and _same_member(a, b)
    c = gal.gallery("sphere_r3", radius=1.0, resolution=(32, 16))
    assert c.grid.nx == 32 and not _same_member(a, c)


def test_concurrent_builds_equal_serial_builds(monkeypatch):
    # no profile solved yet: the four threads race on the one neck ratio
    monkeypatch.setattr(gal, "_CACHE", {})
    args = [1, 2, 1, 2]

    def build(k):
        return gal.gallery("delaunay_t3", k=k, resolution=(16, 16))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            built = list(pool.map(build, args, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for k, imm in zip(args, built):
        assert _same_member(imm, build(k))


def test_reference_data_complete():
    imm = gal.gallery("sphere_h3")
    for key in ("area_exact", "h_exact", "A2_exact", "index_plus_nullity"):
        assert key in imm.reference
    assert imm.reference["index_plus_nullity"] == 4
    cl = gal.gallery("clifford_torus")
    assert (cl.reference["jacobi_index"], cl.reference["jacobi_nullity"]) == (5, 4)
    dl = gal.gallery("delaunay_t3", k=3)
    assert dl.reference["index_lower_bound"] == 4


def test_descriptor_json_stability():
    desc = {"kind": "sphere_s3", "params": {"radius": 0.9}, "resolution": [64, 48]}
    imm = gal.from_descriptor(json.loads(json.dumps(desc, sort_keys=True)))
    assert imm.name.startswith("sphere_s3")
    assert _same_member(imm, gal.gallery("sphere_s3", radius=0.9))


def test_every_member_is_cmc_and_conformal():
    for name in gal.gallery_names():
        kw = {"k": 1} if name == "delaunay_t3" else {}
        imm = gal.gallery(name, **kw)
        assert sf.conformality_residual(imm) < 1e-10, name
        assert sf.cmc_residual(imm) < 1e-6, name
        assert imm.branch_count == 0
        assert np.isfinite(imm.cmc_value)


_CHART = ("u", "ux", "uy", "uxx", "uxy", "uyy")


def _meshgrid_chart(imm, name, params):
    """The six chart arrays of ``imm`` as built before the factor form: the
    sphere direction field on a (x, theta) meshgrid, the Clifford torus
    stacked over ``grid.meshes()`` and the Delaunay torus assembled column
    by column."""
    g = imm.grid
    if name.startswith("sphere"):
        s = -1.0 if name == "sphere_s3" else 1.0
        x, th = np.meshgrid(g.x, g.theta, indexing="ij")
        sth, cth, cx, sx, z = np.sin(th), np.cos(th), np.cos(x), s * np.sin(x), 0 * x
        c2 = cth * cth - sth * sth
        n = [np.stack([sth * cx, sth * sx, cth], axis=-1),
             s * np.stack([-sth * sx, sth * cx, z], axis=-1),
             sth[..., None] * np.stack([cth * cx, cth * sx, -sth], axis=-1),
             np.stack([-sth * cx, -sth * sx, z], axis=-1),
             s * sth[..., None] * np.stack([-cth * sx, cth * cx, z], axis=-1),
             sth[..., None] * np.stack([c2 * cx, c2 * sx, -2.0 * sth * cth], axis=-1)]
        rho = params.get("radius", {"sphere_r3": 1.0, "sphere_s3": 0.9,
                                    "sphere_h3": 0.8}[name])
        if name == "sphere_r3":
            return [rho * a for a in n]
        sin, cos = (np.sin, np.cos) if name == "sphere_s3" else (np.sinh, np.cosh)
        return [np.concatenate([sin(rho) * a, np.full(a.shape[:-1] + (1,), c)], axis=-1)
                for a, c in zip(n, [cos(rho)] + [0.0] * 5)]
    if name == "clifford_torus":
        x, y = g.meshes()
        z = np.zeros_like(x)
        rt = 1.0 / np.sqrt(2.0)
        return [rt * np.stack(c, axis=-1) for c in (
            [np.cos(x), np.sin(x), np.cos(y), np.sin(y)], [-np.sin(x), np.cos(x), z, z],
            [z, z, -np.sin(y), np.cos(y)], [-np.cos(x), -np.sin(x), z, z], [z, z, z, z],
            [z, z, -np.cos(y), -np.sin(y)])]
    prof = gal._CACHE[params.get("neck", 0.55)]
    k = params.get("k", 1)
    c = 1.0 / (k * prof.x_period)
    wraps = np.floor(g.x / prof.t_period + 1e-13)
    x_prof, r, phi = prof.evaluate(g.x - wraps * prof.t_period)
    x_full = x_prof + wraps * prof.x_period
    ct, st, one = np.cos(g.y), np.sin(g.y), np.ones_like(g.y)
    cphi, sphi = np.cos(phi), np.sin(phi)

    def assemble(f_ax, f_rad, rot=(ct, st)):
        out = np.empty((g.nx, g.ny, 3))
        out[..., 0] = np.outer(f_ax, one)
        out[..., 1] = np.outer(f_rad, rot[0])
        out[..., 2] = np.outer(f_rad, rot[1])
        return out
    return [assemble(c * x_full, c * r), assemble(c * r * cphi, c * r * sphi),
            assemble(0.0 * x_full, c * r, (-st, ct)),
            assemble(c * r * r * sphi, c * (r - r * r * cphi)),
            assemble(0.0 * x_full, c * r * sphi, (-st, ct)),
            assemble(0.0 * x_full, c * r, (-ct, -st))]


@pytest.mark.parametrize("name, params, res", [
    ("sphere_r3", {"radius": 1.0}, (64, 48)), ("sphere_s3", {"radius": 0.9}, (64, 48)),
    ("sphere_h3", {"radius": 0.8}, (64, 48)), ("clifford_torus", {}, (64, 64)),
    ("delaunay_t3", {"k": 2, "neck": 0.55}, (64, 64)), ("delaunay_t3", {"k": 3}, (96, 32)),
    ("delaunay_t3", {"k": 1, "neck": 0.9}, (32, 32)),
    # the S3 longitude flip, with cos(rho) < 0
    ("sphere_s3", {"radius": 2.2}, (24, 12))])
def test_factor_jets_reproduce_meshgrid_charts(name, params, res):
    imm = gal.gallery(name, res, **params)
    for attr, want in zip(_CHART, _meshgrid_chart(imm, name, params)):
        got = getattr(imm, attr)
        if name.startswith("sphere"):
            # (sin th cos th) cos x rounds apart from sin th (cos th cos x)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), attr
        else:
            assert np.array_equal(got, want), attr
