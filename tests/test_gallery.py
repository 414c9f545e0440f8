import json
import sys
import time
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


def test_gallery_members_cached():
    a = gal.gallery("sphere_r3", radius=1.0)
    b = gal.gallery("sphere_r3", radius=1.0)
    assert a is b
    c = gal.gallery("sphere_r3", radius=1.0, resolution=(32, 16))
    assert c is not a


def test_cache_bounded_in_place(monkeypatch):
    cache, locks = {}, {}
    monkeypatch.setattr(gal, "_CACHE", cache)
    monkeypatch.setattr(gal, "_KEY_LOCKS", locks)
    monkeypatch.setattr(gal, "_CACHE_CAP", 3)
    first = gal.gallery("sphere_r3", resolution=(16, 8))
    for nx in (18, 20, 22, 24):
        gal.gallery("sphere_r3", resolution=(nx, 8))
        assert len(cache) <= 3
    assert gal._CACHE is cache and len(cache) == 3
    assert set(locks) == set(cache)
    # the evicted oldest member is rebuilt equal on request
    again = gal.gallery("sphere_r3", resolution=(16, 8))
    assert again is not first and again.name == first.name
    for attr in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
        assert np.array_equal(getattr(again, attr), getattr(first, attr))
    assert again.reference == first.reference and len(cache) == 3


def test_concurrent_builds_share_one_profile(monkeypatch):
    monkeypatch.setattr(gal, "_CACHE", {})
    calls = []
    solve = gal.solve_profile

    def slow_solve(neck):
        calls.append(neck)
        time.sleep(0.05)      # let the other threads arrive meanwhile
        return solve(neck)

    monkeypatch.setattr(gal, "solve_profile", slow_solve)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            built = list(pool.map(
                lambda k: gal.gallery("delaunay_t3", k=k, resolution=(16, 16)),
                [1, 2, 1, 2], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert calls == [0.55]
    assert built[0] is built[2] and built[1] is built[3]


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
    assert imm is gal.gallery("sphere_s3", radius=0.9)


def test_every_member_is_cmc_and_conformal():
    for name in gal.gallery_names():
        kw = {"k": 1} if name == "delaunay_t3" else {}
        imm = gal.gallery(name, **kw)
        assert sf.conformality_residual(imm) < 1e-10, name
        assert sf.cmc_residual(imm) < 1e-6, name
        assert imm.branch_count == 0
        assert np.isfinite(imm.cmc_value)
