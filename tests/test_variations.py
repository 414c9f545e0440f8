import dataclasses
import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cmcindex import ambient as amb
from cmcindex import gallery as gal
from cmcindex import span
from cmcindex import variations as vr

SEEDS = (11, 12, 13)


def _ones(imm):
    return np.ones(imm.u.shape[:2])


# ------------------------------------------------------------------ splitting

@pytest.mark.parametrize("name", ["sphere_s3", "clifford_torus", "delaunay_t3"])
def test_split_invariants(name):
    kw = {"k": 2} if name == "delaunay_t3" else {}
    imm = gal.gallery(name, **kw)
    vf = vr.seeded_variation(imm, 4)
    sp = imm.space
    assert np.abs(vf.sigma + vf.s - vf.v).max() < 1e-12
    assert np.abs(amb.inner(sp, vf.sigma, imm.nu)).max() < 1e-12
    assert np.abs(amb.inner(sp, vf.s, imm.ux)).max() < 1e-12
    assert np.abs(amb.inner(sp, vf.s, imm.uy)).max() < 1e-12
    # complex split recomposes sigma
    inv = (1.0 / imm.e2lam)[..., None]
    s01 = 2.0 * inv * amb.inner(sp, vf.sigma, imm.uz)[..., None] * imm.uzbar
    s10 = 2.0 * inv * amb.inner(sp, vf.sigma, imm.uzbar)[..., None] * imm.uz
    assert np.abs((s01 + s10) - vf.sigma).max() < 1e-12


def test_variation_tangency_enforced():
    imm = gal.gallery("sphere_s3")
    raw = np.ones(imm.u.shape[:2] + (4,))
    vf = vr.VariationField(imm, raw)
    assert np.abs(amb.inner(imm.space, vf.v, imm.u)).max() < 1e-12


def test_seeded_variation_roundtrip():
    # the seed is the whole recipe: equal seeds, equal bits
    imm = gal.gallery("clifford_torus")
    vf = vr.seeded_variation(imm, 123)
    assert np.array_equal(vr.seeded_variation(imm, 123).v, vf.v)
    assert np.abs(vr.seeded_variation(imm, 124).v - vf.v).max() > 1e-3


# ------------------------------------------------------------- conformal defect

@pytest.mark.parametrize("name", ["clifford_torus", "sphere_r3"])
def test_random_scalar_degree_zero_is_constant(name):
    """Degree 0 is the constant field on both charts, an integer of any
    type is accepted, and a negative or non-integer degree is refused."""
    imm = gal.gallery(name, resolution=(32, 24))
    for seed in range(3):
        f = vr.random_scalar(imm, np.random.default_rng(seed), degree=0)
        assert f.shape == (32, 24) and np.all(f == f[0, 0]) and f[0, 0] != 0
    assert np.array_equal(vr.random_scalar(imm, np.random.default_rng(1), degree=np.int64(1)),
                          vr.random_scalar(imm, np.random.default_rng(1), degree=1))
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(ValueError, match="degree"):
            vr.random_scalar(imm, np.random.default_rng(0), degree=bad)


def test_defect_zero_for_zero_variation():
    imm = gal.gallery("clifford_torus")
    d = vr.conformal_defect(imm, np.zeros_like(imm.u))
    assert d.integral_chart == 0.0


def test_defect_zero_for_normal_variation_on_umbilic_sphere():
    imm = gal.gallery("sphere_r3")
    rng = np.random.default_rng(0)
    f = vr.random_scalar(imm, rng)
    d = vr.conformal_defect(imm, vr.normal_variation(imm, f))
    assert d.integral_chart < 1e-20


def test_defect_zero_for_parallel_tangential_field_on_clifford():
    imm = gal.gallery("clifford_torus")
    v = 0.7 * imm.ux + 0.3 * imm.uy
    d = vr.conformal_defect(imm, v)
    assert np.abs(d.density).max() < 1e-16


def test_defect_two_densities_agree():
    imm = gal.gallery("delaunay_t3", k=2)
    d = vr.conformal_defect(imm, vr.seeded_variation(imm, 7))
    assert abs(d.integral_chart - d.integral_surface) <= 1e-10 * max(1, d.integral_chart)
    assert np.all(d.density >= 0)


# --------------------------------------------------------- closed-form values

def test_sphere_closed_form_second_variations():
    imm = gal.gallery("sphere_r3")
    nu = vr.normal_variation(imm, _ones(imm))
    assert abs(vr.second_variation_area(imm, nu) - 8 * np.pi) < 1e-9
    assert abs(vr.second_variation_volume(imm, nu, imm.cmc_value) + 16 * np.pi) < 1e-9
    assert abs(vr.second_variation_area_h(imm, nu) + 8 * np.pi) < 1e-9


def test_first_variations_closed_forms_and_criticality():
    imm = gal.gallery("sphere_r3")
    nu = vr.normal_variation(imm, _ones(imm))
    da = vr.first_variation_area(imm, nu)
    dv = vr.first_variation_volume(imm, nu, imm.cmc_value)
    assert abs(da + 8 * np.pi) < 1e-9
    assert abs(dv - 8 * np.pi) < 1e-9
    # minimal Clifford torus: dA = 0 for every variation
    cl = gal.gallery("clifford_torus")
    for s in SEEDS:
        assert abs(vr.first_variation_area(cl, vr.seeded_variation(cl, s))) < 1e-10
    # CMC criticality of A_h on the Delaunay torus
    dl = gal.gallery("delaunay_t3", k=2)
    for s in SEEDS:
        vf = vr.seeded_variation(dl, s)
        resid = (vr.first_variation_area(dl, vf)
                 + vr.first_variation_volume(dl, vf, dl.cmc_value))
        assert abs(resid) < 1e-6 * max(1.0, abs(vr.first_variation_area(dl, vf)))


def test_volume_zero_variation_trivial():
    imm = gal.gallery("sphere_r3")
    z = np.zeros_like(imm.u)
    assert vr.second_variation_area(imm, z) == 0.0
    assert vr.second_variation_energy(imm, z) == 0.0
    assert vr.second_variation_volume(imm, z, imm.cmc_value) == 0.0
    assert vr.fd_second_variation("energy", imm, z) == 0.0
    assert vr.first_variation_area(imm, z) == 0.0


def test_constant_weight_matches_normal_route():
    # sigma = 0, s = f nu, H == h: d2V = -int h^2 f^2 (paper's corollary route)
    imm = gal.gallery("sphere_s3")
    rng = np.random.default_rng(1)
    f = vr.random_scalar(imm, rng)
    got = vr.second_variation_volume(imm, vr.normal_variation(imm, f), imm.cmc_value)
    expect = -imm.cmc_value ** 2 * imm.integrate(f * f)
    assert abs(got - expect) < 1e-8 * max(1, abs(expect))


# ------------------------------------------------------------------ identities

@pytest.mark.parametrize("name,kw,res", [
    ("sphere_r3", {}, (64, 48)),
    ("sphere_s3", {}, (64, 48)),
    ("sphere_h3", {}, (64, 48)),
    ("clifford_torus", {}, (64, 64)),
    ("delaunay_t3", {"k": 2}, (64, 64)),
])
def test_comparison_identity_and_refinement(name, kw, res):
    imm = gal.gallery(name, resolution=res, **kw)
    fine = gal.gallery(name, resolution=(2 * res[0], 2 * res[1]), **kw)
    worst = worst_f = 0.0
    for s in SEEDS:
        worst = max(worst, vr.comparison_identity_residual(
            imm, vr.seeded_variation(imm, s))["residual_rel"])
        worst_f = max(worst_f, vr.comparison_identity_residual(
            fine, vr.seeded_variation(fine, s))["residual_rel"])
    assert worst < 1e-6
    assert worst_f < worst / 4
    assert worst_f > 1e-14  # above roundoff: the decrease is genuine


def test_area_hessian_below_energy_hessian():
    imm = gal.gallery("delaunay_t3", k=2)
    for s in SEEDS:
        rep = vr.comparison_identity_residual(imm, vr.seeded_variation(imm, s))
        assert rep["defect_chart"] >= 0
        assert rep["d2_area"] <= rep["d2_energy"] + 1e-9


def test_quadratic_homogeneity():
    imm = gal.gallery("clifford_torus")
    vf = vr.seeded_variation(imm, 21)
    base = {
        "area": vr.second_variation_area(imm, vf),
        "energy": vr.second_variation_energy(imm, vf),
        "volume": vr.second_variation_volume(imm, vf, 1.7),
        "area_h": vr.second_variation_area_h(imm, vf),
        "energy_h": vr.second_variation_energy_h(imm, vf),
    }
    for c in (-1.0, 2.0, 3.7):
        scaled = vr.VariationField(imm, c * vf.v)
        vals = {
            "area": vr.second_variation_area(imm, scaled),
            "energy": vr.second_variation_energy(imm, scaled),
            "volume": vr.second_variation_volume(imm, scaled, 1.7),
            "area_h": vr.second_variation_area_h(imm, scaled),
            "energy_h": vr.second_variation_energy_h(imm, scaled),
        }
        for k in base:
            assert abs(vals[k] - c * c * base[k]) < 1e-12 * max(1, abs(base[k])), k


@pytest.mark.parametrize("name,kw", [
    ("sphere_r3", {}), ("sphere_s3", {}), ("clifford_torus", {}),
    ("delaunay_t3", {"k": 2}),
])
def test_normal_part_reduction_on_cmc(name, kw):
    imm = gal.gallery(name, **kw)
    for s in SEEDS:
        vf = vr.seeded_variation(imm, s)
        full = vr.second_variation_area_h(imm, vf)
        norm = vr.second_variation_area_h(imm, vr.VariationField(imm, vf.s))
        assert abs(full - norm) < 1e-4 * max(1.0, abs(full))
    # purely tangential variations are annihilated
    vf = vr.seeded_variation(imm, 99)
    tang = vr.VariationField(imm, vf.sigma)
    assert abs(vr.second_variation_area_h(imm, tang)) < 1e-4 * max(
        1.0, abs(vr.second_variation_area(imm, tang)))


def _energy_curvature_split(imm, vf):
    """Complex and real curvature integrands of the energy Hessian,
    (4 Rm(v, u_z, u_zbar, v), Rm(v, u_x, u_x, v) + Rm(v, u_y, u_y, v)): the
    two agree identically, which cross-checks the complex-bilinear
    extension of the curvature tensor."""
    sp = imm.space
    cplx = 4.0 * amb.riemann(sp, imm.u, vf.v.astype(complex), imm.uz,
                             imm.uzbar, vf.v.astype(complex))
    real = (amb.riemann(sp, imm.u, vf.v, imm.ux, imm.ux, vf.v)
            + amb.riemann(sp, imm.u, vf.v, imm.uy, imm.uy, vf.v))
    return cplx, real


def test_energy_complex_and_real_curvature_terms_agree():
    for name, kw in (("sphere_s3", {}), ("delaunay_t3", {"k": 2})):
        imm = gal.gallery(name, **kw)
        vf = vr.seeded_variation(imm, 31)
        cplx, real = _energy_curvature_split(imm, vf)
        assert np.abs(cplx.imag).max() < 1e-10 * max(1, np.abs(real).max())
        assert np.abs(cplx.real - real).max() < 1e-10 * max(1, np.abs(real).max())


def test_flat_ambient_energy_is_pure_dirichlet():
    imm = gal.gallery("delaunay_t3", k=2)
    vf = vr.seeded_variation(imm, 17)
    _, real = _energy_curvature_split(imm, vf)
    assert np.abs(real).max() == 0.0


# ------------------------------------------------------------------ fd oracles

def test_fd_oracle_sphere_closed_forms():
    imm = gal.gallery("sphere_r3")
    nu = vr.normal_variation(imm, _ones(imm))
    assert abs(vr.fd_second_variation("area", imm, nu) - 8 * np.pi) < 1e-6
    assert abs(vr.fd_second_variation("volume_h", imm, nu) + 16 * np.pi) < 1e-6
    assert abs(vr.fd_second_variation("area_h", imm, nu) + 8 * np.pi) < 1e-6


@pytest.mark.parametrize("name,kw", [
    ("sphere_r3", {}), ("sphere_s3", {}), ("sphere_h3", {}),
    ("clifford_torus", {"resolution": (64, 64)}),
    ("delaunay_t3", {"k": 2, "resolution": (64, 64)}),
])
def test_fd_oracle_matches_formulas(name, kw):
    imm = gal.gallery(name, **kw)
    for s in SEEDS:
        vf = vr.seeded_variation(imm, 200 + s)
        for fn, form in (("area", vr.second_variation_area(imm, vf)),
                         ("energy", vr.second_variation_energy(imm, vf)),
                         ("volume_h", vr.second_variation_volume(imm, vf, imm.cmc_value)),
                         ("area_h", vr.second_variation_area_h(imm, vf)),
                         ("energy_h", vr.second_variation_energy_h(imm, vf))):
            fd = vr.fd_second_variation(fn, imm, vf)
            assert abs(form - fd) < 1e-4 * max(1.0, abs(form)), (name, fn)


def test_fd_oracle_gap_decreases_under_refinement():
    gaps = []
    for res in ((48, 48), (96, 96)):
        imm = gal.gallery("clifford_torus", resolution=res)
        vf = vr.seeded_variation(imm, 77)
        form = vr.second_variation_area(imm, vf)
        gaps.append(abs(form - vr.fd_second_variation("area", imm, vf))
                    / max(1.0, abs(form)))
    assert gaps[0] > 4.0 * gaps[1]
    assert gaps[1] > 1e-13  # still genuine truncation, not roundoff


def _deformed_frame(imm, vf, t):
    """Position and chart partials of exp_u(t v) = u + t v on an R3
    immersion."""
    dxv, dyv = vf._chart_partials()
    return imm.u + t * vf.v, imm.ux + t * dxv, imm.uy + t * dyv


def _volume_primitive_r3(imm, vf, t):
    """V_h(exp_u(t v)) from the explicit global primitive in R^3:
    alpha_h = (h/3)(x1 dx2^dx3 - x2 dx1^dx3 + x3 dx1^dx2) pulls back to
    (h/3) det(p, p_x, p_y) dx dy."""
    p, a, b = _deformed_frame(imm, vf, t)
    det = amb.volume_form(amb.R3, None, p, a, b)
    return float(imm.integrate_chart(imm.cmc_value / 3.0 * det))


def test_r3_primitive_volume_path_agrees():
    # second difference of the explicit primitive = flux-difference oracle
    imm = gal.gallery("sphere_r3")
    vf = vr.seeded_variation(imm, 41)
    step = 1e-3 / vf.norm_inf()
    f0 = _volume_primitive_r3(imm, vf, 0.0)

    def d2(h):
        return (-_volume_primitive_r3(imm, vf, 2 * h)
                + 16 * _volume_primitive_r3(imm, vf, h) - 30 * f0
                + 16 * _volume_primitive_r3(imm, vf, -h)
                - _volume_primitive_r3(imm, vf, -2 * h)) / (12 * h * h)

    prim = (16 * d2(step / 2) - d2(step)) / 15
    flux = vr.fd_second_variation("volume_h", imm, vf)
    form = vr.second_variation_volume(imm, vf, imm.cmc_value)
    assert abs(prim - flux) < 1e-6 * max(1, abs(form))
    assert abs(prim - form) < 1e-4 * max(1, abs(form))


def test_volume_hessian_with_nonconstant_weight():
    # dalpha = p3 dV on R^3 has primitive alpha = (p3^2/2) dx1 ^ dx2; compare
    # its literal second difference against the Hessian with gradient term.
    imm = gal.gallery("sphere_r3")
    vf = vr.seeded_variation(imm, 43)

    def v_alpha(t):
        p, a, b = _deformed_frame(imm, vf, t)
        det2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        return float(imm.integrate_chart(0.5 * p[..., 2] ** 2 * det2))

    form = vr.second_variation_volume(
        imm, vf, lambda p: p[..., 2],
        grad_h_fn=lambda p: np.broadcast_to(np.array([0.0, 0.0, 1.0]), p.shape))
    fd = vr._second_difference(v_alpha, 1e-3 / vf.norm_inf())
    assert abs(form - fd) < 1e-4 * max(1.0, abs(form))


def test_chart_exit_guard():
    imm = gal.gallery("sphere_s3")
    vf = vr.normal_variation(imm, 100.0 * _ones(imm))
    for _ in range(2):
        with pytest.raises(vr.ChartExitError):
            vr.fd_second_variation("area", imm, vf, step=0.05)
    # only the t = 0 frame, built before the first failing one, is memoised
    assert list(vf._fd_memo) == [0.0]


# The direct-frame route: one deformed frame for every functional and every
# difference term, built from the public exp maps, each frame with its own
# stencils of v.  The oracle's per-field frame data must reproduce its
# integrals to roundoff.

def _frame_per_call(imm, vf, t):
    sp, v = imm.space, vf.v
    dxv = imm.grid.diff_x(v)
    dyv = imm.grid.diff_y(v)
    if sp.kind == "S3" and abs(t) * vf.norm_inf() > 0.5 * np.pi:
        raise vr.ChartExitError("geodesic deformation exceeds the S3 chart range")
    if sp.kind == "FlatT3":
        return imm.u + t * v, imm.ux + t * dxv, imm.uy + t * dyv
    p = amb.exp_map(sp, imm.u, v, t)
    a = amb.exp_directional(sp, imm.u, v, t, imm.ux, dxv)
    b = amb.exp_directional(sp, imm.u, v, t, imm.uy, dyv)
    return p, a, b


def _area_per_call(imm, vf, t):
    p, a, b = _frame_per_call(imm, vf, t)
    sp = imm.space
    g11 = amb.inner(sp, a, a)
    g22 = amb.inner(sp, b, b)
    g12 = amb.inner(sp, a, b)
    return float(imm.integrate_chart(np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 0.0))))


def _energy_per_call(imm, vf, t):
    _, a, b = _frame_per_call(imm, vf, t)
    sp = imm.space
    return float(imm.integrate_chart(0.5 * (amb.inner(sp, a, a) + amb.inner(sp, b, b))))


def _flux_per_call(imm, vf, t, hval):
    p, a, b = _frame_per_call(imm, vf, t)
    sp = imm.space
    vel = vf.v if sp.kind in ("R3", "FlatT3") else amb.exp_velocity(sp, imm.u, vf.v, t)
    return float(imm.integrate_chart(hval * amb.volume_form(sp, p, vel, a, b)))


def _default_step(imm, vf, step=None):
    if step is not None:
        return step
    vmax = float(np.sqrt(amb.inner(imm.space, vf.v, vf.v)).max())
    inj = np.pi if imm.space.kind == "S3" else 1.0
    return 1e-3 * max(1.0, inj) / vmax


def _fd_route(functional, step, area, energy, flux):
    """The oracle's difference stencils over per-t value functions."""
    second = {"area": area, "energy": energy}

    def d2(kind):
        return vr._second_difference(second[kind], step)

    if functional in second:
        return d2(functional)
    if functional == "volume_h":
        return vr._first_difference(flux, step)
    return d2(functional[:-2]) + vr._first_difference(flux, step)


def _fd_per_call(functional, imm, vf, step=None):
    return _fd_route(functional, _default_step(imm, vf, step),
                     lambda t: _area_per_call(imm, vf, t),
                     lambda t: _energy_per_call(imm, vf, t),
                     lambda t: _flux_per_call(imm, vf, t, imm.cmc_value))


def _fd_fresh_fields(functional, imm, seed, step=None):
    # every difference term reads a fresh field, so an empty memo
    def value(k):
        return lambda t: vr._fd_values(vr._FrameData(vr.seeded_variation(imm, seed)), t)[k]
    step = _default_step(imm, vr.seeded_variation(imm, seed), step)
    return _fd_route(functional, step, value(0), value(1), value(2))


SMALL_GALLERY = [("sphere_r3", {"resolution": (32, 16)}),
                 ("sphere_s3", {"resolution": (32, 16)}),
                 ("sphere_h3", {"resolution": (32, 16)}),
                 ("clifford_torus", {"resolution": (24, 24)}),
                 ("delaunay_t3", {"k": 2, "resolution": (32, 16)})]


@pytest.mark.parametrize("name,kw", SMALL_GALLERY, ids=[c[0] for c in SMALL_GALLERY])
def test_fd_memo_equals_per_call_route(name, kw):
    imm = gal.gallery(name, **kw)
    shared = vr.seeded_variation(imm, 61)
    for step in (None, 2e-3):
        for fn in vr.FUNCTIONALS:
            ref = _fd_fresh_fields(fn, imm, 61, step)
            # a field whose frames are already memoised by earlier oracles,
            # and a fresh one
            assert vr.fd_second_variation(fn, imm, shared, step=step) == ref, (fn, step)
            fresh = vr.seeded_variation(imm, 61)
            assert vr.fd_second_variation(fn, imm, fresh, step=step) == ref, (fn, step)


@pytest.mark.parametrize("name,kw", SMALL_GALLERY, ids=[c[0] for c in SMALL_GALLERY])
def test_fd_values_match_direct_frames(name, kw):
    imm = gal.gallery(name, **kw)
    vf = vr.seeded_variation(imm, 61)
    h = imm.cmc_value

    def close(got, ref):
        return abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    for step in (_default_step(imm, vf), 2e-3):
        for t in (0.0, step / 2, -step / 2, step, -step, 2 * step, -2 * step):
            area, energy, flux = vr._fd_values(vr._FrameData(vf), t)
            assert close(area, _area_per_call(imm, vf, t)), (step, t)
            assert close(energy, _energy_per_call(imm, vf, t)), (step, t)
            if t == 0.0:
                assert flux is None
            else:
                assert close(flux, _flux_per_call(imm, vf, t, h)), (step, t)


def test_fd_oracles_share_frames(monkeypatch):
    imm = gal.gallery("sphere_s3", resolution=(32, 16))
    vf = vr.seeded_variation(imm, 62)
    ts, sincs = [], []
    exp_map, sinc = amb.exp_map, amb._sinc
    monkeypatch.setattr(amb, "exp_map", lambda sp, p, w, t: ts.append(t) or exp_map(sp, p, w, t))
    monkeypatch.setattr(amb, "_sinc", lambda th: sincs.append(th) or sinc(th))
    for fn in ("area", "energy", "volume_h"):
        vr.fd_second_variation(fn, imm, vf)
    # one frame per distinct t: 0, +-step/2, +-step, +-2 step, each with one
    # evaluation of the geodesic coefficients
    assert len(vf._fd_memo) == 7
    assert len(sincs) == 7
    sincs.clear()
    for fn in ("area", "energy", "volume_h"):
        _fd_per_call(fn, imm, vf)
    # 9 + 9 + 8 frames built one per difference term, with one evaluation in
    # exp_map and in each exp_directional, and one more in exp_velocity on
    # the 8 flux frames
    assert len(ts) == 26
    assert len(sincs) == 3 * 26 + 8


def test_fd_frame_data_built_once_per_field(monkeypatch):
    # the t-independent frame data is built once for all five oracles on
    # one field, not per t: four volume forms dV_N(u; v, X, Y), which share
    # the 2x2 minors of (u, v) (five sets of minors in all), and one
    # evaluation of the geodesic coefficients for each of the seven t
    imm = gal.gallery("sphere_s3", resolution=(32, 16))
    vf = vr.seeded_variation(imm, 63)
    forms, minors, coefficients = [], [], []
    laplace, minors_of, coeff = amb._laplace, amb._minors, amb._coefficients
    monkeypatch.setattr(amb, "_laplace", lambda *args: forms.append(1) or laplace(*args))
    monkeypatch.setattr(amb, "_minors", lambda *args: minors.append(1) or minors_of(*args))
    monkeypatch.setattr(amb, "_coefficients",
                        lambda space: coefficients.append(1) or coeff(space))
    for fn in vr.FUNCTIONALS:
        vr.fd_second_variation(fn, imm, vf)
    assert len(forms) == 4
    assert len(minors) == 5
    assert len(coefficients) == 7


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf, -np.inf])
def test_fd_step_must_be_finite_and_positive(step):
    imm = gal.gallery("sphere_s3", resolution=(32, 16))
    vf = vr.seeded_variation(imm, 64)
    with pytest.raises(ValueError, match="finite and > 0"):
        vr.fd_second_variation("area", imm, vf, step=step)
    assert vf._fd_memo == {}


def test_fd_unknown_functional_rejected():
    imm = gal.gallery("sphere_r3")
    with pytest.raises(ValueError):
        vr.fd_second_variation("willmore", imm, vr.normal_variation(imm, _ones(imm)))


# -------------------------------------------------------------- peter-paul

@pytest.mark.parametrize("name,kw", [
    ("sphere_r3", {}), ("sphere_s3", {}), ("sphere_h3", {}),
    ("delaunay_t3", {"k": 2}),
])
def test_peter_paul_pointwise(name, kw):
    imm = gal.gallery(name, **kw)
    for s in SEEDS:
        vf = vr.seeded_variation(imm, 300 + s)
        for eps in (0.5, 1.0):
            marg = vr.peter_paul_margin(imm, vf, eps)
            assert marg.min() > -1e-12 * max(1.0, np.abs(marg).max())


@pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
def test_peter_paul_margin_rejects_eps_outside_open_half_line(eps):
    """An eps of 0 (a ZeroDivisionError before), < 0, NaN or inf raises
    ValueError instead of returning meaningless margins."""
    imm = gal.gallery("sphere_r3", resolution=(16, 8))
    with pytest.raises(ValueError, match="eps"):
        vr.peter_paul_margin(imm, vr.seeded_variation(imm, 1), eps)


# ------------------------------------------------------------- the seeded span

# the five default identity surfaces, on coarse grids
SPAN_CASES = [("sphere_r3", {"radius": 1.0}, (32, 24)),
              ("sphere_s3", {"radius": 0.9}, (32, 24)),
              ("sphere_h3", {"radius": 0.8}, (32, 24)),
              ("clifford_torus", {}, (32, 32)),
              ("delaunay_t3", {"k": 2, "neck": 0.55}, (32, 32))]
# N, the number of span fields, as on the default identity grids
SPAN_SIZES = {"sphere_r3": 30, "sphere_s3": 60, "sphere_h3": 60,
              "clifford_torus": 100, "delaunay_t3": 75}


def _basis(imm):
    """The N span fields phi_m P(e_a) as one (nx, ny, N, d) array."""
    g, sp = imm.grid, imm.space
    phi = span._span_scalars(imm, np.arange(g.nx * g.ny)).reshape(g.nx, g.ny, -1)
    pe = amb.project_tangent(sp, imm.u[..., None, :], np.eye(sp.dim))
    return (pe[..., :, None, :] * phi[..., None, :, None]).reshape(g.nx, g.ny, -1, sp.dim)


@pytest.mark.parametrize("name,kw,res", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_span_coefficients_reproduce_seeded_variations(name, kw, res):
    imm = gal.gallery(name, resolution=res, **kw)
    basis = _basis(imm)
    for seed, coef in zip(SEEDS, span.coefficients(imm, SEEDS)):
        v = vr.seeded_variation(imm, seed).v
        field = np.einsum("xyid,i->xyd", basis, coef)
        assert np.abs(field - v).max() <= 1e-13 * np.abs(v).max()


def _ref_scalar_draws(imm, rng, decay):
    """The draws of one seeded scalar field, one rng call per scalar, in the
    order ``variations._scalar_draws`` must keep: per torus term (j, k,
    amplitude, x phase, y phase), on spheres (constant, linear, quadratic)."""
    g = imm.grid
    if g.topology == "torus":
        m = min(2, g.nx // 4, g.ny // 4)
        return [(j, k, decay ** (j + k) * rng.standard_normal(),
                 rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
                for j in range(m + 1) for k in range(m + 1)]
    d = imm.space.dim
    return rng.standard_normal(), 0.6 * rng.standard_normal(d), 0.35 * rng.standard_normal((d, d))


def _waves(j, phase):
    """cos(j t + phase) as (row of ``span._trig_modes``, coefficient) pairs."""
    if j == 0:
        return [(0, np.cos(phase))]
    return [(2 * j - 1, np.cos(phase)), (2 * j, -np.sin(phase))]


def _coefficients_per_field(imm, seeds):
    """``span.coefficients`` as it was written first: the draws of each
    seeded field one rng call per scalar (``_ref_scalar_draws``) and one
    numpy conversion per field, kept as the reference for its bits."""
    d, n = imm.space.dim, len(seeds)
    fields = ((r, a, _ref_scalar_draws(imm, rng, vr._VARIATION_DECAY))
              for r, rng in enumerate(map(np.random.default_rng, seeds)) for a in range(d))
    if imm.grid.topology == "torus":
        m = vr._torus_degree(imm.grid, None)
        terms = np.empty((n, d, (m + 1) ** 2, 5))
        for r, a, draws in fields:
            terms[r, a] = draws
        out = np.zeros((n, d, 2 * m + 1, 2 * m + 1))
        for j, k, amp, phx, phy in np.moveaxis(terms, (2, 3), (0, 1)):
            for row, cx in _waves(int(j[0, 0]), phx):
                for col, cy in _waves(int(k[0, 0]), phy):
                    out[:, :, row, col] = amp * cx * cy
        return out.reshape(n, -1)
    a, b = np.triu_indices(d)
    out = np.zeros((n, d, 1 + d + len(a)))
    for r, c, (c0, c1, c2) in fields:
        out[r, c] = np.concatenate([[c0], c1, np.where(a == b, c2[a, b], c2[a, b] + c2[b, a])])
    return out.reshape(n, -1)


@pytest.mark.parametrize("name,kw,res", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_span_coefficients_bit_for_bit_per_field_decoding(name, kw, res):
    """The coefficients, decoded from all fields' draws at once, equal the
    field-by-field decoding bit for bit: same draws, same order."""
    imm = gal.gallery(name, resolution=res, **kw)
    seeds = [0, 1, 7, 697501 * 100003 + 5] + list(range(40, 60))
    new = span.coefficients(imm, seeds)
    assert _basis(imm).shape[2] == SPAN_SIZES[name]
    assert new.shape == (len(seeds), SPAN_SIZES[name])
    assert np.array_equal(new, _coefficients_per_field(imm, seeds))


# the five default identity surfaces on their default grids
IDENTITY_CASES = [(name, kw, (64, 48) if name.startswith("sphere") else (64, 64))
                  for name, kw, _ in SPAN_CASES]


@pytest.mark.parametrize("name,kw,res", IDENTITY_CASES, ids=[c[0] for c in IDENTITY_CASES])
def test_coefficients_match_scalar_draws_bit_for_bit(name, kw, res):
    """``span.coefficients`` on the default identity grids against one rng
    call per scalar and one conversion per field, bit for bit, at 0, 1 and
    200 seeds (the CLI's seeds at --seed 4011), also when the seeds' raw
    streams are the ones the previous call drew and held."""
    imm = gal.gallery(name, resolution=res, **kw)
    assert span.coefficients(imm, []).shape == (0, SPAN_SIZES[name])
    for seeds in ([5], [4011 * 100003 + i for i in range(200)]):
        ref = _coefficients_per_field(imm, seeds)
        assert np.array_equal(span.coefficients(imm, seeds), ref)
        assert np.array_equal(span.coefficients(imm, seeds), ref)


@pytest.mark.parametrize("name,kw,res", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_scalar_draws_count_equals_sequential_draws(name, kw, res):
    """``count`` fields drawn at once equal ``count`` fields drawn one after
    another from the same generator, at every degree, and leave the
    generator in the same state."""
    imm = gal.gallery(name, resolution=res, **kw)
    for degree in (None, 0, 1, 3):
        for count in (1, 2, 4):
            rng, seq = np.random.default_rng(count), np.random.default_rng(count)
            batch = vr._scalar_draws(imm, rng, degree, vr._VARIATION_DECAY, count=count)
            single = [vr._scalar_draws(imm, seq, degree, vr._VARIATION_DECAY) for _ in range(count)]
            assert np.array_equal(batch, np.concatenate(single))
            assert rng.random() == seq.random()


# the CLI's 200 seeds at --seed 4011
CLI_SEEDS = [4011 * 100003 + i for i in range(200)]


@pytest.fixture(scope="module")
def identity_surfaces():
    """The five default identity surfaces in the CLI's (sorted) order, each
    with its reference coefficients at ``CLI_SEEDS``."""
    return [(imm, _coefficients_per_field(imm, CLI_SEEDS))
            for imm in (gal.gallery(name, resolution=res, **kw)
                        for name, kw, res in sorted(IDENTITY_CASES, key=lambda c: c[0]))]


@pytest.fixture
def stream_draws(monkeypatch):
    """A fresh stream memo; the list returned collects the (torus, size) of
    every seed's stream drawn."""
    calls = []

    def counted(rng, torus, size):
        calls.append((torus, size))
        return vr._raw_draws(rng, torus, size)

    monkeypatch.setattr(span, "_streams", ((), {}))
    monkeypatch.setattr(span, "_raw_draws", counted)
    return calls


# the seeds' streams drawn, as (torus, draws per seed): count, when the five
# surfaces are read with the memo emptied before each, in the CLI's order
# and in reverse
STREAMS_DRAWN = {
    "fresh": {(True, 108): 200, (True, 81): 200, (False, 84): 400, (False, 39): 200},
    "cli": {(True, 108): 200, (False, 84): 200},
    "reverse": {(False, 84): 200, (True, 81): 200, (True, 108): 200}}


@pytest.mark.parametrize("order", STREAMS_DRAWN)
def test_shared_streams_bit_for_bit_in_any_order(identity_surfaces, stream_draws, order):
    """Each seed's stream is drawn once per pattern in the CLI's order;
    in reverse order Clifford's 108 draws per seed outgrow Delaunay's 81
    and are redrawn from the seeds.  The rows are the same either way, and
    the held streams are read-only."""
    cases = identity_surfaces[::-1] if order == "reverse" else identity_surfaces
    for imm, ref in cases:
        if order == "fresh":
            span._streams = ((), {})
        assert np.array_equal(span.coefficients(imm, CLI_SEEDS), ref)
    assert Counter(stream_draws) == STREAMS_DRAWN[order]
    seeds, arrays = span._streams
    assert seeds == tuple(CLI_SEEDS)
    assert not any(x.flags.writeable for x in arrays.values())


def test_shared_streams_from_two_threads(identity_surfaces, stream_draws):
    """Two threads reading the five surfaces at once, in opposite orders,
    each get the reference rows."""
    barrier = threading.Barrier(2)

    def run(cases):
        barrier.wait()
        return [span.coefficients(imm, CLI_SEEDS) for imm, _ in cases]

    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(run, cases) for cases in (identity_surfaces, identity_surfaces[::-1])]
        results = [runs[0].result(), runs[1].result()[::-1]]
    for got in results:
        for coef, (_, ref) in zip(got, identity_surfaces):
            assert np.array_equal(coef, ref)


def test_new_seed_list_releases_old_streams(identity_surfaces, stream_draws):
    """The memo holds the streams of the last seed list only."""
    for imm, _ in identity_surfaces[:3]:
        span.coefficients(imm, CLI_SEEDS)
    held = [weakref.ref(x) for x in span._streams[1].values()]
    assert len(held) == 2
    imm, _ = identity_surfaces[0]
    assert np.array_equal(span.coefficients(imm, [5]), _coefficients_per_field(imm, [5]))
    gc.collect()
    assert all(ref() is None for ref in held)
    assert span._streams[0] == (5,) and list(span._streams[1]) == [True]


@pytest.mark.parametrize("name,kw,res", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_span_rows_match_per_variation_identity(name, kw, res):
    """Rows from the span Grams against ``comparison_identity_residual`` of
    the same seeded fields: each form within 1e-12 of its own value, and
    the residual, a cancellation of the three, within 1e-12 of the row's
    scale max(|d2A|, |d2E|, 1)."""
    imm = gal.gallery(name, resolution=res, **kw)
    seeds = range(4)
    rows = span.identity_residuals(imm, seeds)
    assert len(rows) == len(seeds)
    for seed, row in zip(seeds, rows):
        ref = vr.comparison_identity_residual(imm, vr.seeded_variation(imm, seed))
        for key in ("d2_area", "d2_energy", "defect_chart"):
            assert abs(row[key] - ref[key]) <= 1e-12 * abs(ref[key]), key
        scale = max(abs(ref["d2_area"]), abs(ref["d2_energy"]), 1.0)
        assert abs(row["residual_abs"] - ref["residual_abs"]) <= 1e-12 * scale
        assert abs(row["residual_rel"] - ref["residual_rel"]) <= 1e-12


@pytest.mark.parametrize("name,kw,res", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_span_row_alone_equals_row_among_200(name, kw, res):
    """A row computed on its own equals, bit for bit, the same row computed
    among 200 seeds: each row reads only its own coefficients."""
    imm = gal.gallery(name, resolution=res, **kw)
    seeds = [697501 * 100003 + i for i in range(200)]
    rows = span.identity_residuals(imm, seeds)

    def bits(row):
        return np.array(list(row.values())).tobytes()

    for i in (0, 117, 199):
        alone, = span.identity_residuals(imm, [seeds[i]])
        assert alone.keys() == rows[i].keys()
        assert bits(alone) == bits(rows[i])


@pytest.mark.parametrize("name,kw,res", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_span_grams_match_per_field_forms(name, kw, res):
    """Every diagonal entry G_ii of the three Grams, and the chain
    G_(i,i+1) by polarization, against ``comparison_identity_residual`` of
    the span fields themselves: each within 1e-12 of the Gram's largest
    entry."""
    imm = gal.gallery(name, resolution=res, **kw)
    fields = np.moveaxis(_basis(imm), 2, 0)
    grams = span.grams(imm)

    def forms(v):
        ref = vr.comparison_identity_residual(imm, v)
        return np.array([ref[k] for k in ("d2_area", "d2_energy", "defect_chart")])

    single = [forms(v) for v in fields]
    for i, (gram, scale) in enumerate(zip(grams, [np.abs(g).max() for g in grams])):
        diag = [f[i] for f in single]
        assert np.abs(np.diag(gram) - diag).max() <= 1e-12 * scale
    for i in range(len(fields) - 1):
        chain = (forms(fields[i] + fields[i + 1]) - single[i] - single[i + 1]) / 2
        for gram, val in zip(grams, chain):
            assert abs(gram[i, i + 1] - val) <= 1e-12 * np.abs(gram).max(), i


def _dense_grams(imm):
    """The three Grams over whole-grid span fields.  Each form integrates a
    pointwise quadratic in jets linear in the field (those of
    ``second_variation_area``, ``second_variation_energy`` and
    ``conformal_defect``), so G_ij integrates its polarization in the jets
    of fields i and j; ``inner`` and ``rm`` are the pointwise matrices of
    <a, b> and Rm(a, u_x, u_x, b) + Rm(a, u_y, u_y, b)."""
    sp, sf = imm.space, imm.second_form
    fields = [vr.VariationField(imm, v) for v in np.moveaxis(_basis(imm), 2, 0)]
    aw, cw = imm.area_weights, imm.chart_weights
    e2i, h = 1.0 / imm.e2lam, sf.mean_scalar
    a, b = np.eye(sp.dim)[:, None], np.eye(sp.dim)[None]
    inner = amb.inner(sp, a, b)
    rm = sum(amb.riemann(sp, imm.u[..., None, None, :], a, y, y, b)
             for y in (imm.ux[..., None, None, :], imm.uy[..., None, None, :]))

    def stack(jet):
        return np.array([jet(vf) for vf in fields])

    def gram(x, y, w, m=None):
        """sum over the grid of w x_i^T m y_j, for stacked (N, nx, ny, k) jets."""
        x = x * w[..., None]
        if m is not None:
            x = np.einsum("i...a,...ab->i...b", x, m)
        return x.reshape(len(x), -1) @ y.reshape(len(y), -1).T

    # scalar jets with a component axis of length one
    f, px, py, al, be = np.moveaxis(stack(lambda vf: np.stack(
        [vf.f, *vf._normal_jet[:2], *vf.sigma_chart], axis=-1)), -1, 0)[..., None]
    s, v = stack(lambda vf: vf.s), stack(lambda vf: vf.v)
    dxv, dyv = np.moveaxis(stack(lambda vf: vr._cov(imm, vf.v)), 1, 0)
    eta = stack(lambda vf: vr.conformal_defect(imm, vf).eta)
    cross = gram(al, be, aw * h * sf.a_xy) + gram(al, px, aw * h) + gram(be, py, aw * h)
    area = (gram(px, px, aw * e2i) + gram(py, py, aw * e2i)
            - gram(f, f, aw * (sf.norm_sq - h * h)) - gram(s, s, aw * e2i, rm)
            + gram(al, al, aw * h * sf.a_xx) + gram(be, be, aw * h * sf.a_yy)
            + cross + cross.T)
    energy = gram(dxv, dxv, cw, inner) + gram(dyv, dyv, cw, inner) - gram(v, v, cw, rm)
    defect = 8.0 * (gram(eta.real, eta.real, cw, inner) + gram(eta.imag, eta.imag, cw, inner))
    return area, energy, defect


TORUS_CASES, SPHERE_CASES = (
    [(name, kw, res) for name, kw, _ in cases for res in ((32, 32), (48, 32))]
    for cases in (SPAN_CASES[3:], SPAN_CASES[:3]))


def _assert_grams_match_dense(grams, imm):
    for new, ref in zip(grams, _dense_grams(imm)):
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name,kw,res", TORUS_CASES,
                         ids=[f"{c[0]}-{c[2][0]}x{c[2][1]}" for c in TORUS_CASES])
def test_torus_grams_match_slab_assembly(name, kw, res):
    """The torus Grams, from the block of points the chart shifts leave
    (one point on the Clifford torus, the chart column y = 0 on the
    Delaunay torus) and its orbits, against ``_dense_grams``: every entry
    of each form within 1e-13 of its largest entry."""
    imm = gal.gallery(name, resolution=res, **kw)
    _assert_grams_match_dense(span.grams(imm), imm)


@pytest.mark.parametrize("name,kw,res", SPHERE_CASES,
                         ids=[f"{c[0]}-{c[2][0]}x{c[2][1]}" for c in SPHERE_CASES])
def test_sphere_grams_match_dense_assembly(name, kw, res):
    """As ``test_torus_grams_match_slab_assembly``, on the three spheres,
    whose Grams come from the longitude x = 0 and its shift orbit."""
    imm = gal.gallery(name, resolution=res, **kw)
    assert span._chart_shift(imm) is not None
    _assert_grams_match_dense(span.grams(imm), imm)


# grids where the x and the y stencil read different numbers of points: on
# an axis of 8 points the offsets +4 and -4 meet and cancel
NARROW_CASES = [(name, kw, (8, 8) if name.startswith("sphere") else (16, 8))
                for name, kw, _ in SPAN_CASES]


@pytest.mark.parametrize("name,kw,res", NARROW_CASES, ids=[c[0] for c in NARROW_CASES])
def test_grams_with_unequal_stencil_widths_match_dense_assembly(name, kw, res):
    """The Grams against ``_dense_grams`` where the x and the y stencil read
    different numbers of points at each chart point."""
    imm = gal.gallery(name, resolution=res, **kw)
    (x, _), (y, _) = span._stencils(imm.grid, np.arange(imm.grid.nx * imm.grid.ny))
    assert x.shape[1] != y.shape[1]
    _assert_grams_match_dense(span.grams(imm), imm)


def _stretched(imm):
    """``imm`` with u and every chart partial mapped by diag(1, 1.2, 0.8):
    no chart shift maps it onto itself by an isometry."""
    stretch = np.array([1.0, 1.2, 0.8])
    return dataclasses.replace(imm, **{k: getattr(imm, k) * stretch for k in (
        "u", "ux", "uy", "uxx", "uxy", "uyy")})


@pytest.mark.parametrize("name,kw,res", [("sphere_r3", {}, (32, 24)),
                                         ("delaunay_t3", {"k": 1}, (32, 16))],
                         ids=["sphere_r3", "delaunay_t3"])
def test_grams_without_shift_symmetry_match_dense_assembly(name, kw, res):
    """The whole-chart path, the trivial orbit, against ``_dense_grams`` on
    stretched surfaces that have no chart symmetry."""
    imm = _stretched(gal.gallery(name, resolution=res, **kw))
    assert span._chart_shift(imm) is None
    _assert_grams_match_dense(span.grams(imm), imm)


@pytest.mark.parametrize("name,kw,res", SPAN_CASES[:3], ids=[c[0] for c in SPAN_CASES[:3]])
def test_sphere_span_scalars_shift_by_polynomial_map(name, kw, res):
    """The span scalars on longitude 1 equal those on longitude 0 mapped by
    A = ``_polynomial_shift(R)``, R the ambient map of the chart shift:
    phi_m(R p) = sum_m' A[m', m] phi_m'(p)."""
    imm = gal.gallery(name, resolution=res, **kw)
    ny = imm.grid.ny
    line0, line1 = (span._span_scalars(imm, np.arange(ny) + m * ny) for m in (0, 1))
    mapped = line0 @ span._polynomial_shift(span._chart_shift(imm))
    assert np.abs(mapped - line1).max() <= 1e-14 * np.abs(line1).max()


# the default identity surfaces at their default grids, and at line counts
# that are not powers of two
ORBIT_CASES = [(name, kw, res) for name, kw, _ in SPAN_CASES for res in (
    ((64, 48), (40, 24)) if name.startswith("sphere") else ((64, 64), (48, 40)))]


@pytest.mark.parametrize("name,kw,res", ORBIT_CASES,
                         ids=[f"{c[0]}-{c[2][0]}x{c[2][1]}" for c in ORBIT_CASES])
def test_orbit_grams_match_whole_chart(name, kw, res):
    """Each default identity surface maps onto itself under a one-step
    chart shift along one or both chart axes, so its Grams come from the
    block of points the shifts leave (one point on the Clifford torus, one
    chart line on the others) and its orbits along them; against the
    whole-chart assembly each form agrees within 1e-13 of its largest
    entry."""
    imm = gal.gallery(name, resolution=res, **kw)
    assert span._chart_shift(imm) is not None
    for new, ref in zip(span.grams(imm), span._full_grams(imm)):
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


BLOCK_CASES = [(name, kw, res) for name, kw, _ in SPAN_CASES for res in (
    ((64, 48),) if name.startswith("sphere") else ((64, 64), (48, 40)))]


@pytest.mark.parametrize("name,kw,res", BLOCK_CASES,
                         ids=[f"{c[0]}-{c[2][0]}x{c[2][1]}" for c in BLOCK_CASES])
def test_grams_assemble_block_the_shifts_leave(name, kw, res, monkeypatch):
    """The chart points ``_add_chunk`` receives are the block with index 0
    along every axis of a chart shift symmetry: one point on the Clifford
    torus (symmetric along x and y), the nx points of the chart column
    y = 0 on the Delaunay torus (along y alone: its profile varies along
    x) and the ny points of the longitude x = 0 on the spheres (along x)."""
    imm = gal.gallery(name, resolution=res, **kw)
    g, seen, add = imm.grid, [], span._add_chunk
    if g.topology == "torus":
        assert (span._chart_shift(imm, 0) is not None) == (name == "clifford_torus")
        assert span._chart_shift(imm, 1) is not None
    monkeypatch.setattr(span, "_add_chunk",
                        lambda imm, points, *grams: seen.append(points) or add(imm, points, *grams))
    span.grams(imm)
    block = {"clifford_torus": np.zeros(1, int), "delaunay_t3": np.arange(g.nx) * g.ny}
    assert np.array_equal(np.concatenate(seen), block.get(name, np.arange(g.ny)))


def test_grams_without_shift_symmetry_take_whole_chart():
    """sphere_r3 with u and every chart partial mapped by diag(1, 1.2, 0.8)
    is an ellipsoid, which no chart shift maps onto itself by an isometry:
    its Grams are the whole-chart assembly, bit for bit."""
    imm = gal.gallery("sphere_r3", resolution=(32, 24))
    stretch = np.array([1.0, 1.2, 0.8])
    ellipsoid = dataclasses.replace(imm, **{k: getattr(imm, k) * stretch for k in (
        "u", "ux", "uy", "uxx", "uxy", "uyy")})
    assert span._chart_shift(imm) is not None
    assert span._chart_shift(ellipsoid) is None
    for new, ref in zip(span.grams(ellipsoid), span._full_grams(ellipsoid)):
        assert np.array_equal(new, ref)


@pytest.mark.parametrize("count", [1, 2, 5, 6, 7, 40])
def test_orbit_sum_equals_term_by_term_sum(count):
    """The doubling sum of (T^m)^T G T^m over m < count against the sum
    taken term by term."""
    rng = np.random.default_rng(count)
    T = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    grams = [rng.standard_normal((12, 12)) for _ in range(3)]
    power, ref = np.eye(12), [np.zeros((12, 12)) for _ in grams]
    for _ in range(count):
        ref = [r + power.T @ g @ power for r, g in zip(ref, grams)]
        power = power @ T
    for new, r in zip(span._orbit_sum(grams, T, count), ref):
        assert np.abs(new - r).max() <= 1e-13 * np.abs(r).max()


CHUNK_CASES = [(name, kw, res) for name, kw, _ in SPAN_CASES for res in ((32, 24), (32, 26))]


@pytest.mark.parametrize("name,kw,res", CHUNK_CASES,
                         ids=[f"{c[0]}-{c[2][0]}x{c[2][1]}" for c in CHUNK_CASES])
def test_grams_independent_of_chunk_size(name, kw, res, monkeypatch):
    """The Grams at the chunk size in use against chunks of one and three
    chart points (the last chunk short where 3 does not divide the point
    count): each form within 1e-13 of its largest entry, on the block of
    points the chart shifts leave (a chart line of 24 to 32 points on the
    spheres and the Delaunay torus, one point on the Clifford torus) and
    over the whole chart."""
    imm = gal.gallery(name, resolution=res, **kw)
    for assemble in (span.grams, span._full_grams):
        monkeypatch.undo()
        grams = assemble(imm)
        for size in (1, 3):
            monkeypatch.setattr(span, "_CHUNK", size)
            for ref, other in zip(grams, assemble(imm)):
                assert np.abs(other - ref).max() <= 1e-13 * np.abs(ref).max()


def _traced_peak(assemble, imm):
    """The tracemalloc peak of ``assemble(imm)`` after a first call, which
    leaves the immersion's geometry and the stencil tables cached."""
    assemble(imm)
    tracemalloc.start()
    try:
        assemble(imm)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_span_grams_stream_within_memory_budget():
    """The Grams are streamed over chunks of chart points: one field per
    basis element over the whole grid, (nx, ny, N) doubles, would already
    take 3.1 MiB for the Clifford torus at 64x64 and 1.4 MiB for sphere_s3
    at 64x48.  The sphere budget is the peak that 3-column slabs of an
    earlier engine had (1.6-1.8 MiB), so that larger chunks cannot buy time
    with memory.  The whole-chart assembly is held to the budgets at the
    default grids, and the orbit assembly, with its line-by-line symmetry
    check, also at 256x256 and 256x128, where one whole-grid vector field
    alone takes 2 and 1 MiB."""
    for name, kw, grids, budget in (("clifford_torus", {}, ((64, 64), (256, 256)), 4),
                                    ("sphere_s3", {"radius": 0.9}, ((64, 48), (256, 128)), 2)):
        for res in grids:
            imm = gal.gallery(name, resolution=res, **kw)
            assert span._chart_shift(imm) is not None
            assemblies = (span.grams, span._full_grams) if res[0] == 64 else (span.grams,)
            for assemble in assemblies:
                assert _traced_peak(assemble, imm) <= budget * 2 ** 20, (name, res, assemble)


GRAM_DIGEST = """
import hashlib
from cmcindex import gallery, span
for kind in ("clifford_torus", "delaunay_t3", "sphere_s3"):
    imm = gallery.gallery(kind, resolution=(64, 64) if kind != "sphere_s3" else (64, 48))
    print(kind, hashlib.sha256(b"".join(g.tobytes() for g in span.grams(imm))).hexdigest())
"""


def test_span_grams_independent_of_blas_threads():
    """Bit for bit the same Grams with one and with two OpenBLAS threads, at
    the default identity sizes (N = 100, 75 and 60 over 64-point columns),
    where unsplit products do change bits with the thread count."""
    src = str(Path(vr.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", GRAM_DIGEST], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]
