import json

import numpy as np
import pytest

from cmcindex import gallery as gal
from cmcindex import surfaces as sf
from cmcindex.delaunay import (DelaunayConstructionError, _elliptic,
                               delaunay_torus, solve_profile)

ORACLE_NECKS = [0.01, 0.05, 0.3, 0.55, 0.8, 0.99]


def _ivp_profile(neck):
    """(t_period, x_period, dense (x, r, phi)) of the h = 1 profile by DOP853
    near its accuracy limit, with the period located by the tangent-angle
    events: neck -> bulge (phi crosses zero downward), then -> next neck."""
    from scipy.integrate import solve_ivp

    def rhs(_t, s):
        return [s[1] * np.cos(s[2]), s[1] * np.sin(s[2]), np.cos(s[2]) - s[1]]

    legs, t0, y0 = [], 0.0, [0.0, 2 * neck / (1 + neck), 0.0]
    for direction in (-1.0, 1.0):
        def phi_zero(_t, s):
            return s[2]
        phi_zero.terminal, phi_zero.direction = True, direction
        leg = solve_ivp(rhs, (t0, t0 + 100.0), y0, method="DOP853", rtol=2.3e-14,
                        atol=1e-15, dense_output=True, events=phi_zero)
        t0, y0 = float(leg.t_events[0][0]), leg.y_events[0][0]
        legs.append((leg.sol, t0))
    (first, t_half), (second, t_period) = legs

    def dense(t):
        return np.where(t <= t_half, first(np.clip(t, 0.0, t_half)),
                        second(np.clip(t, t_half, t_period)))
    return t_period, float(y0[0]), dense


@pytest.mark.parametrize("neck", ORACLE_NECKS)
def test_closed_form_matches_integrated_profile(neck):
    prof = solve_profile(neck)
    t_period, x_period, dense = _ivp_profile(neck)
    assert abs(prof.t_period - t_period) <= 5e-12
    assert abs(prof.x_period - x_period) <= 5e-12
    t = np.linspace(0.0, t_period, 2001)
    for got, ref in zip(prof.evaluate(t), dense(t)):
        assert np.abs(got - ref).max() <= 5e-12


@pytest.mark.parametrize("neck", ORACLE_NECKS)
def test_agm_elliptic_functions_match_scipy(neck):
    from scipy import special

    m = 1.0 - neck * neck
    K = special.ellipk(m)
    # seeded random points: scipy's ellipeinc is wrong at amplitudes am(jK/2^i)
    # (1.3571 for 1.5125 at w = 11K/8, neck 0.55), checked by mpmath below
    w = np.sort(np.random.default_rng(7).uniform(0.0, 2.0 * K, 801))
    sn, cn, dn, eps, K_agm, E_agm = _elliptic(w, neck * neck)
    ref_sn, ref_cn, ref_dn, ref_am = special.ellipj(w, m)
    assert abs(K_agm - K) <= 1e-13 * K
    assert abs(E_agm - special.ellipe(m)) <= 1e-14
    # scipy's ellipj itself is off by up to 1.1e-13 at neck 0.01
    for got, ref in ((sn, ref_sn), (cn, ref_cn), (dn, ref_dn),
                     (eps, special.ellipeinc(ref_am, m))):
        assert np.abs(got - ref).max() <= 2e-13


@pytest.mark.parametrize("neck", [0.01, 0.55])
def test_agm_elliptic_functions_at_dyadic_points(neck):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m = 1 - mpmath.mpf(neck) ** 2
        w = [mpmath.ellipk(m) * j / 8 for j in range(17)]
        sn, cn, dn, eps, _, _ = _elliptic(np.array([float(v) for v in w]), neck * neck)
        for i, v in enumerate(w):
            am = mpmath.asin(mpmath.ellipfun("sn", v, m=m))    # am(w) in [0, pi]
            am = am if i <= 8 else mpmath.pi - am
            assert abs(sn[i] - mpmath.ellipfun("sn", v, m=m)) <= 1e-14
            assert abs(cn[i] - mpmath.ellipfun("cn", v, m=m)) <= 1e-14
            assert abs(dn[i] - mpmath.ellipfun("dn", v, m=m)) <= 1e-14
            assert abs(eps[i] - mpmath.ellipe(am, m)) <= 1e-14


def test_profile_radii_and_periodicity():
    prof = solve_profile(0.55)
    assert abs(prof.r_neck - 2 * 0.55 / 1.55) < 1e-12
    assert abs(prof.r_bulge - 2 / 1.55) < 1e-12
    x, r, phi = prof.evaluate(np.array([0.0, prof.t_period]))
    assert abs(r[0] - r[1]) < 1e-8
    assert abs(phi[1]) < 1e-8


def _flux_samples(profile, n):
    """Samples of the conserved flux r sin(psi) + (h/2) r^2 of the h = 1
    profile along a period, psi = phi - pi/2."""
    _, r, phi = profile.evaluate(np.linspace(0.0, profile.t_period, n))
    return -r * np.cos(phi) + 0.5 * r * r


def test_flux_conserved_along_profile():
    prof = solve_profile(0.4)
    f = _flux_samples(prof, 600)
    assert f.max() - f.min() < 1e-10


def test_invalid_neck_rejected():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DelaunayConstructionError):
            solve_profile(bad)
    with pytest.raises(DelaunayConstructionError):
        delaunay_torus(0, 0.5, 16, 16)


def test_scaling_laws_exact():
    u1 = gal.gallery("delaunay_t3", k=1)
    u2 = gal.gallery("delaunay_t3", k=2)
    u3 = gal.gallery("delaunay_t3", k=3)
    a1 = sf.area(u1)
    assert abs(sf.area(u2) * 2 / a1 - 1) < 1e-3
    assert abs(sf.area(u3) * 3 / a1 - 1) < 1e-3
    assert abs(u2.cmc_value / (2 * u1.cmc_value) - 1) < 1e-3
    assert abs(u3.cmc_value / (3 * u1.cmc_value) - 1) < 1e-3


def test_fits_fundamental_domain():
    imm = gal.gallery("delaunay_t3", k=1)
    r_max = np.sqrt(imm.u[..., 1] ** 2 + imm.u[..., 2] ** 2).max()
    assert r_max < 0.5
    # axis closes up exactly once through the unit cube
    prof_x = imm.reference["profile_x_period"]
    prof_t = imm.reference["profile_t_period"]
    assert abs(imm.cmc_value - prof_x) < 1e-10  # h_1 = x_period at h0 = 1
    del prof_t


def test_descriptor_roundtrip():
    desc = {"kind": "delaunay_t3", "params": {"k": 2, "neck": 0.55}, "resolution": [64, 32]}
    imm = gal.from_descriptor(json.loads(json.dumps(desc)))
    assert imm.reference["k"] == 2
    assert sf.cmc_residual(imm) < 1e-6
