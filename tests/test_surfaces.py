import numpy as np
import pytest

from cmcindex import ambient as amb
from cmcindex import gallery as gal
from cmcindex import spectral as spc
from cmcindex import surfaces as sf
from cmcindex.grids import sphere_grid, torus_grid
from cmcindex.surfaces import BranchPointError, Immersion


def test_conformal_factor_sphere_matches_direct_norm():
    imm = gal.gallery("sphere_r3", radius=1.7)
    direct = 0.5 * np.log(amb.inner(imm.space, imm.ux, imm.ux))
    assert np.abs(imm.lam - direct).max() < 1e-14
    # chart factor: e^lam = rho * sin(theta), so lam = log rho + log sin
    th = imm.grid.theta
    expect = np.log(1.7) + np.log(np.sin(th))
    assert np.abs(imm.lam - expect[None, :]).max() < 1e-12


def test_conformal_factor_clifford_constant():
    imm = gal.gallery("clifford_torus")
    assert np.abs(imm.lam - 0.5 * np.log(0.5)).max() < 1e-14


def test_conformal_factor_scaling_homothety():
    a = gal.gallery("sphere_r3", radius=1.0)
    b = gal.gallery("sphere_r3", radius=3.0)
    assert np.abs((b.lam - a.lam) - np.log(3.0)).max() < 1e-12


def test_separable_rejects_jets_off_the_grid():
    g = torus_grid(8, 12)
    with pytest.raises(ValueError, match="do not fit grid 8x12"):
        sf.separable(amb.R3, g, np.ones((3, 8, 3)), np.ones((3, 8, 3)), genus=1)
    with pytest.raises(ValueError, match="do not fit grid 8x12"):
        sf.separable(amb.R3, g, np.ones((3, 8, 3)), np.ones((3, 12, 4)), genus=1)
    imm = sf.separable(amb.R3, g, np.ones((3, 8, 3)), np.ones((3, 12, 3)), genus=1)
    assert imm.u.shape == imm.uxy.shape == (8, 12, 3)


def test_branch_point_rejected():
    g = torus_grid(8, 8)
    z = np.zeros((8, 8, 3))
    imm = Immersion(amb.R3, g, z, z, z, z, z, z, genus=1)
    with pytest.raises(BranchPointError):
        _ = imm.e2lam


def test_small_sphere_scales_jacobi_spectrum():
    # the degeneracy threshold is relative, so radius 1e-6 is a valid
    # sphere whose Jacobi eigenvalues are those at radius 1 times 1e12
    lam = [spc.eigensolve(spc.assemble_jacobi(
        gal.gallery("sphere_r3", radius=r, resolution=(32, 16))), 12, False).eigenvalues
        for r in (1.0, 1e-6)]
    assert np.abs(lam[1] * 1e-12 - lam[0]).max() <= 1e-12 * np.abs(lam[0]).max()


@pytest.mark.parametrize("name,a2,h", [
    ("sphere_r3", 2.0, 2.0),             # radius 1: |A|^2 = 2, h = 2
    ("clifford_torus", 2.0, 0.0),
])
def test_second_fundamental_closed_forms(name, a2, h):
    imm = gal.gallery(name)
    sec = imm.second_form
    assert np.abs(sec.norm_sq - a2).max() < 1e-12
    assert np.abs(sec.mean_scalar - h).max() < 1e-12


def test_sphere_umbilic_and_h3_closed_form():
    imm = gal.gallery("sphere_r3")
    assert np.abs(imm.second_form.azz).max() < 1e-13
    rho = 0.8
    imm = gal.gallery("sphere_h3", radius=rho)
    sec = imm.second_form
    coth = np.cosh(rho) / np.sinh(rho)
    assert np.abs(sec.norm_sq - 2 * coth ** 2).max() < 1e-11
    assert np.abs(sec.mean_scalar - 2 * coth).max() < 1e-11


def test_second_form_trace_identity_and_cauchy_schwarz():
    for name in ("sphere_s3", "clifford_torus", "sphere_h3"):
        imm = gal.gallery(name)
        sec = imm.second_form
        # A(u_z, u_zbar) = (1/4) e^{2 lam} H, via the component identity
        lhs = 0.25 * (sec.a_xx + sec.a_yy)
        rhs = 0.25 * imm.e2lam * sec.mean_scalar
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1, np.abs(rhs).max())
        assert np.all(sec.norm_sq >= 0.5 * sec.mean_scalar ** 2 - 1e-12)


def test_areas_closed_forms():
    assert abs(sf.area(gal.gallery("sphere_r3", radius=1.3)) - 4 * np.pi * 1.3 ** 2) < 1e-6
    assert abs(sf.area(gal.gallery("clifford_torus")) - 2 * np.pi ** 2) < 1e-10
    rho = 0.9
    assert abs(sf.area(gal.gallery("sphere_s3", radius=rho))
               - 4 * np.pi * np.sin(rho) ** 2) < 1e-8


def test_energy_equals_area_for_conformal():
    for name in ("sphere_r3", "clifford_torus"):
        imm = gal.gallery(name)
        assert abs(sf.energy(imm) - sf.area(imm)) < 1e-10 * sf.area(imm)


def test_area_refinement_order():
    # A pinched Delaunay keeps the quadrature error visible at coarse grids;
    # doubling must reduce it by at least 4x (it drops much faster, being
    # spectral, before hitting roundoff).
    fine = sf.area(gal.gallery("delaunay_t3", k=1, neck=0.12, resolution=(256, 16)))
    errs = [abs(sf.area(gal.gallery("delaunay_t3", k=1, neck=0.12,
                                    resolution=(nx, 16))) - fine)
            for nx in (8, 16)]
    assert errs[0] > 4 * errs[1]
    assert errs[1] < 1e-6


def test_cmc_residuals():
    assert sf.cmc_residual(gal.gallery("sphere_r3")) < 1e-10
    assert sf.cmc_residual(gal.gallery("clifford_torus")) < 1e-10
    assert sf.cmc_residual(gal.gallery("delaunay_t3", k=2)) < 1e-6


def test_conformality_residuals():
    for name in gal.gallery_names():
        kw = {"k": 2} if name == "delaunay_t3" else {}
        assert sf.conformality_residual(gal.gallery(name, **kw)) < 1e-10


def test_normal_orientation_convention():
    # dV_N(nu, u_x, u_y) = e^{2 lam} at every grid point
    for name in ("sphere_r3", "sphere_s3", "sphere_h3", "clifford_torus"):
        imm = gal.gallery(name)
        w = amb.volume_form(imm.space, imm.u, imm.nu, imm.ux, imm.uy)
        assert np.abs(w / imm.e2lam - 1.0).max() < 1e-10


@pytest.mark.parametrize("name", ["sphere_s3", "sphere_h3", "clifford_torus"])
def test_normal_matches_det_cofactor(name):
    # nu against the signature-corrected cofactor of the rows (u, u_x, u_y)
    # taken from stacked 3x3 determinants, normalized and oriented alike
    imm = gal.gallery(name)
    sp = imm.space
    m = np.stack([imm.u, imm.ux, imm.uy], axis=-2)
    ref = sp.signature * np.stack([(-1.0) ** a * np.linalg.det(np.delete(m, a, axis=-1))
                                   for a in range(4)], axis=-1)
    ref /= np.sqrt(amb.inner(sp, ref, ref))[..., None]
    if amb.volume_form(sp, imm.u[0, 0], ref[0, 0], imm.ux[0, 0], imm.uy[0, 0]) < 0:
        ref = -ref
    nu = imm.nu
    assert np.abs(nu - ref).max() <= 1e-13 * np.abs(ref).max()
    # a unit normal: metric-orthogonal to the point and to both partials
    assert np.abs(amb.inner(sp, nu, nu) - 1.0).max() <= 1e-13
    for w in (imm.u, imm.ux, imm.uy):
        scale = np.linalg.norm(nu, axis=-1) * np.linalg.norm(w, axis=-1)
        assert np.all(np.abs(amb.inner(sp, nu, w)) <= 1e-13 * scale)


def test_gauss_equation():
    # |A|^2 = |H|^2 + 2 kappa^N - 2 K^Sigma pointwise (spheres and Clifford)
    for name in ("sphere_r3", "sphere_s3", "sphere_h3", "clifford_torus"):
        imm = gal.gallery(name)
        K = sf.gauss_curvature(imm)
        sec = imm.second_form
        resid = sec.norm_sq - (sec.mean_scalar ** 2 + 2 * imm.space.curvature - 2 * K)
        assert np.abs(resid).max() < 1e-6, name
