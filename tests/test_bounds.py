import math

import numpy as np
import pytest

from cmcindex import ambient as amb
from cmcindex import bounds as bd
from cmcindex import gallery as gal
from cmcindex import spectral as sp
from cmcindex import surfaces as sf
from cmcindex import variations as vr
from conftest import jacobi_solve, laplace_solve, surface, weak_index_of

SWEEP_SURFACES = ["sphere_r3", "sphere_s3", "clifford_torus", "delaunay_k2"]


# ------------------------------------------------------------ topological term

def test_r_examples():
    assert bd.topological_r(0, 0) == 0
    assert bd.topological_r(1, 0) == 2
    assert bd.topological_r(3, 1) == 10
    assert bd.topological_r(2, 5) == 0


def test_r_exhaustive_coverage_monotone_nonnegative():
    for g in range(51):
        prev = None
        for b in range(251):
            r = bd.topological_r(g, b)
            assert r >= 0
            if prev is not None:
                assert r <= prev
            prev = r


def test_r_case_boundary_agreement():
    # at the seam both adjacent formulas evaluate to 2g
    for g in range(2, 51):
        b1 = 2 * g - 3
        assert bd.topological_r(g, b1) == 6 * g - 6 - 2 * b1 == 2 * g
        b2 = 2 * g - 2
        assert bd.topological_r(g, b2) == 4 * g - 2 - 2 * ((b2 + 1) // 2) == 2 * g


def test_r_rejects_bad_input():
    with pytest.raises(ValueError):
        bd.topological_r(-1, 0)
    with pytest.raises(ValueError):
        bd.topological_r(0, -2)


# ---------------------------------------------------------- constant pipeline

def test_delta_expression_values():
    assert bd.delta_expression(2.3) < 40.0
    assert bd.delta_expression(1e-4) > 1e6
    with pytest.raises(ValueError):
        bd.delta_expression(0.0)
    with pytest.raises(ValueError):
        bd.delta_expression(-1.0)


def test_optimized_constant_dominated_by_headline():
    dstar, fstar = bd.optimize_delta()
    assert fstar <= bd.delta_expression(2.3)
    assert fstar < 40.0
    assert (3.0 / (2.0 * math.pi)) * fstar <= 60.0 / math.pi + 1e-10
    assert abs(bd.delta_expression(dstar + 1e-4) - fstar) >= 0  # minimizer sane


# ------------------------------------------------------------------ the bound

def test_main_bound_sphere_number():
    mb = bd.main_bound(0.0, 2.0, 4 * math.pi, 0, 0)
    assert abs(mb["bound"] - 960.0) < 1e-9
    assert mb["bound_tight"] <= mb["bound"]


def test_main_bound_clifford_number():
    mb = bd.main_bound(1.0, 0.0, 2 * math.pi ** 2, 1, 0)
    assert abs(mb["bound"] - (480 * math.pi + 2)) < 1e-9


def test_main_bound_rejects_nonfinite():
    with pytest.raises(ValueError):
        bd.main_bound(float("nan"), 1.0, 1.0, 0, 0)


def test_willmore_values():
    assert abs(bd.willmore_energy(surface("clifford_torus")) - 8 * math.pi ** 2) < 1e-9
    assert abs(bd.willmore_energy(surface("sphere_r3")) - 16 * math.pi) < 1e-6
    with pytest.raises(amb.UnsupportedOperation):
        bd.willmore_energy(surface("sphere_h3"))


def test_willmore_delaunay_affine_growth():
    u1, u2, u3 = (surface(f"delaunay_k{k}") for k in (1, 2, 3))
    h1, a1 = u1.cmc_value, sf.area(u1)
    for k, u in ((1, u1), (2, u2), (3, u3)):
        w = bd.willmore_energy(u)
        # W_k = k h1^2 A1 + 16 pi^2 A1 / k exactly under the scaling laws
        expect = k * h1 ** 2 * a1 + 16 * math.pi ** 2 * a1 / k
        assert abs(w - expect) < 1e-6 * expect


# ------------------------------------------------------ inequality validators

def test_mss_closed_form_and_edge_cases():
    imm = surface("sphere_r3")
    one = np.ones(imm.u.shape[:2])
    margin = bd.mss_check(imm, one)
    assert abs(margin - (4 * math.sqrt(2) - 2) * math.sqrt(math.pi)) < 1e-6
    assert abs(bd.mss_check(imm, 0.0 * one)) < 1e-14
    with pytest.raises(amb.UnsupportedOperation):
        bd.mss_check(surface("sphere_h3"), one)


@pytest.mark.parametrize("label", SWEEP_SURFACES)
def test_mss_sweep(label):
    imm = surface(label)
    rng = np.random.default_rng(abs(hash(label)) % 2 ** 31)
    for _ in range(50):
        f = vr.random_scalar(imm, rng)
        assert bd.mss_check(imm, f) >= -1e-8


def test_interpolation_margin():
    imm = surface("sphere_r3")
    one = np.ones(imm.u.shape[:2])
    assert abs(bd.interpolation_check(imm, one)) < 1e-10
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = vr.random_scalar(imm, rng)
        assert bd.interpolation_check(imm, f) >= -1e-10
    # smoothed indicator bump: strict inequality
    th = imm.grid.theta
    bump = np.exp(-(np.cos(th)[None, :] - 1.0) ** 2 / 0.05) * np.ones((imm.grid.nx, 1))
    assert bd.interpolation_check(imm, bump) > 1e-3


@pytest.mark.parametrize("label", SWEEP_SURFACES)
@pytest.mark.parametrize("delta", [1.0, 2.3, 5.0])
def test_heat_trace_bound_margins(label, delta):
    imm = surface(label)
    _, lb = laplace_solve(label)
    chk = bd.heat_trace_bound_check(imm, lb, delta=delta)
    assert chk["margins"].min() >= -1e-6


def test_heat_trace_bound_large_t_limit():
    # RHS(t) -> (1+d)^2/(2 pi) Area (h^2+4J^2) while h(t) -> 1
    imm = surface("sphere_r3")
    _, lb = laplace_solve("sphere_r3")
    chk = bd.heat_trace_bound_check(imm, lb, t_grid=[50.0], delta=2.3)
    limit = (1 + 2.3) ** 2 / (2 * math.pi) * sf.area(imm) * 4.0
    assert abs(chk["margins"][0] - (limit - 1.0)) < 1e-6 * limit
    assert limit > 1.0


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_heat_trace_bound_rejects_delta_outside_open_half_line(delta):
    """A delta of 0, < 0, NaN or inf raises ValueError instead of giving
    NaN or infinite margins."""
    imm = surface("sphere_r3")
    _, lb = laplace_solve("sphere_r3")
    with pytest.raises(ValueError, match="delta"):
        bd.heat_trace_bound_check(imm, lb, delta=delta)


def test_heat_trace_bound_rejects_degenerate():
    # fabricate h = J = 0 by viewing the Clifford chart with a flat J
    import dataclasses
    imm = gal.gallery("clifford_torus", resolution=(16, 16))
    _, lb = laplace_solve("clifford_torus")
    fake_space = dataclasses.replace(imm.space, extrinsic_bound=0.0)
    fake = dataclasses.replace(imm, space=fake_space, cmc_value=0.0)
    with pytest.raises(amb.UnsupportedOperation):
        bd.heat_trace_bound_check(fake, lb, delta=2.3)


@pytest.mark.parametrize("label,g", [("sphere_r3", 0), ("clifford_torus", 1),
                                     ("delaunay_k1", 1), ("delaunay_k2", 1),
                                     ("delaunay_k3", 1)])
def test_energy_index_chain(label, g):
    imm = surface(label)
    _, lb = laplace_solve(label)
    _, jac = jacobi_solve(label)
    i, n = sp.index_nullity(jac)
    rep = bd.energy_index_chain(imm, lb, g, 0, measured_index_plus_nullity=i + n)
    assert rep["ok"]
    assert rep["chain"] + rep["r"] >= i + n
    assert rep["chain"] > 0


def test_energy_index_chain_rejects_degenerate():
    import dataclasses
    imm = gal.gallery("clifford_torus", resolution=(16, 16))
    _, lb = laplace_solve("clifford_torus")
    fake_space = dataclasses.replace(imm.space, extrinsic_bound=0.0)
    fake = dataclasses.replace(imm, space=fake_space, cmc_value=0.0)
    with pytest.raises(amb.UnsupportedOperation):
        bd.energy_index_chain(fake, lb, 1, 0)


def test_counting_chain_inequality():
    _, lb = laplace_solve("sphere_r3")
    for t in np.geomspace(0.05, 5, 10):
        ht = sp.heat_trace(lb, t)
        for c in (4.0, 8.0, 12.0):
            assert sp.counting(lb, c) <= math.exp(c * t) * ht.value + 1e-9


# -------------------------------------------------------- curvature dichotomy

def test_dichotomy_cases():
    host = gal.gallery("clifford_torus", resolution=(24, 24))
    shape = host.u.shape[:2]
    case2 = bd.negative_curvature_classify(-1.0, 2.0, 2 * np.ones(shape),
                                           -2 * np.ones(shape), host=host)
    assert case2.case == "Case2" and (case2.index, case2.nullity) == (0, 1)
    na = bd.negative_curvature_classify(-1.0, 2.5, 2 * np.ones(shape),
                                        -2 * np.ones(shape))
    assert na.case == "NotApplicable"
    case1 = bd.negative_curvature_classify(-1.0, 1.0, 1.5 * np.ones(shape),
                                           -1.2 * np.ones(shape))
    assert case1.case == "Case1"
    with pytest.raises(ValueError):
        bd.negative_curvature_classify(0.5, 1.0, np.ones(shape), np.ones(shape))


def test_h3_sphere_is_outside_dichotomy_range():
    imm = surface("sphere_h3")
    res = bd.negative_curvature_classify(-1.0, imm.cmc_value,
                                         imm.second_form.norm_sq, imm.ricci_nu)
    assert res.case == "NotApplicable"   # h = 2 coth(rho) > 2


# -------------------------------------------------------------- bound reports

def test_bound_report_sphere():
    _, jac = jacobi_solve("sphere_r3")
    i, n = sp.index_nullity(jac)
    rep = bd.bound_report(surface("sphere_r3"), i, n, weak_index_of("sphere_r3"))
    assert rep.passed and rep.bound == pytest.approx(960.0, abs=1e-9)
    assert rep.index + rep.nullity == 4
    assert rep.margin == pytest.approx(956.0, abs=1e-9)
    # report invariants: r >= 0, bound >= r, tighter constant still dominates
    assert rep.r >= 0 and rep.bound >= rep.r
    assert rep.index + rep.nullity <= rep.bound_tight <= rep.bound
    assert rep.conjecture_gap > 0


def test_bound_report_h3_is_na_with_dichotomy():
    _, jac = jacobi_solve("sphere_h3")
    i, n = sp.index_nullity(jac)
    rep = bd.bound_report(surface("sphere_h3"), i, n, weak_index_of("sphere_h3"))
    assert rep.bound is None and rep.willmore is None and rep.passed is None
    assert rep.dichotomy == "NotApplicable"
    assert rep.index + rep.nullity == 4
