"""Delaunay (unduloid) profile curves and k-lobed CMC tori in the flat T^3.

The rotationally symmetric CMC profile is parametrised by the conformal
parameter t (arclength rescaled by 1/r), in which the immersion

    u(t, theta) = c * (x(t), r(t) cos theta, r(t) sin theta)

is isothermal with e^lam = c r.  With phi the tangent angle of the profile
against the rotation axis, the profile solves

    dx/dt = r cos phi,   dr/dt = r sin phi,   dphi/dt = cos phi - h r,

whose first integral is the flux r sin(psi) + (h/2) r^2, psi = phi - pi/2.
At h = 1 the neck and bulge radii of the neck ratio nu in (0, 1) are
a = 2 nu / (1 + nu) and b = 2 / (1 + nu) (a + b = 2/h), and the flux gives
r cos phi = (r^2 + ab) / 2.  With m = 1 - nu^2 and w = b t / 2, the solution
through the neck at t = 0 is Delaunay's unduloid in the isothermal form of
Kenmotsu (Tohoku Math. J. 32, 1980):

    u = r^2 = b^2 - (b^2 - a^2) cd^2(w | m),   r cos phi = (u + ab) / 2,
    x = [(b^2 + ab) w - (b^2 - a^2)(w - E(am w | m) + m sn cd) / m] / b.

As a = nu b gives b^2 - a^2 = m b^2, and dn^2 = 1 - m sn^2, these reduce to

    r = a / dn,   x = a w + b (E(am w | m) - m sn cd),
    phi = atan2(b m sn cn, a + b dn^2),

which carry no cancellation as nu -> 0 or nu -> 1.  The period in t is
T = 4 K(m) / b.  sn, cn, dn, K, E and Jacobi's epsilon E(am w | m) all come
from one descending arithmetic-geometric mean sequence (Abramowitz & Stegun
16.4 and 17.6), vectorised over t; no ODE is integrated.  k periods are
scaled by 1/(k * x_period) so the surface closes up through the unit cube
exactly once along the axis.

Scaling is exact, so the k-lobed members inherit h_k = k h_1 and
Area_k = Area_1 / k identically up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import FLAT_T3
from .grids import torus_grid
from .surfaces import Immersion

__all__ = ["DelaunayProfile", "DelaunayConstructionError", "solve_profile",
           "delaunay_torus"]

_H0 = 1.0  # unscaled profile mean curvature


class DelaunayConstructionError(ValueError):
    """No admissible periodic profile for the requested parameters."""


def _agm(m1: float) -> tuple[list, list]:
    """Descending AGM a_n, c_n of parameter m = 1 - m1 (A&S 17.6.2), from
    a_0 = 1, b_0 = sqrt(m1), c_0 = sqrt(m), until c_N is below rounding;
    c_{n+1} = c_n^2 / (4 a_{n+1}) avoids the cancellation in a_n - b_n."""
    a, b, c = [1.0], np.sqrt(m1), [np.sqrt(1.0 - m1)]
    while c[-1] > 1e-17 * a[-1]:
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        c.append(c[-1] ** 2 / (4.0 * a[-1]))
        b = np.sqrt(a_prev * b)
    return a, c


def _elliptic(w, m1: float) -> tuple:
    """(sn, cn, dn, epsilon, K, E) of parameter m = 1 - m1: the Jacobi
    elliptic functions and Jacobi's epsilon E(am w | m) at w, and the complete
    integrals K(m), E(m), all from one AGM sequence (A&S 16.4.3, 17.6.4,
    17.6.9)."""
    a, c = _agm(m1)
    N = len(a) - 1
    K = np.pi / (2.0 * a[N])
    E = K * (1.0 - 0.5 * sum(2.0 ** n * c[n] ** 2 for n in range(N + 1)))
    w = np.asarray(w, dtype=float)
    phi = 2.0 ** N * a[N] * w
    zeta = 0.0        # Jacobi's zeta function, sum of c_n sin(phi_n)
    for n in range(N, 0, -1):
        s = np.sin(phi)
        zeta = zeta + c[n] * s
        phi = 0.5 * (phi + np.arcsin(c[n] / a[n] * s))
    sn, cn = np.sin(phi), np.cos(phi)
    # dn^2 = m1 + m cn^2 is a sum of positive terms, also near dn = sqrt(m1)
    dn = np.sqrt(m1 + (1.0 - m1) * cn * cn)
    return sn, cn, dn, E / K * w + zeta, K, E


def _profile_curve(neck: float, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, r, phi) at t of the h = 1 profile through its neck at t = 0."""
    a, b = 2.0 * neck / (1.0 + neck), 2.0 / (1.0 + neck)
    m1 = neck * neck
    w = 0.5 * b * np.asarray(t, dtype=float)
    sn, cn, dn, eps, _, _ = _elliptic(w, m1)
    msc = (1.0 - m1) * sn * cn
    return a * w + b * (eps - msc / dn), a / dn, np.arctan2(b * msc, a + b * dn * dn)


@dataclass
class DelaunayProfile:
    """One fundamental period of the unduloid profile at h = 1."""

    neck: float          # neck/bulge radius ratio in (0, 1)
    r_neck: float
    r_bulge: float
    t_period: float      # period in the conformal parameter
    x_period: float      # period along the rotation axis

    def evaluate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, r, phi) at conformal parameters t, with t = 0 at a neck."""
        return _profile_curve(self.neck, t)


def solve_profile(neck: float) -> DelaunayProfile:
    """One period of the unduloid profile with neck ratio ``neck``."""
    # neck^2 is the complementary elliptic parameter and must not underflow
    if not 0.0 < neck < 1.0 or neck * neck == 0.0:
        raise DelaunayConstructionError(f"neck ratio must lie in (0,1), got {neck}")
    r_neck = 2.0 * neck / (1.0 + neck)
    r_bulge = 2.0 / (1.0 + neck)
    *_, K, _ = _elliptic(0.0, neck * neck)
    t_period = 4.0 * K / r_bulge
    x, r, phi = _profile_curve(neck, [0.5 * t_period, t_period])
    # written so that a NaN fails the checks
    if not (abs(r[1] - r_neck) <= 1e-8 and abs(phi[1]) <= 1e-8):
        raise DelaunayConstructionError(
            f"profile with neck={neck} failed periodicity: "
            f"|r-a|={abs(r[1] - r_neck):.2e}, |phi|={abs(phi[1]):.2e}")
    if not abs(r[0] - r_bulge) <= 1e-8:
        raise DelaunayConstructionError(
            f"profile with neck={neck} missed the bulge radius: "
            f"got {r[0]:.12f}, expected {r_bulge:.12f}")
    return DelaunayProfile(neck, r_neck, r_bulge, float(t_period), float(x[1]))


def delaunay_torus(k: int, neck: float, nx: int, ny: int,
                   profile: DelaunayProfile | None = None) -> Immersion:
    """k-lobed Delaunay torus immersed in the flat unit 3-torus.

    The chart is the doubly periodic conformal (t, theta) rectangle covering
    k profile periods; the scaled surface runs once through the fundamental
    domain along the first axis.  Coordinates are kept as unwrapped lifts.
    """
    if k < 1:
        raise DelaunayConstructionError("lobe count k must be >= 1")
    prof = profile or solve_profile(neck)
    scale = 1.0 / (k * prof.x_period)
    if scale * prof.r_bulge >= 0.5:
        raise DelaunayConstructionError(
            f"k={k}, neck={neck}: scaled bulge radius {scale * prof.r_bulge:.4f} "
            "does not fit the fundamental domain (needs < 1/2)")

    lx = k * prof.t_period
    grid = torus_grid(nx, ny, lx=lx, ly=2.0 * np.pi)
    t = grid.x
    wraps = np.floor(t / prof.t_period + 1e-13)
    t_loc = t - wraps * prof.t_period
    x_prof, r, phi = prof.evaluate(t_loc)
    x_full = x_prof + wraps * prof.x_period

    th = grid.y
    ct, st = np.cos(th), np.sin(th)
    cphi, sphi = np.cos(phi), np.sin(phi)
    one = np.ones_like(th)

    def assemble(f_ax, f_rad):
        # f_ax, f_rad are functions of t only; tensorize against theta.
        out = np.empty((nx, ny, 3))
        out[..., 0] = np.outer(f_ax, one)
        out[..., 1] = np.outer(f_rad, ct)
        out[..., 2] = np.outer(f_rad, st)
        return out

    c = scale
    u = assemble(c * x_full, c * r)
    ut = assemble(c * r * cphi, c * r * sphi)
    # theta-derivatives rotate the radial part.
    utheta = np.empty((nx, ny, 3))
    utheta[..., 0] = 0.0
    utheta[..., 1] = np.outer(c * r, -st)
    utheta[..., 2] = np.outer(c * r, ct)
    # d/dt(r cos phi) = h r^2 sin phi,  d/dt(r sin phi) = r - h r^2 cos phi.
    utt = assemble(c * _H0 * r * r * sphi, c * (r - _H0 * r * r * cphi))
    uttheta = np.empty((nx, ny, 3))
    uttheta[..., 0] = 0.0
    uttheta[..., 1] = np.outer(c * r * sphi, -st)
    uttheta[..., 2] = np.outer(c * r * sphi, ct)
    uthth = np.empty((nx, ny, 3))
    uthth[..., 0] = 0.0
    uthth[..., 1] = np.outer(c * r, -ct)
    uthth[..., 2] = np.outer(c * r, -st)

    h_scaled = _H0 / scale
    imm = Immersion(FLAT_T3, grid, u, ut, utheta, utt, uttheta, uthth,
                    genus=1, branch_count=0, cmc_value=h_scaled,
                    name=f"delaunay_t3(k={k}, neck={neck})",
                    reference={
                        "k": k, "neck": neck,
                        "profile_t_period": prof.t_period,
                        "profile_x_period": prof.x_period,
                        "index_lower_bound": 2 * k - 2,
                        "h_exact": h_scaled,
                    })
    return imm
