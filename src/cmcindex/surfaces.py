"""Sampled conformal immersions and their induced geometry.

An ``Immersion`` stores the map and its first and second chart partials,
evaluated analytically on a :class:`~cmcindex.grids.ParamGrid`.  All induced
quantities (conformal factor, oriented unit normal, second fundamental form,
mean curvature) are computed pointwise from this data; no grid differencing
of the surface itself is ever performed.

Conventions:

* chart coordinates (x, y) are isothermal: e^{2 lam} = |u_x|^2 = |u_y|^2;
* the unit normal nu is oriented by dV_N(nu, u_x, u_y) = e^{2 lam} > 0;
* the mean curvature vector is the full trace H = tr A = h nu on CMC
  surfaces (the unit round sphere in R^3 has h = 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ambient as amb
from .ambient import AmbientSpace
from .grids import ParamGrid

__all__ = [
    "Immersion", "SecondFormData", "BranchPointError",
    "area", "energy", "gauss_curvature", "cmc_residual", "conformality_residual",
]

_DEGENERATE = 1e-14


class BranchPointError(ValueError):
    """Raised when geometry is requested at a degenerate (branch) point."""


@dataclass
class SecondFormData:
    """Pointwise second-fundamental-form data of an immersion.

    ``a_xx, a_xy, a_yy`` are the scalar components <A(u_i, u_j), nu>;
    ``azz`` is the complex scalar <A(u_z, u_z), nu>; ``mean_scalar`` is
    tr A = <H, nu>; ``norm_sq`` is |A|^2.
    """

    a_xx: np.ndarray
    a_xy: np.ndarray
    a_yy: np.ndarray
    azz: np.ndarray
    mean_scalar: np.ndarray
    norm_sq: np.ndarray


@dataclass
class Immersion:
    """A sampled parametrized conformal immersion u: Sigma -> N."""

    space: AmbientSpace
    grid: ParamGrid
    u: np.ndarray    # (nx, ny, d)
    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray
    genus: int
    branch_count: int = 0
    cmc_value: float = np.nan
    name: str = "immersion"
    reference: dict = field(default_factory=dict)

    # --------------------------------------------------------- first order data
    @cached_property
    def e2lam(self) -> np.ndarray:
        g = amb.inner(self.space, self.ux, self.ux)
        # relative to the largest |u_x|^2, so a small surface is not degenerate
        if np.any(g <= _DEGENERATE * g.max()):
            raise BranchPointError(f"{self.name}: degenerate chart point "
                                   "(|u_x|^2 <= 1e-14 max |u_x|^2)")
        return g

    @cached_property
    def lam(self) -> np.ndarray:
        return 0.5 * np.log(self.e2lam)

    @cached_property
    def nu(self) -> np.ndarray:
        """Oriented unit normal: dV_N(nu, u_x, u_y) = e^{2 lam}."""
        sp = self.space
        if sp.kind in ("R3", "FlatT3"):
            n = np.cross(self.ux, self.uy)
        else:
            # Generalized cross product in the 4-dim representation: the
            # signature-corrected cofactor vector is metric-orthogonal to
            # p, u_x and u_y for both S3 and H3.
            n = sp.signature * amb.cofactor(self.u, self.ux, self.uy)
        n2 = amb.inner(sp, n, n)
        if np.any(n2 <= 0):
            raise BranchPointError(f"{self.name}: degenerate normal direction")
        n = n / np.sqrt(n2)[..., None]
        # Fix the global sign from the orientation convention at one point.
        w = amb.volume_form(sp, self.u[0, 0], n[0, 0], self.ux[0, 0], self.uy[0, 0])
        if w < 0:
            n = -n
        return n

    # -------------------------------------------------------- second order data
    @cached_property
    def second_form(self) -> SecondFormData:
        sp = self.space

        def corr(d1, d2, u2):
            if sp.kind in ("S3", "H3"):
                return u2 + amb.covariant_correction(sp, self.u, d1, d2)
            return u2

        c_xx = corr(self.ux, self.ux, self.uxx)
        c_xy = corr(self.ux, self.uy, self.uxy)
        c_yy = corr(self.uy, self.uy, self.uyy)
        nu = self.nu
        a_xx = amb.inner(sp, c_xx, nu)
        a_xy = amb.inner(sp, c_xy, nu)
        a_yy = amb.inner(sp, c_yy, nu)
        e2 = self.e2lam
        mean = (a_xx + a_yy) / e2
        norm_sq = (a_xx ** 2 + 2 * a_xy ** 2 + a_yy ** 2) / e2 ** 2
        azz = 0.25 * (a_xx - a_yy) - 0.5j * a_xy
        return SecondFormData(a_xx, a_xy, a_yy, azz, mean, norm_sq)

    @cached_property
    def ricci_nu(self) -> np.ndarray:
        """Ric_N(nu, nu) along the surface."""
        return 2.0 * self.space.curvature * np.ones(self.u.shape[:2])

    @cached_property
    def jacobi_potential(self) -> np.ndarray:
        """q = |A|^2 + Ric_N(nu, nu), the zeroth-order Jacobi term."""
        return self.second_form.norm_sq + self.ricci_nu

    # ------------------------------------------------------------- quadrature
    @cached_property
    def chart_weights(self) -> np.ndarray:
        return self.grid.chart_weights

    @cached_property
    def area_weights(self) -> np.ndarray:
        """Weights for integrals against the induced area element."""
        return self.chart_weights * self.e2lam

    def integrate(self, f: np.ndarray) -> float:
        """Integral of a sampled scalar against dSigma."""
        return float((self.area_weights * f).sum())

    def integrate_chart(self, f: np.ndarray) -> complex | float:
        """Integral of a sampled chart density against dx dy."""
        return (self.chart_weights * f).sum()

    # ------------------------------------------------------------- complex data
    @cached_property
    def uz(self) -> np.ndarray:
        return 0.5 * (self.ux - 1j * self.uy)

    @cached_property
    def uzbar(self) -> np.ndarray:
        return 0.5 * (self.ux + 1j * self.uy)


# ------------------------------------------------------------------ operations

def conformality_residual(imm: Immersion) -> float:
    """sup of the normalized conformality defect over the grid."""
    sp = imm.space
    gxx = amb.inner(sp, imm.ux, imm.ux)
    gyy = amb.inner(sp, imm.uy, imm.uy)
    gxy = amb.inner(sp, imm.ux, imm.uy)
    scale = np.maximum(gxx, gyy)
    return float(max(np.abs(gxx - gyy).max(), np.abs(gxy).max()) / scale.max())


def area(imm: Immersion) -> float:
    """Area(u) = integral of e^{2 lam} dx dy."""
    return float(imm.area_weights.sum())


def energy(imm: Immersion) -> float:
    """Dirichlet energy in the chart; equals the area for conformal maps."""
    sp = imm.space
    dens = 0.5 * (amb.inner(sp, imm.ux, imm.ux) + amb.inner(sp, imm.uy, imm.uy))
    return float(imm.integrate_chart(dens))


def cmc_residual(imm: Immersion) -> float:
    """sup |H - h nu| over the grid (h the declared CMC value)."""
    if np.isnan(imm.cmc_value):
        raise ValueError("immersion declares no CMC value")
    return float(np.abs(imm.second_form.mean_scalar - imm.cmc_value).max())


def gauss_curvature(imm: Immersion) -> np.ndarray:
    """Intrinsic K of the induced metric via K = -e^{-2 lam} Delta_0 lam.

    On sphere charts lam contains the chart factor log sin(theta), which is
    singular at the poles; its flat chart Laplacian is -sin^2(theta) exactly,
    so only the smooth remainder lam - log sin(theta) is differenced.
    """
    g = imm.grid
    if g.topology == "sphere":
        sin_th = np.sin(g.theta)[None, :]
        lam_reg = imm.lam - np.log(sin_th)
        lap = g.diff_x(g.diff_x(lam_reg)) + g.diff_y(g.diff_y(lam_reg)) - sin_th ** 2
    else:
        lam = imm.lam
        lap = g.diff_x(g.diff_x(lam)) + g.diff_y(g.diff_y(lam))
    return -np.exp(-2.0 * imm.lam) * lap
