"""Variation fields and the first/second variation forms of area, energy
and enclosed volume, the infinitesimal conformal defect, the comparison
identity tying them together, and finite-difference oracles.

Sampled variation fields are differenced with the grid's 8th-order stencils;
all surface data stays analytic, so the discretization error of every
quadratic form is controlled by the variation field's resolution alone and
shrinks at 8th order under refinement.

Sign conventions (pinned by the round-sphere oracle tests):

* dA(u)[v]   = -int <H, s> dSigma          (inward-oriented unit sphere: -8 pi rho);
* dV_h(u)[v] = +int <v, h nu> dSigma       (same sphere: +8 pi rho, so A_h is critical);
* d2V_h(u)[nu, nu] = -h^2 Area on CMC spheres (the oriented primitive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Callable, Optional, Union

import numpy as np

from . import ambient as amb
from .surfaces import Immersion

__all__ = [
    "VariationField", "DefectField", "normal_variation", "seeded_variation",
    "random_scalar", "conformal_defect",
    "first_variation_area", "first_variation_volume",
    "second_variation_area", "second_variation_energy",
    "second_variation_volume", "second_variation_area_h",
    "second_variation_energy_h", "jacobi_form", "comparison_identity_residual",
    "fd_second_variation", "peter_paul_margin", "ChartExitError", "FUNCTIONALS",
]

FUNCTIONALS = ("area", "energy", "volume_h", "area_h", "energy_h")


# ----------------------------------------------------------------- the fields

@dataclass
class VariationField:
    """A section v of u^* TN with its tangential/normal splitting."""

    imm: Immersion
    v: np.ndarray  # (nx, ny, d), tangent to N along u

    def __post_init__(self):
        self.v = amb.project_tangent(self.imm.space, self.imm.u,
                                     np.asarray(self.v, dtype=float))

    @cached_property
    def f(self) -> np.ndarray:
        """Normal component <v, nu>."""
        return amb.inner(self.imm.space, self.v, self.imm.nu)

    @cached_property
    def s(self) -> np.ndarray:
        return self.f[..., None] * self.imm.nu

    @cached_property
    def sigma(self) -> np.ndarray:
        return self.v - self.s

    @cached_property
    def sigma_chart(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart components (alpha, beta) with sigma = alpha u_x + beta u_y."""
        imm = self.imm
        inv = 1.0 / imm.e2lam
        return (amb.inner(imm.space, self.sigma, imm.ux) * inv,
                amb.inner(imm.space, self.sigma, imm.uy) * inv)

    def norm_inf(self) -> float:
        return self._norm_inf

    @cached_property
    def _sq_norm(self) -> np.ndarray:
        """<v, v> pointwise, shared by every t of the FD oracle."""
        return amb.inner(self.imm.space, self.v, self.v)

    @cached_property
    def _norm(self) -> np.ndarray:
        return np.sqrt(self._sq_norm)

    @cached_property
    def _norm_inf(self) -> float:
        return float(self._norm.max())

    def _chart_partials(self) -> tuple[np.ndarray, np.ndarray]:
        """Stencil chart derivatives (d_x v, d_y v).  Not cached: the FD
        oracle keeps only their inner products (``_FrameData``)."""
        return self.imm.grid.diff_x(self.v), self.imm.grid.diff_y(self.v)

    @cached_property
    def _normal_jet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(<nabla_x s, nu>, <nabla_y s, nu>, A(sigma, sigma)) in the chart,
        shared by the area and volume Hessians."""
        imm = self.imm
        sp, sf = imm.space, imm.second_form
        dxs, dys = _cov(imm, self.s)
        px = amb.inner(sp, dxs, imm.nu)
        py = amb.inner(sp, dys, imm.nu)
        al, be = self.sigma_chart
        a_sigma = al * al * sf.a_xx + 2.0 * al * be * sf.a_xy + be * be * sf.a_yy
        return px, py, a_sigma

    @cached_property
    def _fd_memo(self) -> dict:
        """t -> (area, energy, volume flux) of exp_u(t v), under the exact t;
        see ``_fd_values``."""
        return {}


def _as_field(imm: Immersion, v) -> VariationField:
    if isinstance(v, VariationField):
        if v.imm is not imm:
            raise ValueError("variation field belongs to a different immersion")
        return v
    return VariationField(imm, np.asarray(v, dtype=float))


def normal_variation(imm: Immersion, f: np.ndarray) -> VariationField:
    """Purely normal variation v = f nu."""
    return VariationField(imm, np.asarray(f)[..., None] * imm.nu)


# ----------------------------------------------------- random fields (seeded)

def _degree(degree: int | None) -> int:
    """The degree of a seeded scalar field: 2 for None, else a non-negative
    integer (0 is the constant field)."""
    if degree is None:
        return 2
    if isinstance(degree, bool) or not isinstance(degree, Integral) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer or None, got {degree!r}")
    return int(degree)


def _torus_degree(g, degree: int | None) -> int:
    # degree 2 keeps mode-product aliasing of the 8th-order stencils near,
    # not safely below, the 1e-6 identity-residual budget: over 200
    # variations at 64x64 the Clifford torus peaks at 1.01e-6 and 1.04e-6
    # (CLI seeds 697501 and 601682), the Delaunay torus k=2 at 9.9e-7
    # (828851)
    return min(_degree(degree), g.nx // 4, g.ny // 4)


def _raw_draws(rng: np.random.Generator, torus: bool, size: int) -> np.ndarray:
    """The next ``size`` draws of ``rng`` in the seeded fields' order,
    unscaled: the one place that fixes that order, which every seeded field
    and its span coefficients are read from.

    Torus charts (``torus`` true) draw per term a normal and two uniforms
    in turn, one rng call each (``size`` a multiple of 3).  Sphere charts
    draw normals alone, so one rng call gives the same stream as one call
    per coefficient block.  Either stream is a prefix of any longer one
    from the same generator state: the draws of d fields are the first
    draws of those of more fields."""
    if torus:
        calls = (rng.standard_normal, rng.random, rng.random) * (size // 3)
        return np.array([draw() for draw in calls])
    return rng.standard_normal(size)


def _draw_scales(imm: Immersion, degree: int | None, decay: float) -> np.ndarray:
    """The factors that scale one field's ``_raw_draws`` into its
    ``_scalar_draws``: (T, 3) on torus charts, (K,) on sphere charts."""
    g = imm.grid
    if g.topology == "torus":
        m = _torus_degree(g, degree)
        # per term (decay ** (j + k), 2 pi, 2 pi), from Python's ** (numpy's
        # power differs in the last bit); random() * 2 pi is uniform(0, 2 pi)
        # bit for bit (numpy draws it as low + (high - low) next_double)
        return np.array([(decay ** (j + k), 2 * np.pi, 2 * np.pi)
                         for j in range(m + 1) for k in range(m + 1)])
    d, deg = imm.space.dim, min(_degree(degree), 2)
    sizes = (1, d, d * d)[:deg + 1]
    return np.repeat((1.0, 0.6, 0.35)[:deg + 1], sizes)


def _scalar_draws(imm: Immersion, rng: np.random.Generator, degree: int | None,
                  decay: float, count: int = 1) -> np.ndarray:
    """The rng draws of ``count`` consecutive seeded scalar fields from one
    generator (``_raw_draws``), scaled (``_draw_scales``).

    Torus charts: (count, T, 3), per term (amplitude, x phase, y phase) of
    amplitude cos(j xi + x phase) cos(k eta + y phase), for the T = (m + 1)^2
    terms j, k <= m with k running fastest.  Sphere charts: (count, K), the
    constant, the d linear and the d x d quadratic (row-major) coefficients
    of a polynomial in the ambient coordinates, K = 1 + d + d^2 at degree 2
    and 1 + d or 1 below.
    """
    scales = _draw_scales(imm, degree, decay)
    raw = _raw_draws(rng, imm.grid.topology == "torus", count * scales.size)
    return raw.reshape((count,) + scales.shape) * scales


def _chart_angles(g) -> tuple[np.ndarray, np.ndarray]:
    return (2.0 * np.pi * (g.x - g.x_range[0]) / (g.x_range[1] - g.x_range[0]),
            2.0 * np.pi * (g.y - g.y_range[0]) / (g.y_range[1] - g.y_range[0]))


def _scalar_field(imm: Immersion, draws: np.ndarray) -> np.ndarray:
    """The seeded scalar field of one field's ``_scalar_draws``."""
    g = imm.grid
    if g.topology == "torus":
        # each cosine factor depends on one chart axis: evaluate it there and
        # combine by broadcasting (same values as on the mesh)
        xi, eta = _chart_angles(g)
        width = math.isqrt(len(draws))
        out = np.zeros((g.nx, g.ny))
        for t, (amp, phx, phy) in enumerate(draws.tolist()):
            j, k = divmod(t, width)
            fx = amp * np.cos(j * xi + phx)
            out += fx[:, None] * np.cos(k * eta + phy)
        return out
    p, d = imm.u, imm.space.dim
    out = draws[0] * np.ones(p.shape[:2])
    if len(draws) > 1:
        out = out + p @ draws[1:1 + d]
    if len(draws) > 1 + d:
        # sum_ab (p_a c_ab) p_b from zero in row-major (a, b) order, over
        # contiguous components: np.einsum("...a,ab,...b->...", p, c2, p)
        # bit for bit, in a third to a half of its time
        c2 = draws[1 + d:].reshape(d, d)
        comps = [np.ascontiguousarray(p[..., a]) for a in range(d)]
        quad = np.zeros(p.shape[:2])
        for a in range(d):
            for b in range(d):
                quad += (comps[a] * c2[a, b]) * comps[b]
        out = out + quad
    return out


# amplitude decay of ``random_scalar``'s torus modes
_SCALAR_DECAY = 0.3


def random_scalar(imm: Immersion, rng: np.random.Generator,
                  degree: int | None = None) -> np.ndarray:
    """Seeded smooth random scalar field, resolved by the grid.

    Torus charts use trigonometric polynomials in the chart angles (degree
    capped at resolution/4); sphere charts use polynomials of degree at most
    2 in the ambient coordinates restricted to the surface, which is the
    band-limited analogue there (chart trig polynomials are not smooth
    across the poles).  ``degree`` None means 2 and 0 the constant field; a
    negative or non-integer degree raises ``ValueError``.
    """
    return _scalar_field(imm, _scalar_draws(imm, rng, degree, _SCALAR_DECAY)[0])


# amplitude decay of the seeded variations' torus modes
_VARIATION_DECAY = 0.35


def seeded_variation(imm: Immersion, seed: int) -> VariationField:
    """Seeded smooth random section of u^* TN (tangency enforced): one
    ``random_scalar`` per ambient axis, drawn in turn from one generator
    (one ``_scalar_draws`` call for all d).

    The seed is the whole recipe: the same seed gives the same field bit for
    bit, which is how ``span`` reads the seeded fields back.
    """
    draws = _scalar_draws(imm, np.random.default_rng(seed), None, _VARIATION_DECAY,
                          count=imm.space.dim)
    return VariationField(imm, np.stack([_scalar_field(imm, x) for x in draws], axis=-1))


# ------------------------------------------------------ covariant derivatives

def _cov(imm: Immersion, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariant chart derivatives (nabla_x w, nabla_y w) of a sampled field."""
    g, sp = imm.grid, imm.space
    dx = g.diff_x(w)
    dy = g.diff_y(w)
    if sp.kind in ("S3", "H3"):
        dx += amb.covariant_correction(sp, imm.u, imm.ux, w)
        dy += amb.covariant_correction(sp, imm.u, imm.uy, w)
    return dx, dy


# -------------------------------------------------------------- defect fields

@dataclass
class DefectField:
    """Infinitesimal conformal defect eta with its two integral densities."""

    eta: np.ndarray          # complex (nx, ny, d)
    density: np.ndarray      # |eta|^2, a dx dy density
    integral_chart: float    # 8 int |eta|^2 dx dy
    integral_surface: float  # 4 int |mu|^2 dSigma (identical by construction)


def conformal_defect(imm: Immersion, v) -> DefectField:
    """eta = (nabla_z sigma^{0,1})^T - 2 e^{-2lam} <s, A(u_z,u_z)> u_zbar.

    The tangential projection is applied after differentiating, consistent
    with the continuum formula.
    """
    vf = _as_field(imm, v)
    sp = imm.space
    inv2 = 2.0 * (1.0 / imm.e2lam)[..., None]
    uz, uzb = imm.uz, imm.uzbar
    sig01 = inv2 * amb.inner(sp, vf.sigma, uz)[..., None] * uzb
    dx, dy = _cov(imm, sig01)
    # dz = (dx - i dy) / 2 and eta = 2 e^{-2lam} (<dz, uzb> uz + <dz, uz> uzb
    # - <s, A(uz, uz)> uzb), built in place: the same products and sums as the
    # direct expressions, with fewer full-size temporaries
    dz = 1j * dy
    np.subtract(dx, dz, out=dz)
    dz *= 0.5
    eta = amb.inner(sp, dz, uzb)[..., None] * uz
    eta += amb.inner(sp, dz, uz)[..., None] * uzb
    eta *= inv2
    eta -= inv2 * (vf.f * imm.second_form.azz)[..., None] * uzb
    density = amb.inner(sp, eta, eta.conj()).real
    chart = 8.0 * float(imm.integrate_chart(density).real)
    # |mu|^2 = 2 e^{-2lam} |eta|^2 turns the dx dy form into the dSigma form.
    surface = 4.0 * imm.integrate(2.0 * np.exp(-2.0 * imm.lam) * density)
    return DefectField(eta, density, chart, surface)


# ------------------------------------------------------------ first variations

def first_variation_area(imm: Immersion, v) -> float:
    vf = _as_field(imm, v)
    return -imm.integrate(imm.second_form.mean_scalar * vf.f)


def first_variation_volume(imm: Immersion, v, h_fn: Union[float, Callable]) -> float:
    vf = _as_field(imm, v)
    hvals = h_fn(imm.u) if callable(h_fn) else float(h_fn)
    return imm.integrate(hvals * vf.f)


# ----------------------------------------------------------- second variations

def second_variation_area(imm: Immersion, v) -> float:
    """Full area Hessian along arbitrary (non-normal) variations."""
    vf = _as_field(imm, v)
    sp = imm.space
    sf = imm.second_form
    e2i = 1.0 / imm.e2lam
    px, py, a_sigma = vf._normal_jet
    grad_perp = e2i * (px ** 2 + py ** 2)
    rm = e2i * (amb.riemann(sp, imm.u, vf.s, imm.ux, imm.ux, vf.s)
                + amb.riemann(sp, imm.u, vf.s, imm.uy, imm.uy, vf.s))
    al, be = vf.sigma_chart
    integrand = (grad_perp
                 - sf.norm_sq * vf.f ** 2
                 - rm
                 + (sf.mean_scalar * vf.f) ** 2
                 + a_sigma * sf.mean_scalar
                 + 2.0 * (al * px + be * py) * sf.mean_scalar)
    return imm.integrate(integrand)


def second_variation_energy(imm: Immersion, v) -> float:
    """Dirichlet-energy Hessian: int |nabla v|^2 - curvature term, dx dy."""
    vf = _as_field(imm, v)
    sp = imm.space
    dxv, dyv = _cov(imm, vf.v)
    grad = amb.inner(sp, dxv, dxv) + amb.inner(sp, dyv, dyv)
    rm = (amb.riemann(sp, imm.u, vf.v, imm.ux, imm.ux, vf.v)
          + amb.riemann(sp, imm.u, vf.v, imm.uy, imm.uy, vf.v))
    return float(imm.integrate_chart(grad - rm))


def second_variation_volume(imm: Immersion, v, h_fn: Union[float, Callable],
                            grad_h_fn: Optional[Callable] = None) -> float:
    """Hessian of the enclosed-volume functional with weight dalpha = H dV_N."""
    vf = _as_field(imm, v)
    sf = imm.second_form
    sp = imm.space
    hvals = h_fn(imm.u) if callable(h_fn) else float(h_fn)
    px, py, a_sigma = vf._normal_jet
    al, be = vf.sigma_chart
    integrand = (-hvals * vf.f * (sf.mean_scalar * vf.f)
                 - 2.0 * hvals * (al * px + be * py)
                 - hvals * a_sigma)
    if grad_h_fn is not None:
        grad = np.asarray(grad_h_fn(imm.u), dtype=float)
        integrand = integrand + vf.f * vf.f * amb.inner(sp, grad, imm.nu)
    return imm.integrate(integrand)


def _require_cmc(imm: Immersion):
    if np.isnan(imm.cmc_value):
        raise ValueError("operation requires a CMC immersion with declared h")


def second_variation_area_h(imm: Immersion, v) -> float:
    """Hessian of A + V_h at a CMC immersion (sees only the normal part)."""
    _require_cmc(imm)
    return second_variation_area(imm, v) + second_variation_volume(imm, v, imm.cmc_value)


def second_variation_energy_h(imm: Immersion, v) -> float:
    _require_cmc(imm)
    return second_variation_energy(imm, v) + second_variation_volume(imm, v, imm.cmc_value)


def jacobi_form(imm: Immersion, f: np.ndarray) -> float:
    """int |grad f|^2 - (|A|^2 + Ric(nu,nu)) f^2 dSigma (normal-part route)."""
    g = imm.grid
    fx, fy = g.diff_x(f), g.diff_y(f)
    stiff = float(imm.integrate_chart(fx * fx + fy * fy))
    return stiff - imm.integrate(imm.jacobi_potential * f * f)


# --------------------------------------------------------- comparison identity

def comparison_identity_residual(imm: Immersion, v) -> dict:
    """Residual of d2A = d2E - 8 int |eta|^2 dx dy for a conformal immersion."""
    vf = _as_field(imm, v)
    d2a = second_variation_area(imm, vf)
    d2e = second_variation_energy(imm, vf)
    defect = conformal_defect(imm, vf)
    resid = abs(d2a - d2e + defect.integral_chart)
    return {
        "d2_area": d2a,
        "d2_energy": d2e,
        "defect_chart": defect.integral_chart,
        "defect_surface": defect.integral_surface,
        "residual_abs": resid,
        "residual_rel": resid / max(abs(d2a), abs(d2e), 1.0),
    }


# -------------------------------------------------------------- finite differences

class ChartExitError(RuntimeError):
    """Deformation left the valid chart region of the ambient space."""


class _FrameData:
    """The t-independent data of the deformed frames exp_u(t v) of one field.

    With the geodesic coefficients C, S and g2 at th = t |v| (C = S = 1 and
    kappa = 0 on the flat spaces), the frame of exp_u(t v) is

        p = C u + t S v,         p_t = -kappa t |v|^2 S u + C v,
        p_x = C u_x + t S d_x v + <v, d_x v> (lam u + mu v),

    with lam = -kappa t^2 S, mu = t^3 g2, and p_y alike.  So the metric
    coefficients are quadratic in the pointwise inner products of u_x, u_y,
    d_x v, d_y v, u and v, and since p ^ p_t = (C^2 + kappa t^2 |v|^2 S^2)
    u ^ v, the flux density dV_N(p, p_t, p_x, p_y) is that factor times a
    combination of the volume forms dV_N(u; v, X, Y), X in (u_x, d_x v), Y
    in (u_y, d_y v).  The products with u and v enter only through lam and
    mu, which vanish on the flat spaces; on S3 and H3, kappa <u, u> = 1 and
    <u, u_x> = <u, u_y> = <u, v> = 0 (to roundoff: u lies on the quadric and
    v is projected tangent).  ``fields`` computes the products and forms
    once, on first use; a t then costs one evaluation of the geodesic
    coefficients and a few scalar-field products, and no four-vector.
    """

    def __init__(self, vf: VariationField):
        self.imm, self.vf = vf.imm, vf

    @cached_property
    def fields(self) -> tuple[dict, Optional[tuple]]:
        """(inner products by name, flux forms), the forms on CMC immersions
        only.  Names: ux, uy, vx = d_x v, vy = d_y v, u and v; the flux forms
        are dV_N(u; v, u_x, u_y), the sum of dV_N(u; v, u_x, d_y v) and
        dV_N(u; v, d_x v, u_y), and dV_N(u; v, d_x v, d_y v)."""
        imm, vf = self.imm, self.vf
        sp, u, v = imm.space, imm.u, vf.v
        dxv, dyv = vf._chart_partials()
        vec = {"ux": imm.ux, "uy": imm.uy, "vx": dxv, "vy": dyv, "u": u, "v": v}
        keys = ["ux.vx", "vx.vx", "uy.uy", "uy.vy", "vy.vy", "ux.uy", "vx.vy"]
        if sp.curvature != 0.0:
            keys += ["ux.v", "uy.v", "vx.u", "vy.u", "vx.v", "vy.v"]
        m = {"ux.ux": imm.e2lam, "v.v": vf._sq_norm}
        for key in keys:
            a, b = key.split(".")
            m[key] = amb.inner(sp, vec[a], vec[b])
        m["ux.vy+vx.uy"] = amb.inner(sp, imm.ux, dyv)
        m["ux.vy+vx.uy"] += amb.inner(sp, dxv, imm.uy)
        forms = None
        if not np.isnan(imm.cmc_value):
            if sp.kind == "S3":
                # the determinant of the rows (u, v, X, Y), expanded along
                # (u, v): their minors are shared by the four forms
                uv = amb._minors(u, v)

                def form(x, y):
                    return amb._laplace(uv, amb._minors(x, y))
            else:
                def form(x, y):
                    return amb.volume_form(sp, u, v, x, y)
            cross = form(imm.ux, dyv)
            cross += form(dxv, imm.uy)
            forms = (form(imm.ux, imm.uy), cross, form(dxv, dyv))
        return m, forms

    def integrals(self, t: float, want_flux: bool):
        """(area, energy, volume flux or None) of exp_u(t v)."""
        imm, vf = self.imm, self.vf
        m, forms = self.fields
        k = imm.space.curvature
        c = s = 1.0
        if k != 0.0:
            geo = amb._Geodesic(imm.space, imm.u, vf.v, t, vf._sq_norm, vf._norm)
            c, s = geo.ct, geo.st
        ts = t * s
        cc, cs, ss = c * c, c * ts, ts * ts
        g11 = cc * m["ux.ux"] + 2.0 * cs * m["ux.vx"] + ss * m["vx.vx"]
        g22 = cc * m["uy.uy"] + 2.0 * cs * m["uy.vy"] + ss * m["vy.vy"]
        g12 = cc * m["ux.uy"] + cs * m["ux.vy+vx.uy"] + ss * m["vx.vy"]
        if k != 0.0:
            # p_i = (C u_i + t S d_i v) + q_i n, q_i = <v, d_i v>, n = lam u + mu v
            lam, mu = -k * t * t * s, t ** 3 * geo.g2
            nn = k * (t * t * s) ** 2 + mu * mu * m["v.v"]
            qx, qy = m["vx.v"], m["vy.v"]
            pnx = c * mu * m["ux.v"] + ts * (lam * m["vx.u"] + mu * qx)
            pny = c * mu * m["uy.v"] + ts * (lam * m["vy.u"] + mu * qy)
            g11 += qx * (2.0 * pnx + qx * nn)
            g22 += qy * (2.0 * pny + qy * nn)
            g12 += qy * pnx + qx * pny + qx * qy * nn
        area = float(imm.integrate_chart(np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 0.0))))
        energy = float(imm.integrate_chart(0.5 * (g11 + g22)))
        flux = None
        if want_flux:
            v_uu, v_cross, v_dd = forms
            dvol = cc * v_uu + cs * v_cross + ss * v_dd
            if k != 0.0:
                dvol *= cc + k * t * t * m["v.v"] * (s * s)
            flux = float(imm.integrate_chart(imm.cmc_value * dvol))
        return area, energy, flux


def _fd_values(frame: _FrameData, t: float):
    """(area, energy, volume flux) of the deformed immersion exp_u(t v).

    The floats are memoised on the field under the exact t (the difference
    stencils revisit t = 0, +-step/2, +-step, +-2 step), so a value does not
    depend on the calls made before it.  A t not in the memo is evaluated
    from the field's ``frame`` data, which agrees with integrals of the
    frames themselves (``exp_map``, ``exp_directional``, ``exp_velocity``)
    to roundoff, 1e-13 relative.  The volume flux d/dt V_h =
    int h dV_N(p_t, p_x, p_y) is taken on CMC immersions only and never at
    t = 0, where no stencil samples it (None there).  A t that leaves the S3
    chart raises before anything is evaluated and stores nothing.
    """
    imm, vf = frame.imm, frame.vf
    memo = vf._fd_memo
    if t not in memo:
        if imm.space.kind == "S3" and abs(t) * vf.norm_inf() > 0.5 * np.pi:
            raise ChartExitError("geodesic deformation exceeds the S3 chart range")
        memo[t] = frame.integrals(t, t != 0.0 and not np.isnan(imm.cmc_value))
    return memo[t]


def _second_difference(fn, step):
    f0 = fn(0.0)

    def d2(h):
        return (-fn(2 * h) + 16 * fn(h) - 30 * f0 + 16 * fn(-h) - fn(-2 * h)) / (12 * h * h)
    return (16.0 * d2(0.5 * step) - d2(step)) / 15.0


def _first_difference(fn, step):
    def d1(h):
        return (-fn(2 * h) + 8 * fn(h) - 8 * fn(-h) + fn(-2 * h)) / (12 * h)
    return (16.0 * d1(0.5 * step) - d1(step)) / 15.0


def fd_second_variation(functional: str, imm: Immersion, v,
                        step: float | None = None) -> float:
    """Finite-difference Hessian along the geodesic deformation exp_u(t v).

    Area/energy functionals are differenced with the 5-point central second
    difference plus one Richardson level.  The enclosed volume has no global
    primitive 2-form off R^3, so its Hessian is the matching central first
    difference of the exact first-variation flux.

    The stencils visit seven parameters t: 0, +-step/2, +-step, +-2 step.
    Per call, the t-independent data of the deformed frames (``_FrameData``:
    pointwise inner products and volume forms of u_x, u_y, d_x v, d_y v, u
    and v) is built on the first t the field's memo does not hold; per t,
    one evaluation of the geodesic coefficients and a few scalar-field
    products give the area, energy and volume-flux integrals, memoised on
    the field.  So the oracles of all five functionals on one field and step
    build that data once and evaluate seven t, and the result does not
    depend on the calls made before it.
    ``step`` (default 1e-3 max(1, inj) / max|v|) must be finite and > 0.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if step is not None and not 0.0 < step < np.inf:
        raise ValueError(f"fd step must be finite and > 0, got {step!r}")
    vf = _as_field(imm, v)
    vmax = vf.norm_inf()
    if vmax == 0.0:
        return 0.0
    if step is None:
        inj = np.pi if imm.space.kind == "S3" else 1.0
        step = 1e-3 * max(1.0, inj) / vmax

    frame = _FrameData(vf)

    def area(t):
        return _fd_values(frame, t)[0]

    def energy(t):
        return _fd_values(frame, t)[1]

    def flux(t):
        return _fd_values(frame, t)[2]

    if functional == "area":
        return _second_difference(area, step)
    if functional == "energy":
        return _second_difference(energy, step)
    _require_cmc(imm)
    if functional == "volume_h":
        return _first_difference(flux, step)
    if functional == "area_h":
        return _second_difference(area, step) + _first_difference(flux, step)
    return _second_difference(energy, step) + _first_difference(flux, step)


# ----------------------------------------------------------- pointwise bounds

def peter_paul_margin(imm: Immersion, v, eps: float) -> np.ndarray:
    """Pointwise margin of the Peter-Paul estimate on the volume cross terms.

    rhs - lhs with lhs = |e^{-2lam} h (w(v, nabla_x v, u_y) + w(v, u_x, nabla_y v))|
    and rhs = eps h^2 |v|^2 + (2 eps)^{-1} e^{-2lam} (|nabla_x v|^2 + |nabla_y v|^2).
    ``eps`` must be finite and > 0.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"Peter-Paul eps must be finite and > 0, got {eps!r}")
    _require_cmc(imm)
    vf = _as_field(imm, v)
    sp = imm.space
    h = imm.cmc_value
    dxv, dyv = _cov(imm, vf.v)
    w1 = amb.volume_form(sp, imm.u, vf.v, dxv, imm.uy)
    w2 = amb.volume_form(sp, imm.u, vf.v, imm.ux, dyv)
    e2i = 1.0 / imm.e2lam
    lhs = np.abs(e2i * h * (w1 + w2))
    rhs = (eps * h * h * amb.inner(sp, vf.v, vf.v)
           + 0.5 / eps * e2i * (amb.inner(sp, dxv, dxv) + amb.inner(sp, dyv, dyv)))
    return rhs - lhs
