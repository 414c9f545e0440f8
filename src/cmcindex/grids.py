"""Parameter grids, quadrature weights and differentiation stencils.

Two chart types are supported:

* torus charts: uniform, periodic in both directions, trapezoid quadrature
  (spectrally accurate for smooth periodic integrands);
* sphere charts: the conformal cylinder chart (longitude x, Mercator
  coordinate y = log tan(theta/2)), sampled on a midpoint-uniform colatitude
  grid.  Rows adjacent to theta = 0 and theta = pi close the chart over the
  poles: stencils reaching past a pole pick up the antipodal-longitude rows,
  so no one-sided differences are ever needed.

One stencil engine serves the whole package: ``ParamGrid.axis_stencil``
holds each stencil (the 8th-order centered first derivative and the sawtooth
filter) as a pair of dense 1-D matrices per chart axis, built once per grid.
The pole closure and the Mercator factor sin(theta) live only there.
``diff_x`` and ``diff_y`` apply the derivative pair to sampled fields,
``span`` reads the rows of the pair at the chart points of its Grams, and
``spectral`` assembles its stiffness from the same pairs.  Closed
surface data is always evaluated analytically; the fixed-order stencils only
touch sampled variation fields, which keeps their discretization error
visible and convergent under refinement instead of collapsing to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# 8th-order central first-derivative weights for offsets +1..+4 (antisymmetric).
_C8 = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])
# Centered fourth difference (offsets -2..+2); its symbol (2 sin(t/2))^4
# vanishes like t^4 on resolved modes but is 16 at the sawtooth, which makes
# it the natural stiffness regularizer for the wide first-derivative stencil.
_D4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
# the stiffness stencils as name -> (offsets, weights, spacing multiple): the
# 8th-order first derivative at offsets +1, -1, ..., +4, -4, and the filter
# Delta_4 / (16 h)
_AXIS_STENCILS = {
    "diff": ([s * k for k in range(1, 5) for s in (1, -1)],
             np.array([s * c for c in _C8 for s in (1, -1)]), 1),
    "filter": (list(range(-2, 3)), _D4, 16.0),
}


@dataclass(frozen=True)
class ParamGrid:
    """Tensor grid on a conformal chart of a closed surface: periodic in x,
    and in y on tori only."""

    topology: str                 # "torus" | "sphere"
    nx: int
    ny: int
    x_range: tuple[float, float]  # x period is x_range[1] - x_range[0]
    y_range: tuple[float, float]  # informational for sphere (Mercator span)

    def __post_init__(self):
        if self.topology not in ("torus", "sphere"):
            raise ValueError(f"unknown topology {self.topology!r}")
        check_resolution(self.nx, self.ny)
        if self.topology == "sphere" and self.nx % 2:
            raise ValueError("sphere grids need even nx for pole closure")

    # ------------------------------------------------------------------ nodes
    @cached_property
    def hx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_range[0] + self.hx * np.arange(self.nx)

    @cached_property
    def dtheta(self) -> float:
        if self.topology != "sphere":
            raise AttributeError("dtheta only exists on sphere grids")
        return np.pi / self.ny

    @cached_property
    def theta(self) -> np.ndarray:
        """Midpoint colatitude nodes; no node sits on a pole."""
        return (np.arange(self.ny) + 0.5) * self.dtheta

    @cached_property
    def hy(self) -> float:
        if self.topology == "sphere":
            raise AttributeError("sphere grids have no uniform chart spacing in y")
        return (self.y_range[1] - self.y_range[0]) / self.ny

    @cached_property
    def y(self) -> np.ndarray:
        """Chart y coordinate: uniform for tori, Mercator log tan(theta/2) for spheres."""
        if self.topology == "sphere":
            return np.log(np.tan(0.5 * self.theta))
        return self.y_range[0] + self.hy * np.arange(self.ny)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, indexing="ij")

    # -------------------------------------------------------------- quadrature
    @cached_property
    def theta_weights(self) -> np.ndarray:
        """Weights integrating smooth odd-symmetric integrands over (0, pi).

        Integrands appearing here always vanish at the poles like sin(theta),
        so they extend to smooth 2pi-periodic functions odd about both poles.
        Expanding in sin(k theta) on the midpoint grid and integrating each
        mode exactly gives an interpolatory rule with spectral accuracy.
        """
        n = self.ny
        th = self.theta
        w = np.zeros(n)
        for k in range(1, n, 2):
            w += (4.0 / (n * k)) * np.sin(k * th)
        if np.any(w <= 0):
            raise RuntimeError("colatitude quadrature weights not positive")
        return w

    @cached_property
    def chart_weights(self) -> np.ndarray:
        """Weights W with sum(W * F) ~ integral of F dx dy over the chart.

        On sphere charts dy = dtheta / sin(theta); the rule is accurate for
        chart densities decaying like sin^2(theta) at the poles, which covers
        every integrand produced by this package (area densities, defect
        densities, gradient-square densities).
        """
        if self.topology == "torus":
            return np.full((self.nx, self.ny), self.hx * self.hy)
        wy = self.theta_weights / np.sin(self.theta)
        return self.hx * np.broadcast_to(wy, (self.nx, self.ny)).copy()

    # ---------------------------------------------------------- differentiation
    def diff_x(self, f: np.ndarray) -> np.ndarray:
        """d/dx of a sampled field (nx, ny, ...), 8th order, periodic."""
        return self._apply_diff(0, f)

    def diff_y(self, f: np.ndarray) -> np.ndarray:
        """d/dy in chart coordinates (Mercator y on spheres)."""
        return self._apply_diff(1, f)

    def _apply_diff(self, axis: int, f: np.ndarray) -> np.ndarray:
        """The ``"diff"`` factors of ``axis_stencil`` applied along one axis.

        One small product per chart line, batched by ``np.matmul`` over the
        other axis; one product over the whole grid would cross BLAS's
        threading threshold.  Complex fields go through as (re, im) pairs.
        """
        f = np.asarray(f)
        f = np.ascontiguousarray(f, dtype=np.result_type(f.dtype, np.float64))
        g = f.reshape(self.nx, self.ny, -1)
        if np.iscomplexobj(g):
            g = g.view(np.float64)
        out = np.empty_like(g)
        P, Q = self.axis_stencil(axis, "diff")
        if axis == 0:
            np.matmul(P, g.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
        else:
            np.matmul(P, g, out=out)
            if self.topology == "sphere":
                # the flip factor enters through its nonzero rows only, and
                # reaches the antipodal longitude by a swap of the x halves
                rows = np.flatnonzero(Q.any(axis=1))
                flipped, h = np.matmul(Q[rows], g), self.nx // 2
                out[:h, rows] += flipped[h:]
                out[h:, rows] += flipped[:h]
        return out.view(f.dtype).reshape(f.shape)

    # ------------------------------------------------- 1-D axis stencils
    def axis_stencil(self, axis: int, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Dense 1-D matrices (interior, flip) of one stiffness stencil along
        one chart axis: ``"diff"`` is d/dx or the chart d/dy, ``"filter"``
        the sawtooth penalty Delta_4 / (16 h).

        On C-order flattened (nx, ny) fields the x stencil is
        kron(interior, I) and the y stencil kron(I, interior) +
        kron(Pi, flip), with Pi the shift of x by nx/2.  Periodic axes wrap
        into ``interior`` and leave ``flip`` zero; on sphere charts a
        stencil reaching past a pole lands in ``flip`` at the reflected row,
        which Pi moves to the antipodal longitude: a smooth field satisfies
        F(-theta, x) = F(theta, x + pi) and F(pi + t, x) = F(pi - t, x + pi),
        and with even nx the antipodal longitude is a grid column.

        C^T W C of the filter C, added to a first-derivative stiffness, expels
        the Nyquist-band modes annihilated by the centered stencil (their
        Rayleigh quotients jump to ~1/h^2) while perturbing resolved modes at
        O((kh)^6) relative.  That is above the derivative stencil's own
        O((kh)^8) consistency error, so the filter sets the order: on tori
        the Jacobi spectra converge at order 5.6-6.0 in h.

        The matrices are read-only and built once per grid: equal grids
        share them, and those of the last 32 (grid, axis, name) are kept.
        """
        return _axis_stencil(self, axis, name)


@lru_cache(maxsize=32)
def _axis_stencil(g: ParamGrid, axis: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    offsets, weights, stretch = _AXIS_STENCILS[name]
    pole = axis == 1 and g.topology == "sphere"
    n = g.ny if axis == 1 else g.nx
    if pole and name == "diff":
        # Mercator d/dy = sin(theta) d/dtheta, row by row
        vals = weights * (np.sin(g.theta) / g.dtheta)[:, None]
    else:
        h = g.hx if axis == 0 else (g.dtheta if pole else g.hy)
        vals = np.broadcast_to(weights / (stretch * h), (n, len(offsets)))
    rows = np.arange(n)
    mats = np.zeros((2 if pole else 1, n, n))
    for t, off in enumerate(offsets):
        cols = rows + off
        if pole:
            side = ((cols < 0) | (cols > n - 1)).astype(int)
            cols = np.where(cols < 0, -1 - cols, cols)
            cols = np.where(cols > n - 1, 2 * n - 1 - cols, cols)
        else:
            side, cols = 0, cols % n
        mats[side, rows, cols] += vals[:, t]
    mats.setflags(write=False)
    # a periodic axis has no flip: a zero view that holds no memory
    return mats[0], mats[1] if pole else np.broadcast_to(0.0, (n, n))


def torus_grid(nx: int, ny: int, lx: float = TWO_PI, ly: float = TWO_PI) -> ParamGrid:
    return ParamGrid("torus", nx, ny, (0.0, lx), (0.0, ly))


def check_resolution(nx: int, ny: int) -> None:
    """Raise ValueError for a grid with fewer than 8 nodes along an axis."""
    if nx < 8 or ny < 8:
        raise ValueError("grid resolution must be at least 8 per direction")


def sphere_grid(nx: int, ny: int) -> ParamGrid:
    check_resolution(nx, ny)    # before the node spacing divides by ny
    dth = np.pi / ny
    ymax = float(np.log(np.tan(0.5 * (np.pi - 0.5 * dth))))
    return ParamGrid("sphere", nx, ny, (0.0, TWO_PI), (-ymax, ymax))
