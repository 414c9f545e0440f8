"""Model ambient 3-manifolds: metric, curvature, volume form, exponential map.

The four model spaces are carried in concrete representations:

* ``R3``      -- Euclidean 3-space;
* ``S3``      -- unit sphere in R^4;
* ``H3``      -- hyperboloid <p,p> = -1, p3 > 0, in Minkowski R^{3,1};
* ``FlatT3``  -- [0,1)^3 with the quotient metric; points are kept as
  unwrapped lifts in R^3 (all local geometry is translation invariant), and
  only ``exp_map`` wraps its result into the fundamental domain.

S3 and H3 are the quadrics <p, p> = 1/kappa of curvature kappa = +1 and -1
in R^4 with the Euclidean and the Minkowski inner product.  Their tangent
projection, connection and geodesics share one formula each, in which kappa
enters as a sign and the geodesic coefficients (C, S) are (cos, sinc) on S3
and (cosh, sinhc) on H3.

All operations are pure and vectorized over leading axes: points and vectors
have shape (..., dim).

Curvature sign convention: sec(X, Y) = Rm(X,Y,Y,X) / (|X|^2|Y|^2 - <X,Y>^2),
so the unit S3 has sec = +1 and Ric(nu, nu) = 2.  This is the convention under
which the assembled second-variation forms match the finite-difference
Hessians (pinned by the round-sphere oracle test).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "AmbientSpace", "R3", "S3", "H3", "FLAT_T3",
    "inner", "riemann", "volume_form", "cofactor", "exp_map", "exp_velocity",
    "exp_directional", "covariant_correction", "project_tangent",
    "UnsupportedOperation",
]


class UnsupportedOperation(RuntimeError):
    """Operation has no meaning (or no closed form) for this space."""


@dataclass(frozen=True)
class AmbientSpace:
    """Immutable descriptor of a model ambient space.

    ``extrinsic_bound`` is the sup-norm J of the largest eigenvalue of the
    second fundamental form of the isometric embedding into Euclidean space
    (0 for R3, 1 for the unit S3 in R^4, 2pi for the product-of-circles
    embedding of the unit flat 3-torus into R^6).  It is None for H3, which
    carries no such embedding; bound formulas requiring J must reject H3.
    """

    kind: str
    dim: int
    curvature: float
    extrinsic_bound: Optional[float]

    @property
    def signature(self) -> np.ndarray:
        sig = np.ones(self.dim)
        if self.kind == "H3":
            sig[3] = -1.0
        return sig


R3 = AmbientSpace("R3", 3, 0.0, 0.0)
S3 = AmbientSpace("S3", 4, 1.0, 1.0)
H3 = AmbientSpace("H3", 4, -1.0, None)
# J for the flat unit torus: three orthogonal circles of circumference 1 in
# R^6, each of curvature 2*pi.
FLAT_T3 = AmbientSpace("FlatT3", 3, 0.0, 2.0 * np.pi)


# --------------------------------------------------------------------- metric

def inner(space: AmbientSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ambient inner product in the representation coordinates.

    Constant-coefficient everywhere: Minkowski for H3 and Euclidean
    otherwise.  The complex-bilinear extension is obtained by passing
    complex arrays.

    The component sums are unrolled in the order ``(x * y).sum(-1)`` uses,
    so the result is bit-identical to it without the slow reduction over a
    3- or 4-long axis.
    """
    if space.kind == "H3":
        return _component_sum(x, y, 3) - x[..., 3] * y[..., 3]
    return _component_sum(x, y, x.shape[-1])


def _component_sum(x: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """sum_{i<d} x_i y_i, bit-identical to ``(x[..., :d] * y[..., :d]).sum(-1)``.

    numpy sums from +0.0: three real or complex terms, and four real ones,
    in sequence; four complex terms pairwise.  Adding +0.0 last reproduces
    the start value's only effect, the sign of an exactly zero sum.  Other
    lengths and non-float data take the reduction itself.
    """
    kind = np.result_type(x, y).kind
    if d not in (3, 4) or x.shape[-1] != y.shape[-1] or kind not in "fc":
        return (x[..., :d] * y[..., :d]).sum(-1)
    out, *rest = [x[..., i] * y[..., i] for i in range(d)]
    if d == 4 and kind == "c":
        rest = [rest[0], rest[1] + rest[2]]
    for t in rest:
        out += t
    out += 0.0
    return out


# ------------------------------------------------------------------ curvature

def riemann(space: AmbientSpace, p, x, y, z, w) -> np.ndarray:
    """Rm(X,Y,Z,W) with sec(X,Y) = Rm(X,Y,Y,X)/(|X|^2|Y|^2 - <X,Y>^2)."""
    k = space.curvature
    if k == 0.0:
        base = inner(space, x, w)
        return np.zeros_like(base)
    return k * (inner(space, x, w) * inner(space, y, z)
                - inner(space, x, z) * inner(space, y, w))


# ---------------------------------------------------------------- volume form

def volume_form(space: AmbientSpace, p, x, y, z) -> np.ndarray:
    """dV_N(X, Y, Z): alternating, +1 on positively oriented orthonormal frames.

    The determinant of the rows (x, y, z) on R3 and FlatT3, (p, x, y, z) on
    S3 and (x, y, z, p) on H3 (so the standard spatial frame at (0,0,0,1) is
    +1), in closed form: the triple product x . (y x z) in R^3, and in R^4
    the Laplace expansion along the first two rows in 2x2 minors.  Inputs
    broadcast against each other.
    """
    x, y, z = np.asarray(x), np.asarray(y), np.asarray(z)
    if space.kind in ("R3", "FlatT3"):
        return _det3(x, y, z)
    p = np.asarray(p)
    if space.kind == "S3":
        return _det4(p, x, y, z)
    return _det4(x, y, z, p)


def _det3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x . (y x z) over the last axis."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
    return x0 * (y1 * z2 - y2 * z1) + x1 * (y2 * z0 - y0 * z2) + x2 * (y0 * z1 - y1 * z0)


def _minors(r: np.ndarray, s: np.ndarray) -> dict:
    """The 2x2 minors r_i s_j - r_j s_i of two four-vectors, keyed by the
    column pair i < j."""
    return {(i, j): r[..., i] * s[..., j] - r[..., j] * s[..., i]
            for i in range(4) for j in range(i + 1, 4)}


def _det4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """det of the rows (a, b, c, d) over the last axis."""
    return _laplace(_minors(a, b), _minors(c, d))


def _laplace(m: dict, n: dict) -> np.ndarray:
    """det of the rows (a, b, c, d) from the minors m of (a, b) and n of
    (c, d): sum over column pairs i < j of +-m_ij (complementary n)."""
    return (m[0, 1] * n[2, 3] - m[0, 2] * n[1, 3] + m[0, 3] * n[1, 2]
            + m[1, 2] * n[0, 3] - m[1, 3] * n[0, 2] + m[2, 3] * n[0, 1])


def cofactor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The cofactor vector of the rows (a, b, c) of four-vectors over the last
    axis: its k-th component is det(e_k, a, b, c), so its Euclidean dot
    product with w is det(w, a, b, c), and it is Euclidean-orthogonal to a, b
    and c.  In closed form, expanded along a in the 2x2 minors of (b, c).
    Inputs broadcast against each other."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    n = _minors(b, c)
    return np.stack([a1 * n[2, 3] - a2 * n[1, 3] + a3 * n[1, 2],
                     -a0 * n[2, 3] + a2 * n[0, 3] - a3 * n[0, 2],
                     a0 * n[1, 3] - a1 * n[0, 3] + a3 * n[0, 1],
                     -a0 * n[1, 2] + a1 * n[0, 2] - a2 * n[0, 1]], axis=-1)


# ----------------------------------------------------------------- geodesics

def _sinc(t: np.ndarray) -> np.ndarray:
    return np.sinc(t / np.pi)


def _sinhc(t: np.ndarray) -> np.ndarray:
    small = np.abs(t) < 1e-4
    ts = np.where(small, 1.0, t)
    out = np.where(small, 1.0 + t * t / 6.0, np.sinh(ts) / ts)
    return out


def _coefficients(space: AmbientSpace):
    """(C, S) of exp_p(w) = C(|w|) p + S(|w|) w: (cos, sinc) on S3, else
    (cosh, sinhc)."""
    return (np.cos, _sinc) if space.curvature > 0 else (np.cosh, _sinhc)


def _g2(space: AmbientSpace, t: np.ndarray, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """(C(t) - S(t)) / t^2 from ct = C(t) and st = S(t), stable near 0
    (limit -kappa/3)."""
    small = np.abs(t) < 1e-3
    ts = np.where(small, 1.0, t)
    return np.where(small, -space.curvature / 3.0 + t * t / 30.0,
                    (ct - st) / (ts * ts))


class _Geodesic:
    """exp_p(t w) on S3 or H3 at one t, batched over (p, w), with its
    t-derivative and its derivatives along (dp, dw).

    th = t |w|, C(th) and S(th) are evaluated once, g2(th) on first use, and
    shared by the position, the velocity and any number of directional
    derivatives, so a deformed frame needs one evaluation of them.  ``w2`` =
    <w, w> and ``wn`` = |w| may be passed in by a caller that holds them; they
    are the same values as computed here.
    """

    def __init__(self, space: AmbientSpace, p: np.ndarray, w: np.ndarray, t: float,
                 w2: Optional[np.ndarray] = None, wn: Optional[np.ndarray] = None):
        self.space, self.p, self.w, self.t = space, p, w, t
        self.w2 = inner(space, w, w) if w2 is None else w2
        self.th = t * (np.sqrt(self.w2) if wn is None else wn)
        c, s = _coefficients(space)
        self.ct, self.st = c(self.th), s(self.th)

    def point(self) -> np.ndarray:
        """exp_p(t w)."""
        return self.ct[..., None] * self.p + (self.t * self.st)[..., None] * self.w

    def velocity(self) -> np.ndarray:
        """d/dt exp_p(t w)."""
        k, t = self.space.curvature, self.t
        return (-k * t * self.w2 * self.st)[..., None] * self.p + self.ct[..., None] * self.w

    @cached_property
    def g2(self) -> np.ndarray:
        return _g2(self.space, self.th, self.ct, self.st)

    def directional(self, dp: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Derivative of exp_p(t w) along (dp, dw)."""
        k, t, st = self.space.curvature, self.t, self.st
        wdw = inner(self.space, self.w, dw)
        return (self.ct[..., None] * dp
                + (t * st)[..., None] * dw
                - (k * t * t * st * wdw)[..., None] * self.p
                + (t ** 3 * self.g2 * wdw)[..., None] * self.w)


def exp_map(space: AmbientSpace, p: np.ndarray, w: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp_p(t w) in closed form; FlatT3 results are wrapped into [0,1)^3."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if space.kind == "R3":
        return p + t * w
    if space.kind == "FlatT3":
        return np.mod(p + t * w, 1.0)
    return _Geodesic(space, p, w, t).point()


def exp_velocity(space: AmbientSpace, p, w, t: float) -> np.ndarray:
    """d/dt exp_p(t w) (the geodesic velocity field)."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if space.kind in ("R3", "FlatT3"):
        return np.broadcast_to(w, w.shape).copy()
    return _Geodesic(space, p, w, t).velocity()


def exp_directional(space: AmbientSpace, p, w, t: float, dp, dw) -> np.ndarray:
    """Directional derivative of (p, w) -> exp_p(t w) along (dp, dw).

    Used to push chart derivatives through geodesic deformations: with
    (dp, dw) = (u_x, d_x v) this returns d_x exp_{u}(t v) without any extra
    grid differencing.  Stable for |w| -> 0.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    dp = np.asarray(dp, dtype=float)
    dw = np.asarray(dw, dtype=float)
    if space.kind in ("R3", "FlatT3"):
        return dp + t * dw
    return _Geodesic(space, p, w, t).directional(dp, dw)


# ---------------------------------------------------- connection along fields

def covariant_correction(space: AmbientSpace, p, direction, v) -> np.ndarray:
    """Connection term C with nabla_X v = (componentwise d_X v) + C.

    The model spaces are realized as umbilic hypersurfaces of flat (pseudo-)
    Euclidean spaces, so the correction is algebraic: kappa <X, v> p on S3
    and H3 (Minkowski <.,.> on H3), 0 on the flat spaces.  The sign is
    applied by negation, so complex data keep their signed zeros.
    """
    if space.curvature == 0.0:
        return np.zeros(np.broadcast_shapes(np.shape(v), np.shape(direction)),
                        dtype=np.result_type(v, direction))
    c = inner(space, direction, v)[..., None]
    return (c if space.curvature > 0 else -c) * p


def project_tangent(space: AmbientSpace, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project an ambient-representation vector onto T_p N: w - kappa <w, p> p."""
    if space.curvature == 0.0:
        return w
    c = inner(space, w, p)[..., None] * p
    return w - c if space.curvature > 0 else w + c
