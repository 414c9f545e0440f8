"""Model ambient 3-manifolds: metric, curvature, volume form, exponential map.

The four model spaces are carried in concrete representations:

* ``R3``      -- Euclidean 3-space;
* ``S3``      -- unit sphere in R^4;
* ``H3``      -- hyperboloid <p,p> = -1, p3 > 0, in Minkowski R^{3,1};
* ``FlatT3``  -- [0,1)^3 with the quotient metric; points are usually kept as
  unwrapped lifts in R^3 (all local geometry is translation invariant), and
  wrapped only when a fundamental-domain representative is wanted.

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
from typing import Optional

import numpy as np

__all__ = [
    "AmbientSpace", "R3", "S3", "H3", "FLAT_T3",
    "inner", "norm", "metric_at", "riemann", "ricci_normal", "volume_form",
    "exp_map", "exp_velocity", "exp_directional", "wrap_t3", "check_point",
    "DomainError", "UnsupportedOperation",
]


class DomainError(ValueError):
    """Point or vector outside the space's domain."""


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


def norm(space: AmbientSpace, x: np.ndarray) -> np.ndarray:
    return np.sqrt(inner(space, x, x))


def check_point(space: AmbientSpace, p: np.ndarray, tol: float = 1e-9) -> None:
    """Raise DomainError if p is not a valid point of the space."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != space.dim:
        raise DomainError(f"{space.kind} points have dimension {space.dim}")
    if space.kind == "S3":
        if not np.allclose((p * p).sum(-1), 1.0, atol=tol):
            raise DomainError("S3 points must have unit norm")
    elif space.kind == "H3":
        q = (p[..., :3] ** 2).sum(-1) - p[..., 3] ** 2
        if not np.allclose(q, -1.0, atol=tol) or np.any(p[..., 3] <= 0):
            raise DomainError("H3 points must lie on the upper hyperboloid")


def metric_at(space: AmbientSpace, p: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g_p(X, Y); validates the base point."""
    check_point(space, p)
    return inner(space, x, y)


# ------------------------------------------------------------------ curvature

def riemann(space: AmbientSpace, p, x, y, z, w) -> np.ndarray:
    """Rm(X,Y,Z,W) with sec(X,Y) = Rm(X,Y,Y,X)/(|X|^2|Y|^2 - <X,Y>^2)."""
    k = space.curvature
    if k == 0.0:
        base = inner(space, x, w)
        return np.zeros_like(base)
    return k * (inner(space, x, w) * inner(space, y, z)
                - inner(space, x, z) * inner(space, y, w))


def ricci_normal(space: AmbientSpace, p, nu) -> np.ndarray:
    """Ric(nu, nu) for a unit vector nu; equals 2*kappa on space forms."""
    check_point(space, p)
    n2 = inner(space, nu, nu)
    if not np.allclose(n2, 1.0, atol=1e-8):
        raise DomainError("ricci_normal requires a unit normal")
    return 2.0 * space.curvature * np.ones(np.shape(n2))


# ---------------------------------------------------------------- volume form

def volume_form(space: AmbientSpace, p, x, y, z) -> np.ndarray:
    """dV_N(X, Y, Z): alternating, +1 on positively oriented orthonormal frames."""
    x, y, z = np.asarray(x), np.asarray(y), np.asarray(z)
    if space.kind in ("R3", "FlatT3"):
        m = np.stack([x, y, z], axis=-2)
        return np.linalg.det(m)
    p = np.asarray(p)
    if space.kind == "S3":
        m = np.stack([np.broadcast_to(p, x.shape), x, y, z], axis=-2)
        return np.linalg.det(m)
    # H3: orientation fixed so the standard spatial frame at (0,0,0,1) is +1.
    m = np.stack([x, y, z, np.broadcast_to(p, x.shape)], axis=-2)
    return np.linalg.det(m)


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


def wrap_t3(p: np.ndarray) -> np.ndarray:
    """Fundamental-domain representative in [0,1)^3."""
    return np.mod(p, 1.0)


def exp_map(space: AmbientSpace, p: np.ndarray, w: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp_p(t w) in closed form; FlatT3 results are wrapped into [0,1)^3."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if space.kind == "R3":
        return p + t * w
    if space.kind == "FlatT3":
        return wrap_t3(p + t * w)
    c, s = _coefficients(space)
    th = t * norm(space, w)
    return c(th)[..., None] * p + (t * s(th))[..., None] * w


def exp_velocity(space: AmbientSpace, p, w, t: float) -> np.ndarray:
    """d/dt exp_p(t w) (the geodesic velocity field)."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if space.kind in ("R3", "FlatT3"):
        return np.broadcast_to(w, w.shape).copy()
    c, s = _coefficients(space)
    th = t * norm(space, w)
    w2 = inner(space, w, w)
    return (-space.curvature * t * w2 * s(th))[..., None] * p + c(th)[..., None] * w


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
    c, s = _coefficients(space)
    wdw = inner(space, w, dw)
    th = t * norm(space, w)
    ct, st = c(th), s(th)
    return (ct[..., None] * dp
            + (t * st)[..., None] * dw
            - (space.curvature * t * t * st * wdw)[..., None] * p
            + (t ** 3 * _g2(space, th, ct, st) * wdw)[..., None] * w)


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
