"""Model ambient 3-manifolds: metric, curvature, volume form, exponential map.

The four model spaces are carried in concrete representations:

* ``R3``      -- Euclidean 3-space;
* ``S3``      -- unit sphere in R^4;
* ``H3``      -- hyperboloid <p,p> = -1, p3 > 0, in Minkowski R^{3,1};
* ``FlatT3``  -- [0,1)^3 with the quotient metric; points are usually kept as
  unwrapped lifts in R^3 (all local geometry is translation invariant), and
  wrapped only when a fundamental-domain representative is wanted;
* ``EmbeddedGeneric`` -- user-supplied callables behind the same interface.

All operations are pure and vectorized over leading axes: points and vectors
have shape (..., dim).

Curvature sign convention: sec(X, Y) = Rm(X,Y,Y,X) / (|X|^2|Y|^2 - <X,Y>^2),
so the unit S3 has sec = +1 and Ric(nu, nu) = 2.  This is the convention under
which the assembled second-variation forms match the finite-difference
Hessians (pinned by the round-sphere oracle test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "AmbientSpace", "R3", "S3", "H3", "FLAT_T3", "embedded_generic",
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
    metric_fn: Optional[Callable] = field(default=None, compare=False)
    riemann_fn: Optional[Callable] = field(default=None, compare=False)
    volume_fn: Optional[Callable] = field(default=None, compare=False)
    exp_fn: Optional[Callable] = field(default=None, compare=False)
    # correction C(p, X, v) with nabla_X v = d_X v + C, and tangent projection
    # P(p, w); both optional, needed only to host immersions generically
    connection_fn: Optional[Callable] = field(default=None, compare=False)
    projection_fn: Optional[Callable] = field(default=None, compare=False)

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


def embedded_generic(dim: int, extrinsic_bound: float,
                     metric_fn: Callable,
                     riemann_fn: Callable,
                     volume_fn: Optional[Callable] = None,
                     exp_fn: Optional[Callable] = None,
                     connection_fn: Optional[Callable] = None,
                     projection_fn: Optional[Callable] = None) -> AmbientSpace:
    """Generic N isometrically embedded in R^d, described by user callables.

    Points and tangent vectors are carried in the R^d coordinates of the
    embedding, so the representation inner product is the Euclidean one;
    ``metric_fn(p, X, Y)`` and ``riemann_fn(p, X, Y, Z, W)`` must be
    vectorized over leading axes.  ``exp_fn``, ``connection_fn`` and
    ``projection_fn`` are optional: without them only pointwise queries are
    available, with them the space can host immersions and variation fields.
    """
    return AmbientSpace("EmbeddedGeneric", dim, np.nan, extrinsic_bound,
                        metric_fn=metric_fn, riemann_fn=riemann_fn,
                        volume_fn=volume_fn, exp_fn=exp_fn,
                        connection_fn=connection_fn, projection_fn=projection_fn)


# --------------------------------------------------------------------- metric

def inner(space: AmbientSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ambient inner product in the representation coordinates.

    Constant-coefficient everywhere: Minkowski for H3 and Euclidean
    otherwise (generic spaces carry isometric R^d coordinates, whose induced
    metric is the Euclidean restriction).  The complex-bilinear extension is
    obtained by passing complex arrays.

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
    if space.kind == "EmbeddedGeneric":
        return np.asarray(space.metric_fn(p, x, y))
    check_point(space, p)
    return inner(space, x, y)


# ------------------------------------------------------------------ curvature

def riemann(space: AmbientSpace, p, x, y, z, w) -> np.ndarray:
    """Rm(X,Y,Z,W) with sec(X,Y) = Rm(X,Y,Y,X)/(|X|^2|Y|^2 - <X,Y>^2)."""
    if space.kind == "EmbeddedGeneric":
        return np.asarray(space.riemann_fn(p, x, y, z, w))
    k = space.curvature
    if k == 0.0:
        base = inner(space, x, w)
        return np.zeros_like(base)
    return k * (inner(space, x, w) * inner(space, y, z)
                - inner(space, x, z) * inner(space, y, w))


def ricci_normal(space: AmbientSpace, p, nu, rng=None) -> np.ndarray:
    """Ric(nu, nu) for a unit vector nu; equals 2*kappa on space forms."""
    if space.kind != "EmbeddedGeneric":
        check_point(space, p)
        n2 = inner(space, nu, nu)
        if not np.allclose(n2, 1.0, atol=1e-8):
            raise DomainError("ricci_normal requires a unit normal")
        return 2.0 * space.curvature * np.ones(np.shape(n2))
    e1, e2 = _complete_frame_generic(space, p, nu, rng)
    return (riemann(space, p, nu, e1, e1, nu) + riemann(space, p, nu, e2, e2, nu))


def _complete_frame_generic(space, p, nu, rng=None):
    rng = rng or np.random.default_rng(0)
    basis = [nu]
    tries = 0
    while len(basis) < 3 and tries < 50:
        tries += 1
        cand = np.broadcast_to(rng.standard_normal(space.dim), nu.shape).copy()
        for b in basis:
            cand = cand - (space.metric_fn(p, cand, b))[..., None] * b
        n2 = np.asarray(space.metric_fn(p, cand, cand))
        if np.all(n2 > 1e-12):
            basis.append(cand / np.sqrt(n2)[..., None])
    if len(basis) < 3:
        raise RuntimeError("failed to complete orthonormal frame")
    return basis[1], basis[2]


# ---------------------------------------------------------------- volume form

def volume_form(space: AmbientSpace, p, x, y, z) -> np.ndarray:
    """dV_N(X, Y, Z): alternating, +1 on positively oriented orthonormal frames."""
    if space.kind == "EmbeddedGeneric":
        if space.volume_fn is None:
            raise UnsupportedOperation("no volume form supplied for generic space")
        return np.asarray(space.volume_fn(p, x, y, z))
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


def _g2_sphere(t: np.ndarray) -> np.ndarray:
    """(cos t - sinc t) / t^2, stable near 0 (limit -1/3)."""
    small = np.abs(t) < 1e-3
    ts = np.where(small, 1.0, t)
    return np.where(small, -1.0 / 3.0 + t * t / 30.0,
                    (np.cos(ts) - _sinc(ts)) / (ts * ts))


def _g2_hyper(t: np.ndarray) -> np.ndarray:
    """(cosh t - sinhc t) / t^2, stable near 0 (limit +1/3)."""
    small = np.abs(t) < 1e-3
    ts = np.where(small, 1.0, t)
    return np.where(small, 1.0 / 3.0 + t * t / 30.0,
                    (np.cosh(ts) - _sinhc(ts)) / (ts * ts))


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
    if space.kind == "S3":
        th = t * norm(space, w)
        return np.cos(th)[..., None] * p + (t * _sinc(th))[..., None] * w
    if space.kind == "H3":
        th = t * norm(space, w)
        return np.cosh(th)[..., None] * p + (t * _sinhc(th))[..., None] * w
    if space.exp_fn is not None:
        return np.asarray(space.exp_fn(p, w, t))
    raise UnsupportedOperation("no exponential map supplied for generic space")


def exp_velocity(space: AmbientSpace, p, w, t: float) -> np.ndarray:
    """d/dt exp_p(t w) (the geodesic velocity field)."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if space.kind in ("R3", "FlatT3"):
        return np.broadcast_to(w, w.shape).copy()
    th = t * norm(space, w)
    w2 = inner(space, w, w)
    if space.kind == "S3":
        return (-t * w2 * _sinc(th))[..., None] * p + np.cos(th)[..., None] * w
    if space.kind == "H3":
        return (t * w2 * _sinhc(th))[..., None] * p + np.cosh(th)[..., None] * w
    raise UnsupportedOperation("no geodesic velocity for generic space")


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
    wdw = inner(space, w, dw)
    th = t * norm(space, w)
    if space.kind == "S3":
        s = _sinc(th)
        return (np.cos(th)[..., None] * dp
                + (t * s)[..., None] * dw
                - (t * t * s * wdw)[..., None] * p
                + (t ** 3 * _g2_sphere(th) * wdw)[..., None] * w)
    if space.kind == "H3":
        s = _sinhc(th)
        return (np.cosh(th)[..., None] * dp
                + (t * s)[..., None] * dw
                + (t * t * s * wdw)[..., None] * p
                + (t ** 3 * _g2_hyper(th) * wdw)[..., None] * w)
    raise UnsupportedOperation("no exponential derivative for generic space")


# ---------------------------------------------------- connection along fields

def covariant_correction(space: AmbientSpace, p, direction, v) -> np.ndarray:
    """Connection term C with nabla_X v = (componentwise d_X v) + C.

    The model spaces are realized as umbilic hypersurfaces of flat (pseudo-)
    Euclidean spaces, so the correction is algebraic:
    S3: +<X, v> p;  H3: -<X, v>_M p;  flat spaces: 0.
    """
    if space.kind in ("R3", "FlatT3"):
        return np.zeros(np.broadcast_shapes(np.shape(v), np.shape(direction)),
                        dtype=np.result_type(v, direction))
    if space.kind == "S3":
        return inner(space, direction, v)[..., None] * p
    if space.kind == "H3":
        return -inner(space, direction, v)[..., None] * p
    if space.connection_fn is not None:
        return np.asarray(space.connection_fn(p, direction, v))
    raise UnsupportedOperation("generic space lacks a connection callable")


def project_tangent(space: AmbientSpace, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project an ambient-representation vector onto T_p N."""
    if space.kind in ("R3", "FlatT3"):
        return w
    if space.kind == "S3":
        return w - inner(space, w, p)[..., None] * p
    if space.kind == "H3":
        return w + inner(space, w, p)[..., None] * p
    if space.projection_fn is not None:
        return np.asarray(space.projection_fn(p, w))
    raise UnsupportedOperation("generic space lacks a tangent projection callable")
