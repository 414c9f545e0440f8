"""Analytic CMC gallery: round spheres, Clifford torus, Delaunay tori.

Every member is a conformal CMC immersion with analytically evaluated chart
partials and reference data (exact area and curvature where available, known
index/nullity expectations).  Charts are oriented so the declared CMC value
is positive:  the oriented normal of the round spheres points toward the
center, matching h = 2/rho (R^3), 2*cot(rho) (S^3) and 2*coth(rho) (H^3).
"""

from __future__ import annotations

import math
import threading
from numbers import Integral, Real
from typing import Callable

import numpy as np

from . import ambient as amb
from .delaunay import delaunay_torus, solve_profile
from .grids import sphere_grid, torus_grid
from .surfaces import Immersion

__all__ = ["gallery", "gallery_names", "default_resolution", "check_params",
           "from_descriptor"]

# built members and Delaunay profiles, oldest first; the cap is well above
# the 11 keys of the largest default command (`spectrum`, refinement grids
# included), so no default command rebuilds anything
_CACHE: dict = {}
_CACHE_CAP = 64
# one lock per cache key, so that concurrent threads build each key once
_KEY_LOCKS: dict = {}
_KEY_LOCKS_GUARD = threading.Lock()

# accepted parameters of each gallery member and their number types
_PARAMS = {"sphere_r3": {"radius": Real}, "sphere_s3": {"radius": Real},
           "sphere_h3": {"radius": Real}, "clifford_torus": {},
           "delaunay_t3": {"k": Integral, "neck": Real}}


def gallery_names() -> list[str]:
    return list(_PARAMS)


def check_params(name: str, params: dict) -> None:
    """Raise KeyError for an unknown surface or a parameter it does not take,
    TypeError for a parameter value of the wrong type and ValueError for a
    value that is not finite, a Delaunay lobe count below 1 or a neck ratio
    outside (0, 1)."""
    if name not in _PARAMS:
        raise KeyError(f"unknown gallery surface {name!r}")
    accepted = _PARAMS[name]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise KeyError(f"{name} takes no parameter(s) {unknown}; "
                       f"accepted: {sorted(accepted)}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, accepted[key]):
            raise TypeError(f"{name} parameter {key!r} must be "
                            f"{'an integer' if accepted[key] is Integral else 'a number'}, "
                            f"got {value!r}")
        # false for NaN too; exact for integers of any size
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} parameter {key!r} must be finite, got {value!r}")
    if "k" in params and params["k"] < 1:
        raise ValueError(f"{name} lobe count k must be at least 1, got {params['k']!r}")
    if "neck" in params and not 0 < params["neck"] < 1:
        raise ValueError(f"{name} neck ratio must lie in (0, 1), got {params['neck']!r}")


def default_resolution(name: str, **params) -> tuple[int, int]:
    if name in ("sphere_r3", "sphere_s3", "sphere_h3"):
        return (64, 48)
    if name == "clifford_torus":
        return (48, 48)
    if name == "delaunay_t3":
        return (32 * int(params.get("k", 1)), 32)
    raise KeyError(f"unknown gallery surface {name!r}")


# ------------------------------------------------------------- sphere charts

def _sphere_chart(flip_x: bool):
    """Unit-sphere direction field n(x, theta) and its chart derivatives.

    The chart y is the Mercator coordinate with d/dy = sin(theta) d/dtheta;
    flip_x reverses the longitude to flip the induced orientation.
    """
    s = -1.0 if flip_x else 1.0

    def parts(x, th):
        sth, cth = np.sin(th), np.cos(th)
        cx, sx = np.cos(x), s * np.sin(x)
        n = np.stack([sth * cx, sth * sx, cth], axis=-1)
        # x-derivatives of (cx, sx) are (-s*sx, s*cx): one factor s per d/dx.
        n_x = s * np.stack([-sth * sx, sth * cx, np.zeros_like(x)], axis=-1)
        # d/dy = sin(theta) d/dtheta applied repeatedly:
        n_y = sth[..., None] * np.stack([cth * cx, cth * sx, -sth], axis=-1)
        n_xx = np.stack([-sth * cx, -sth * sx, np.zeros_like(x)], axis=-1)
        n_xy = s * sth[..., None] * np.stack([-cth * sx, cth * cx, np.zeros_like(x)], axis=-1)
        c2 = cth * cth - sth * sth
        n_yy = sth[..., None] * np.stack([c2 * cx, c2 * sx, -2.0 * sth * cth], axis=-1)
        return n, n_x, n_y, n_xx, n_xy, n_yy
    return parts


def _make_sphere(space, radial: Callable, name: str, flip_x: bool,
                 resolution, genus0_reference: dict, cmc_value: float) -> Immersion:
    """Build a distance sphere u = radial(n) over the conformal chart."""
    nx, ny = resolution
    grid = sphere_grid(nx, ny)
    X, TH = np.meshgrid(grid.x, grid.theta, indexing="ij")
    n, n_x, n_y, n_xx, n_xy, n_yy = _sphere_chart(flip_x)(X, TH)
    u, du = radial
    return Immersion(space, grid, u(n), du(n_x), du(n_y), du(n_xx), du(n_xy),
                     du(n_yy), genus=0, branch_count=0, cmc_value=cmc_value,
                     name=name, reference=genus0_reference)


def _sphere_r3(radius: float, resolution) -> Immersion:
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    rad = (lambda n: radius * n, lambda dn: radius * dn)
    ref = {
        "area_exact": 4.0 * np.pi * radius ** 2,
        "h_exact": 2.0 / radius,
        "A2_exact": 2.0 / radius ** 2,
        "jacobi_index": 1, "jacobi_nullity": 3,
    }
    return _make_sphere(amb.R3, rad, f"sphere_r3(rho={radius})", False,
                        resolution, ref, 2.0 / radius)


def _sphere_curved(space, radius: float, resolution) -> Immersion:
    """Geodesic sphere of radius rho about (0, 0, 0, 1) in S3 or H3:
    u = (S n, C) with (S, C) = (sin, cos)(rho) on S3, (sinh, cosh)(rho) on H3."""
    on_s3 = space.curvature > 0
    if on_s3 and not 0.0 < radius < np.pi:
        raise ValueError("geodesic radius must lie in (0, pi)")
    if not on_s3 and radius <= 0:
        raise ValueError("sphere radius must be positive")
    sin, cos = (np.sin, np.cos) if on_s3 else (np.sinh, np.cosh)
    sr, cr = sin(radius), cos(radius)

    def u(n):
        return np.concatenate([sr * n, np.full(n.shape[:-1] + (1,), cr)], axis=-1)

    def du(dn):
        return np.concatenate([sr * dn, np.zeros(dn.shape[:-1] + (1,))], axis=-1)

    ref = {
        "area_exact": float(4.0 * np.pi * sr ** 2),
        "h_exact": float(2.0 * cr / sr),
        "A2_exact": float(2.0 * (cr / sr) ** 2),
        "jacobi_index": 1, "jacobi_nullity": 3,
    }
    if not on_s3:
        ref["index_plus_nullity"] = 4
    # On S3 the standard longitude orientation makes the oriented normal point
    # away from the center pole (extra ambient dimension flips parity), so
    # reverse x there to keep h = +2 cot(rho).
    return _make_sphere(space, (u, du), f"sphere_{space.kind.lower()}(rho={radius})",
                        on_s3, resolution, ref, float(2.0 * cr / sr))


def _clifford(resolution) -> Immersion:
    nx, ny = resolution
    grid = torus_grid(nx, ny)
    X, Y = grid.meshes()
    z = np.zeros_like(X)
    rt = 1.0 / np.sqrt(2.0)

    def stack(a, b, c, d):
        return rt * np.stack([a, b, c, d], axis=-1)

    u = stack(np.cos(X), np.sin(X), np.cos(Y), np.sin(Y))
    ux = stack(-np.sin(X), np.cos(X), z, z)
    uy = stack(z, z, -np.sin(Y), np.cos(Y))
    uxx = stack(-np.cos(X), -np.sin(X), z, z)
    uxy = stack(z, z, z, z)
    uyy = stack(z, z, -np.cos(Y), -np.sin(Y))
    ref = {
        "area_exact": 2.0 * np.pi ** 2,
        "h_exact": 0.0,
        "A2_exact": 2.0,
        "jacobi_index": 5, "jacobi_nullity": 4,
        "weak_index": 4,
    }
    return Immersion(amb.S3, grid, u, ux, uy, uxx, uxy, uyy, genus=1,
                     branch_count=0, cmc_value=0.0, name="clifford_torus",
                     reference=ref)


# ------------------------------------------------------------------- factory

def gallery(name: str, resolution: tuple[int, int] | None = None, **params) -> Immersion:
    """Construct a gallery member (cached per name/params/resolution)."""
    check_params(name, params)
    res = tuple(resolution) if resolution is not None else default_resolution(name, **params)
    key = (name, tuple(sorted(params.items())), res)
    return _cached(key, lambda: _construct(name, res, params))


def _construct(name: str, res: tuple[int, int], params: dict) -> Immersion:
    if name == "sphere_r3":
        return _sphere_r3(params.get("radius", 1.0), res)
    if name == "sphere_s3":
        return _sphere_curved(amb.S3, params.get("radius", 0.9), res)
    if name == "sphere_h3":
        return _sphere_curved(amb.H3, params.get("radius", 0.8), res)
    if name == "clifford_torus":
        return _clifford(res)
    # delaunay_t3
    k = int(params.get("k", 1))
    neck = float(params.get("neck", 0.55))
    prof = _cached(("profile", neck), lambda: solve_profile(neck))
    return delaunay_torus(k, neck, res[0], res[1], profile=prof)


def _cached(key, build: Callable):
    """``_CACHE[key]``, calling ``build`` for it at most once while it is cached.

    Past ``_CACHE_CAP`` entries the oldest are evicted, with their locks, in
    place (the dict object itself is never replaced).
    """
    value = _CACHE.get(key)
    if value is None:
        with _KEY_LOCKS_GUARD:
            lock = _KEY_LOCKS.setdefault(key, threading.Lock())
        with lock:
            value = _CACHE.get(key)
            if value is None:
                value = build()
                with _KEY_LOCKS_GUARD:
                    _CACHE[key] = value
                    while len(_CACHE) > _CACHE_CAP:
                        oldest = next(iter(_CACHE))
                        del _CACHE[oldest]
                        _KEY_LOCKS.pop(oldest, None)
    return value


# --------------------------------------------------------------- descriptors

def from_descriptor(desc: dict, cached: bool = True) -> Immersion:
    """The member a ``{"kind", "params", "resolution"}`` descriptor names;
    with ``cached=False`` built afresh and held by no cache, so that it is
    freed with its last reference."""
    name, res, params = desc["kind"], tuple(desc["resolution"]), desc.get("params", {})
    if cached:
        return gallery(name, resolution=res, **params)
    check_params(name, params)
    return _construct(name, res, params)
