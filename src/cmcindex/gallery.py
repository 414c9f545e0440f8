"""Analytic CMC gallery: round spheres, Clifford torus, Delaunay tori.

Every member is a conformal CMC immersion with analytically evaluated chart
partials and reference data (exact area and curvature where available, known
index/nullity expectations).  ``surfaces.separable`` builds every member
from 1-D factor jets: the spheres from the longitude circle and the Mercator
colatitude profile under a radial map (rho n on R^3, (S n, C) on S^3 and
H^3), the Clifford torus from two circles of radius 1/sqrt(2) and the
Delaunay tori from the profile curve times (1, cos theta, sin theta).
Charts are oriented so the declared CMC value is positive:  the oriented
normal of the round spheres points toward the center, matching h = 2/rho
(R^3), 2*cot(rho) (S^3) and 2*coth(rho) (H^3).
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Callable

import numpy as np

from . import ambient as amb
from .delaunay import delaunay_torus, solve_profile
from .grids import sphere_grid, torus_grid
from .surfaces import Immersion, _circle, _const, separable

__all__ = ["gallery", "gallery_names", "default_resolution", "check_params",
           "from_descriptor"]

# Delaunay profiles by neck ratio (the name is read by perfbench's tracer)
_CACHE: dict = {}

# accepted parameters of each gallery member and their number types
_PARAMS = {"sphere_r3": {"radius": Real}, "sphere_s3": {"radius": Real},
           "sphere_h3": {"radius": Real}, "clifford_torus": {},
           "delaunay_t3": {"k": Integral, "neck": Real}}
# open range of each sphere's radius: far enough inside float64 that the
# powers of the radius in the reference data and geometry stay finite
# (R^3 overflows by 1e80); on S^3 the geodesic radius stays below pi; in the
# hyperboloid model of H^3 the coordinates (sinh, cosh)(rho) cancel to a
# round-off of eps cosh(rho)^2, and the 1e-6 CMC check fails from rho = 12
_RADII = {"sphere_r3": (1e-50, 1e50), "sphere_s3": (1e-50, math.pi),
          "sphere_h3": (1e-50, 10.0)}


def gallery_names() -> list[str]:
    return list(_PARAMS)


def check_params(name: str, params: dict) -> None:
    """Raise KeyError for an unknown surface or a parameter it does not take,
    TypeError for a parameter value of the wrong type and ValueError for a
    value that is not finite, a Delaunay lobe count below 1, a neck ratio
    outside (0, 1) or a sphere radius outside its range (``_RADII``)."""
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
    if "radius" in params and not _RADII[name][0] < params["radius"] < _RADII[name][1]:
        raise ValueError(f"{name} radius must lie in {_RADII[name]}, got {params['radius']!r}")


def default_resolution(name: str, **params) -> tuple[int, int]:
    if name in ("sphere_r3", "sphere_s3", "sphere_h3"):
        return (64, 48)
    if name == "clifford_torus":
        return (48, 48)
    if name == "delaunay_t3":
        return (32 * int(params.get("k", 1)), 32)
    raise KeyError(f"unknown gallery surface {name!r}")


# ------------------------------------------------------------- sphere charts

def _make_sphere(space, radial: Callable, name: str, flip_x: bool,
                 resolution, genus0_reference: dict, cmc_value: float) -> Immersion:
    """Build a distance sphere u = radial(n) over the conformal chart, with
    n = (cos x, s sin x, 1) * (sin th, sin th, cos th) and d/dy = sin(th) d/dth
    in the Mercator coordinate y; flip_x (s = -1) flips the orientation.  The
    radial map (u, du) acts on the th-factor; the components it appends past
    the third are constant in x."""
    grid = sphere_grid(*resolution)
    u, du = radial
    sth, cth = np.sin(grid.theta), np.cos(grid.theta)
    c2 = cth * cth - sth * sth
    Y = np.stack([u(np.stack([sth, sth, cth], axis=-1)),
                  du(sth[:, None] * np.stack([cth, cth, -sth], axis=-1)),
                  du(sth[:, None] * np.stack([c2, c2, -2.0 * sth * cth], axis=-1))])
    X = np.concatenate([_circle(grid.x, sign=-1.0 if flip_x else 1.0),
                        _const(grid.nx, Y.shape[-1] - 2)], axis=-1)
    return separable(space, grid, X, Y, genus=0, branch_count=0,
                     cmc_value=cmc_value, name=name, reference=genus0_reference)


def _sphere_r3(radius: float, resolution) -> Immersion:
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
    rt = 1.0 / np.sqrt(2.0)
    # u = (cos x, sin x, cos y, sin y) / sqrt(2): one circle jet of radius
    # 1/sqrt(2) per chart axis, each constant along the other axis
    X = np.concatenate([_circle(grid.x, rt), _const(nx, 2)], axis=-1)
    Y = np.concatenate([_const(ny, 2), _circle(grid.y, rt)], axis=-1)
    ref = {
        "area_exact": 2.0 * np.pi ** 2,
        "h_exact": 0.0,
        "A2_exact": 2.0,
        "jacobi_index": 5, "jacobi_nullity": 4,
        "weak_index": 4,
    }
    return separable(amb.S3, grid, X, Y, genus=1, branch_count=0, cmc_value=0.0,
                     name="clifford_torus", reference=ref)


# ------------------------------------------------------------------- factory

def gallery(name: str, resolution: tuple[int, int] | None = None, **params) -> Immersion:
    """Build a gallery member afresh: every call returns a new immersion, so
    keep the one you analyse (a variation field is tied to the immersion it
    was built on)."""
    check_params(name, params)
    res = tuple(resolution) if resolution is not None else default_resolution(name, **params)
    return _construct(name, res, params)


def _construct(name: str, res: tuple[int, int], params: dict) -> Immersion:
    if name == "sphere_r3":
        return _sphere_r3(params.get("radius", 1.0), res)
    if name == "sphere_s3":
        return _sphere_curved(amb.S3, params.get("radius", 0.9), res)
    if name == "sphere_h3":
        return _sphere_curved(amb.H3, params.get("radius", 0.8), res)
    if name == "clifford_torus":
        return _clifford(res)
    # delaunay_t3; a profile solve is cheap and deterministic, so threads
    # that race on one neck and both solve it do no harm
    k = int(params.get("k", 1))
    neck = float(params.get("neck", 0.55))
    prof = _CACHE.get(neck)
    if prof is None:
        prof = _CACHE[neck] = solve_profile(neck)
    return delaunay_torus(k, neck, res[0], res[1], profile=prof)


# --------------------------------------------------------------- descriptors

def from_descriptor(desc: dict) -> Immersion:
    """The member a ``{"kind", "params", "resolution"}`` descriptor names,
    built afresh as by ``gallery``."""
    name, res, params = desc["kind"], tuple(desc["resolution"]), desc.get("params", {})
    check_params(name, params)
    return _construct(name, res, params)
