"""Index-bound formulas and analytic-inequality checks.

Contains the topological correction term r(g, b) of the index transfer
between area and energy, the explicit constant pipeline (the delta-expression
whose minimum pins the headline constant 60/pi), the main linear index bound

    index + nullity <= C (4 J^2 + h^2) Area + r(g, b),

the Michael-Simon-Sobolev / interpolation / Peter-Paul / heat-trace
inequality checks used to validate the proof chain numerically, and the
negative-curvature dichotomy classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from . import ambient as amb
from . import spectral as sp
from .surfaces import Immersion, area

__all__ = [
    "topological_r", "r_table", "delta_expression", "optimize_delta",
    "HEADLINE_CONSTANT", "main_bound", "willmore_energy", "mss_check",
    "interpolation_check", "heat_trace_bound_check", "energy_index_chain",
    "negative_curvature_classify", "DichotomyResult", "BoundReport",
    "bound_report", "default_t_grid",
]

HEADLINE_CONSTANT = 60.0 / math.pi


# ----------------------------------------------------------- topological term

def topological_r(g: int, b: int) -> int:
    """Piecewise topological correction r(g, b); [x] is the floor.

    The three integer cases tile g >= 0, b >= 0 exactly; the middle case's
    floor of -b/2 equals -ceil(b/2).
    """
    if g < 0 or b < 0 or g != int(g) or b != int(b):
        raise ValueError("genus and branch count must be non-negative integers")
    g, b = int(g), int(b)
    if b <= 2 * g - 3:
        return 6 * g - 6 - 2 * b
    if 2 * g - 2 <= b <= 4 * g - 4:
        return 4 * g - 2 - 2 * ((b + 1) // 2)
    if b >= 4 * g - 3:
        return 0
    raise AssertionError(f"r(g,b) case analysis missed (g={g}, b={b})")


def r_table(g_max: int, b_max: int) -> list[tuple[int, int, int]]:
    return [(g, b, topological_r(g, b))
            for g in range(g_max + 1) for b in range(b_max + 1)]


# --------------------------------------------------------- constant pipeline

def delta_expression(delta: float) -> float:
    """(x+2)^(2 + 4/x) / (delta^2 2^(4/x)) with x = delta (1 + delta).

    Divergent at 0+ (like e^2/delta^2) and at infinity (like delta^2);
    its minimum over delta > 0 is below 40, reached near delta ~ 2.3.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = delta * (1.0 + delta)
    # log form: 2 log(x+2) + (4/x) log(1 + x/2) - 2 log(delta); the middle
    # term tends to 2 as x -> 0+, so the whole expression stays finite until
    # the 1/delta^2 factor takes over.
    return math.exp(2.0 * math.log(x + 2.0) + (4.0 / x) * math.log1p(0.5 * x)
                    - 2.0 * math.log(delta))


def _golden_section(f: Callable[[float], float], a: float, b: float,
                    tol: float) -> float:
    """Midpoint of the golden-section bracket of a minimum of f on (a, b),
    once the bracket is no wider than tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# bracket and width tolerance of the delta-expression minimizer
_DELTA_BRACKET = (1e-6, 100.0)
_DELTA_TOL = 1e-10


def optimize_delta() -> tuple[float, float]:
    """Golden-section minimizer of the delta-expression on ``_DELTA_BRACKET``
    and its minimum."""
    x = _golden_section(delta_expression, *_DELTA_BRACKET, _DELTA_TOL)
    return x, delta_expression(x)


# ------------------------------------------------------------------ the bound

def _require_extrinsic(imm: Immersion) -> float:
    j = imm.space.extrinsic_bound
    if j is None:
        raise amb.UnsupportedOperation(
            f"{imm.space.kind} carries no Euclidean embedding bound J")
    return float(j)


def main_bound(j: float, h: float, surface_area: float, g: int, b: int) -> dict:
    """Headline bound C (4J^2 + h^2) Area + r and its optimized-constant twin."""
    if not np.isfinite([j, h, surface_area]).all():
        raise ValueError("bound inputs must be finite")
    r = topological_r(g, b)
    w = (4.0 * j * j + h * h) * surface_area
    _, fstar = optimize_delta()
    return {
        "r": r,
        "willmore": w,
        "bound": HEADLINE_CONSTANT * w + r,
        "bound_tight": (3.0 / (2.0 * math.pi)) * fstar * w + r,
        "constant": HEADLINE_CONSTANT,
        "constant_tight": (3.0 / (2.0 * math.pi)) * fstar,
    }


def willmore_energy(imm: Immersion) -> float:
    """(h^2 + 4 J^2) Area; the S3 members reduce to (h^2 + 4) Area."""
    j = _require_extrinsic(imm)
    return (imm.cmc_value ** 2 + 4.0 * j * j) * area(imm)


# ------------------------------------------------------- inequality validators

def mss_check(imm: Immersion, f: np.ndarray) -> float:
    """Margin of the Michael-Simon-Sobolev inequality for a sampled scalar.

    (int f^2)^(1/2) <= (2 pi)^(-1/2) int |grad f| + sqrt(h^2 + 4J^2) |f|.
    """
    j = _require_extrinsic(imm)
    g = imm.grid
    f = np.asarray(f, dtype=float)
    lhs = math.sqrt(imm.integrate(f * f))
    grad = np.exp(-imm.lam) * np.hypot(g.diff_x(f), g.diff_y(f))
    mean_curv = math.sqrt(imm.cmc_value ** 2 + 4.0 * j * j)
    rhs = imm.integrate(grad + mean_curv * np.abs(f)) / math.sqrt(2.0 * math.pi)
    return rhs - lhs


def interpolation_check(imm: Immersion, f: np.ndarray) -> float:
    """Margin of ||f||_2^3 <= ||f||_4^2 ||f||_1 (zero exactly for |f| const)."""
    f = np.asarray(f, dtype=float)
    l1 = imm.integrate(np.abs(f))
    l2 = imm.integrate(f * f) ** 0.5
    l4 = imm.integrate(f ** 4) ** 0.25
    return l4 ** 2 * l1 - l2 ** 3


# points of the default log t-grid on [0.05, 5]
_T_GRID_POINTS = 40


def default_t_grid() -> np.ndarray:
    return np.geomspace(0.05, 5.0, _T_GRID_POINTS)


def heat_trace_bound_check(imm: Immersion, lb_result: sp.SpectralResult,
                           t_grid: Optional[Sequence[float]] = None,
                           delta: float = 2.3) -> dict:
    """Margins of the heat-trace upper bound along a log t-grid.

    h(t) <= (1+d)^2/(2 pi) Area (h^2+4J^2) (e^(b t)/(e^(b t)-1))^2 with
    b = d(1+d) a, a = (h^2+4J^2)/2; needs a > 0 (fails for h = J = 0).
    ``delta`` (d above) must be finite and > 0.
    """
    j = _require_extrinsic(imm)
    h = imm.cmc_value
    alpha = 0.5 * (h * h + 4.0 * j * j)
    if alpha <= 0:
        raise amb.UnsupportedOperation("heat-trace bound degenerates when h = J = 0")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    beta = delta * (1.0 + delta) * alpha
    ts = np.asarray(t_grid if t_grid is not None else default_t_grid(), dtype=float)
    a = area(imm)
    margins, values, truncated = [], [], []
    for t in ts:
        ht = sp.heat_trace(lb_result, float(t))
        # e^{bt}/(e^{bt}-1) = 1/(1 - e^{-bt}), stable for large bt
        ratio = 1.0 / (-math.expm1(-beta * t))
        rhs = ((1.0 + delta) ** 2 / (2.0 * math.pi)) * a * 2.0 * alpha * ratio ** 2
        margins.append(rhs - ht.value)
        values.append(ht.value)
        truncated.append(ht.truncated)
    return {"t": ts, "margins": np.array(margins), "heat_trace": np.array(values),
            "truncated": np.array(truncated), "delta": delta}


def energy_index_chain(imm: Immersion, lb_result: sp.SpectralResult,
                       g: int, b: int,
                       measured_index_plus_nullity: Optional[int] = None,
                       t_grid: Optional[Sequence[float]] = None) -> dict:
    """Spectral counting chain: 3 inf_t e^{(4J^2+2h^2) t} h(t), plus the
    index transfer i + n <= (chain value) + r.

    The infimum is taken over a log grid refined by golden section around
    the discrete minimizer, of the logarithm rate t + log h(t), so that the
    large rates of tori in T^3 (J = 2 pi) do not overflow.
    """
    j = _require_extrinsic(imm)
    h = imm.cmc_value
    rate = 4.0 * j * j + 2.0 * h * h
    if rate <= 0:
        raise amb.UnsupportedOperation("counting chain needs 4J^2 + 2h^2 > 0")
    ts = np.asarray(t_grid if t_grid is not None else default_t_grid(), dtype=float)

    def objective(t: float) -> float:
        return rate * t + math.log(sp.heat_trace(lb_result, t).value)

    vals = np.array([objective(t) for t in ts])
    k = int(np.argmin(vals))
    t_star = _golden_section(objective, float(ts[max(k - 1, 0)]),
                             float(ts[min(k + 1, ts.size - 1)]), 1e-8)
    chain = 3.0 * math.exp(objective(t_star))
    r = topological_r(g, b)
    out = {"chain": chain, "t_star": t_star, "r": r, "rate": rate,
           "bound_with_transfer": chain + r}
    if measured_index_plus_nullity is not None:
        out["measured"] = int(measured_index_plus_nullity)
        out["ok"] = measured_index_plus_nullity <= chain + r
    return out


# ----------------------------------------------------- curvature dichotomy

@dataclass
class DichotomyResult:
    case: str                      # "Case1" | "Case2" | "NotApplicable"
    index: Optional[int] = None
    nullity: Optional[int] = None
    note: str = ""


def negative_curvature_classify(kappa0: float, h: float,
                                a2_field: np.ndarray, ric_field: np.ndarray,
                                host: Optional[Immersion] = None,
                                tol: float = 1e-10) -> DichotomyResult:
    """Dichotomy under sectional curvature <= kappa0 < 0.

    NotApplicable when h^2 > 4|kappa0|.  Case2 (totally umbilic) demands
    h^2 = 4|kappa0|, |A|^2 = 2|kappa0| and Ric(nu,nu) = -2|kappa0| pointwise,
    and then the operator is -Delta: index 0, nullity 1 (confirmed spectrally
    when a host surface is supplied; ``spectral.eigensolve`` raises
    ``ValueError`` where a2 + ric varies along every periodic chart axis of
    the host).  Everything else is Case1, where the
    energy index and nullity vanish so index + nullity <= r.
    """
    if kappa0 >= 0:
        raise ValueError("classifier requires a certified negative bound kappa0 < 0")
    k = abs(kappa0)
    if h * h > 4.0 * k + tol:
        return DichotomyResult("NotApplicable",
                               note="h^2 > 4|kappa0|: outside the theorem's range")
    a2 = np.asarray(a2_field, dtype=float)
    ric = np.asarray(ric_field, dtype=float)
    umbilic = (abs(h * h - 4.0 * k) <= tol
               and np.max(np.abs(a2 - 2.0 * k)) <= tol
               and np.max(np.abs(ric + 2.0 * k)) <= tol)
    if umbilic:
        res = DichotomyResult("Case2", index=0, nullity=1,
                              note="totally umbilic: L = -Delta")
        if host is not None:
            op = sp.assemble_operator(host, a2 + ric, kind="dichotomy")
            spec = sp.eigensolve(op, min(8, op.n), want_vectors=False)
            res.index, res.nullity = sp.index_nullity(spec)
        return res
    return DichotomyResult("Case1",
                           note="energy index and nullity vanish; index+nullity <= r")


# -------------------------------------------------------------- bound reports

@dataclass
class BoundReport:
    surface: str
    genus: int
    branch_count: int
    h: float
    extrinsic_bound: Optional[float]
    area: float
    willmore: Optional[float]
    index: int
    nullity: int
    weak_index: Optional[int]
    r: int
    bound: Optional[float]
    bound_tight: Optional[float]
    margin: Optional[float]
    passed: Optional[bool]
    conjecture_gap: float
    dichotomy: str

    def to_dict(self) -> dict:
        return asdict(self)


def bound_report(imm: Immersion, index: int, nullity: int,
                 weak_idx: Optional[int] = None) -> BoundReport:
    """Assemble the full bound comparison for one surface."""
    g, b = imm.genus, imm.branch_count
    h = imm.cmc_value
    a = area(imm)
    r = topological_r(g, b)
    j = imm.space.extrinsic_bound
    measured = index + nullity
    conj = measured / ((1.0 + h * h) * a + g)
    if j is None:
        dich = negative_curvature_classify(imm.space.curvature, h,
                                           imm.second_form.norm_sq,
                                           imm.ricci_nu)
        return BoundReport(imm.name, g, b, h, None, a, None, index, nullity,
                           weak_idx, r, None, None, None, None, conj, dich.case)
    mb = main_bound(j, h, a, g, b)
    margin = mb["bound"] - measured
    return BoundReport(imm.name, g, b, h, j, a, mb["willmore"], index, nullity,
                       weak_idx, r, mb["bound"], mb["bound_tight"], margin,
                       bool(measured <= mb["bound"]), conj, "-")
