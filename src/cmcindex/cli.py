"""Command-line front end producing reproducible verification reports.

Subcommands:

* ``identity`` -- comparison-identity residuals over seeded random variations,
  from the span Gram matrices of each surface (below);
* ``spectrum`` -- Jacobi eigenvalue tables with index/nullity/weak index and
  refinement-stability flags (optional SVG strip plot);
* ``bounds``   -- full index-bound reports per surface (plus ``--r-table``);
* ``gallery``  -- gallery descriptors, reference data and geometry checks.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 bad input.
Outputs (report.json, *.csv, optional *.svg) are byte-identical across runs
with the same configuration and seed, whatever OPENBLAS_NUM_THREADS is;
surfaces are written in sorted order.  Each command builds and solves its
surfaces one after another on the calling thread: at the default grids the
per-surface work is short numpy calls that hold the GIL, and a pool of two
threads measured more CPU time than one thread and no less wall-clock time.
No command asks for one surface twice (the refinement grids of ``spectrum``
are surfaces of their own), so each is built afresh and its geometry freed
once its analysis is done.
The spectral calls of ``spectrum`` and ``bounds`` run numpy's OpenBLAS on
one thread (``spectral``), where a second BLAS thread would only spin.

Every seeded variation of a surface lies in one span of N fields (N = 30 to
100 on the default surfaces).  ``identity`` assembles once per surface the
N x N Gram matrices of d2A, d2E and the chart defect 8 int |eta|^2 dx dy
(``span.grams``: the stencil jets of all N fields at chunks of chart
points, each form one weighted product of those jets).  Every default
surface maps onto itself under a one-step chart shift that rotates the
ambient space, so the Grams come from one chart line and the shift's
orbit, at a cost that follows the line and not the grid; a surface
without that symmetry is assembled over the whole chart.  Each
variation's row is written from its coefficient vector c as c^T G c
(``span.identity_residuals``), so a row depends only on its surface and
seed.  The Gram products run numpy's OpenBLAS on one thread, as the
spectral calls do (``spectral``); the outputs were checked byte-identical
at OPENBLAS_NUM_THREADS 1 and 2 with the OpenBLAS bundled with numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import gallery as gal
from . import spectral as sp
from . import surfaces as sf
from .grids import check_resolution

SCHEMA_VERSION = 1

_IDENTITY_DEFAULTS = [
    {"kind": "sphere_r3", "params": {"radius": 1.0}, "resolution": [64, 48]},
    {"kind": "sphere_s3", "params": {"radius": 0.9}, "resolution": [64, 48]},
    {"kind": "sphere_h3", "params": {"radius": 0.8}, "resolution": [64, 48]},
    {"kind": "clifford_torus", "params": {}, "resolution": [64, 64]},
    {"kind": "delaunay_t3", "params": {"k": 2, "neck": 0.55}, "resolution": [64, 64]},
]

_SPECTRUM_DEFAULTS = [
    {"kind": "sphere_r3", "params": {"radius": 1.0}, "resolution": [64, 32]},
    {"kind": "sphere_s3", "params": {"radius": 0.9}, "resolution": [64, 32]},
    {"kind": "sphere_h3", "params": {"radius": 0.8}, "resolution": [64, 32]},
    {"kind": "clifford_torus", "params": {}, "resolution": [48, 48]},
    {"kind": "delaunay_t3", "params": {"k": 2, "neck": 0.55}, "resolution": [64, 32]},
]

_BOUNDS_DEFAULTS = _SPECTRUM_DEFAULTS + [
    {"kind": "delaunay_t3", "params": {"k": 1, "neck": 0.55}, "resolution": [32, 32]},
    {"kind": "delaunay_t3", "params": {"k": 3, "neck": 0.55}, "resolution": [96, 32]},
]


class ConfigError(ValueError):
    pass


# type and smallest value of each top-level config setting
_SETTINGS = {"seed": (Integral, 0), "variations": (Integral, 0),
             "tolerance": (Real, 0), "count": (Integral, 1), "stability": (bool, None)}
_TYPE_NAMES = {Integral: "an integer", Real: "a number", bool: "true or false"}


@dataclass
class RunConfig:
    surfaces: list
    seed: int = 0
    variations: int = 20
    tolerance: float = 1e-6
    count: int = 12
    stability: bool = True
    out: Path = Path("cmcindex_out")
    svg: bool = False
    r_table: bool = False


def _surface_key(desc: dict) -> str:
    # comma-free so keys stay single CSV cells
    params = ";".join(f"{k}={v}" for k, v in sorted(desc.get("params", {}).items()))
    nx, ny = desc["resolution"]
    return f"{desc['kind']}({params})@{nx}x{ny}"


def _build(desc: dict):
    try:
        return gal.from_descriptor(desc)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args, defaults: list) -> RunConfig:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("surfaces", []), list):
            raise ConfigError("config must be an object with a 'surfaces' list")
    for d in raw.get("surfaces", []):
        _check_descriptor(d)
    # deep-copy descriptors: overrides below must never leak into the
    # module-level defaults across invocations
    surfaces = [dict(d, params=dict(d.get("params", {})))
                for d in raw.get("surfaces", defaults)]
    for d in surfaces:
        if "resolution" not in d:
            d["resolution"] = list(gal.default_resolution(d["kind"], **d["params"]))
        else:
            d["resolution"] = list(d["resolution"])
    if args.surface:
        surfaces = [d for d in surfaces if d["kind"] == args.surface]
        if not surfaces:
            raise ConfigError(f"unknown or unconfigured surface {args.surface!r}")
    if args.resolution is not None:
        n = args.resolution
        # checked here: the Delaunay rule below clamps n // 2 up to 8
        if n < 8:
            raise ConfigError(f"--resolution must be at least 8 per direction, got {n}")
        for d in surfaces:
            if d["kind"].startswith("sphere"):
                d["resolution"] = [n, max(8, n // 2)]
            elif d["kind"] == "delaunay_t3":
                d["resolution"] = [max(8, n // 2) * int(d["params"].get("k", 1)),
                                   max(8, n // 2)]
            else:
                d["resolution"] = [n, n]
    cfg = RunConfig(surfaces=surfaces)
    for key, (kind, least) in _SETTINGS.items():
        if key in raw:
            setattr(cfg, key, _setting(key, raw[key], kind, least))
    if args.seed is not None:
        cfg.seed = _setting("seed", args.seed, *_SETTINGS["seed"])
    if getattr(args, "out", None):
        cfg.out = Path(args.out)
    cfg.svg = bool(getattr(args, "svg", False))
    cfg.r_table = bool(getattr(args, "r_table", False))
    return cfg


def _setting(key: str, value, kind: type, least):
    # JSON true/false are Python ints; accept them only where a bool is meant
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    # json reads NaN, Infinity and 1e999 as floats
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key!r} must be at least {least}, got {value!r}")
    return value


def _check_descriptor(d) -> None:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"surface descriptor {d!r} needs a 'kind'")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"'params' of {d['kind']!r} must be an object")
    res = d.get("resolution")
    if res is not None and not (isinstance(res, list) and len(res) == 2 and all(
            isinstance(v, int) and not isinstance(v, bool) for v in res)):
        raise ConfigError(f"'resolution' of {d['kind']!r} must be two integers")
    try:
        gal.check_params(d["kind"], params)
        if res is not None:
            check_resolution(*res)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from exc


# ------------------------------------------------------------------- writers

def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_json_default) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.bool_):
        return str(bool(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    """Write the rows, each a list of cells or a line formatted already."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _spectrum_svg(results: list[dict]) -> str:
    """Strip plot: one row per surface, eigenvalue ticks colored by sign."""
    width, row_h, pad = 640, 36, 60
    height = pad + row_h * len(results) + 20
    lams = [l for r in results for l in r["eigenvalues"]]
    lo, hi = min(lams, default=0.0), max(lams, default=0.0)
    span = hi - lo or 1.0

    def xpos(lam):
        return 40 + (lam - lo) / span * (width - 80)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             '<style>text{font:11px monospace}</style>']
    zero_x = xpos(0.0)
    parts.append(f'<line x1="{zero_x:.1f}" y1="30" x2="{zero_x:.1f}" '
                 f'y2="{height - 20}" stroke="#999" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{zero_x - 4:.1f}" y="24">0</text>')
    colors = {"negative": "#c03030", "null": "#808080", "positive": "#3050c0"}
    for i, r in enumerate(results):
        y = pad + i * row_h
        parts.append(f'<text x="6" y="{y - 12}">{r["surface"]} '
                     f'(i={r["index"]}, n={r["nullity"]})</text>')
        parts.append(f'<line x1="40" y1="{y}" x2="{width - 40}" y2="{y}" stroke="#ccc"/>')
        for lam, cls in zip(r["eigenvalues"], r["classification"]):
            parts.append(f'<line x1="{xpos(lam):.2f}" y1="{y - 8}" '
                         f'x2="{xpos(lam):.2f}" y2="{y + 8}" '
                         f'stroke="{colors[cls]}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ------------------------------------------------------------------ commands

def cmd_identity(cfg: RunConfig) -> int:
    # on demand: no other command compiles the span module
    from . import span

    def worker(desc):
        imm = _build(desc)
        key = _surface_key(desc)
        seeds = [cfg.seed * 100003 + i for i in range(cfg.variations)]
        rows, worst = [], 0.0
        for seed, rep in zip(seeds, span.identity_residuals(imm, seeds)):
            worst = max(worst, rep["residual_rel"])
            # the forms are Python floats: repr is the cell ``_csv_cell`` writes
            rows.append(f"{key},{seed},{rep['d2_area']!r},{rep['d2_energy']!r},"
                        f"{rep['defect_chart']!r},{rep['residual_abs']!r},"
                        f"{rep['residual_rel']!r}")
        return {"surface": key, "max_residual": worst,
                "pass": bool(worst < cfg.tolerance), "rows": rows}

    results = [worker(d) for d in sorted(cfg.surfaces, key=_surface_key)]
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out / "identity.csv",
               ["surface", "seed", "d2_area", "d2_energy", "defect", "residual_abs",
                "residual_rel"],
               [row for r in results for row in r["rows"]])
    _write_json(cfg.out / "report.json", {
        "schema_version": SCHEMA_VERSION, "command": "identity",
        "seed": cfg.seed, "tolerance": cfg.tolerance,
        "results": [{k: r[k] for k in ("surface", "max_residual", "pass")}
                    for r in results],
    })
    return 0 if all(r["pass"] for r in results) else 1


def _analyse(desc: dict, count: int, stability: bool = False) -> tuple:
    """Build, assemble and solve one surface: (imm, op, res, record), where
    the record holds the surface key, index, nullity, weak index, the
    refinement-stability flag (None unless ``stability``), the interlacing
    check and the known index lower bound with its check."""
    imm = _build(desc)
    op = sp.assemble_jacobi(imm)
    res = sp.eigensolve(op, min(count, op.n), want_vectors=False)
    i, n = sp.index_nullity(res)
    stable = None
    if stability:
        nx, ny = desc["resolution"]
        # refine by 5/4 (even nx for sphere pole closure)
        fine_desc = dict(desc, resolution=[2 * (int(nx * 1.25) // 2),
                                           int(ny * 1.25)])
        fine = sp.eigensolve(sp.assemble_jacobi(_build(fine_desc)),
                             min(count, op.n), want_vectors=False)
        stable = (i, n) == sp.index_nullity(fine)
    iw = sp.weak_index(op)
    lb = imm.reference.get("index_lower_bound")
    return imm, op, res, {
        "surface": _surface_key(desc), "index": i, "nullity": n,
        "weak_index": iw, "stable": stable,
        "sandwich_ok": bool(i - 1 <= iw <= i),
        "index_lower_bound": lb,
        "index_lb_ok": None if lb is None else bool(i >= lb),
    }


def _spectrum_for(desc: dict, cfg: RunConfig) -> dict:
    _, op, res, out = _analyse(desc, cfg.count, cfg.stability)
    out.update(eigenvalues=[float(v) for v in res.eigenvalues],
               classification=res.classification(), eps_null=res.eps_null,
               operator=op.describe())
    return out


def cmd_spectrum(cfg: RunConfig) -> int:
    results = [_spectrum_for(d, cfg) for d in sorted(cfg.surfaces, key=_surface_key)]
    cfg.out.mkdir(parents=True, exist_ok=True)
    rows = []
    for r in results:
        for k, (lam, cls) in enumerate(zip(r["eigenvalues"], r["classification"])):
            rows.append([r["surface"], k, lam, cls])
    _write_csv(cfg.out / "spectrum.csv",
               ["surface", "k", "eigenvalue", "classification"], rows)
    _write_csv(cfg.out / "index.csv",
               ["surface", "index", "nullity", "weak_index", "stable",
                "sandwich_ok", "index_lower_bound", "index_lb_ok"],
               [[r["surface"], r["index"], r["nullity"], r["weak_index"],
                 r["stable"], r["sandwich_ok"], r["index_lower_bound"],
                 r["index_lb_ok"]] for r in results])
    _write_json(cfg.out / "report.json", {
        "schema_version": SCHEMA_VERSION, "command": "spectrum",
        "results": results,
    })
    if cfg.svg:
        (cfg.out / "spectrum.svg").write_text(_spectrum_svg(results))
    # instability is a reported flag, not a failure; sandwich or known
    # index-lower-bound violations are mathematical failures
    ok = all(r["sandwich_ok"] and r["index_lb_ok"] in (None, True)
             for r in results)
    return 0 if ok else 1


def cmd_bounds(cfg: RunConfig) -> int:
    def worker(desc):
        imm, _, _, rec = _analyse(desc, cfg.count)
        out = bd.bound_report(imm, rec["index"], rec["nullity"],
                              rec["weak_index"]).to_dict()
        for key in ("surface", "sandwich_ok", "index_lower_bound", "index_lb_ok"):
            out[key] = rec[key]
        return out

    results = [worker(d) for d in sorted(cfg.surfaces, key=_surface_key)]
    cfg.out.mkdir(parents=True, exist_ok=True)
    cols = ["surface", "genus", "branch_count", "h", "extrinsic_bound", "area",
            "willmore", "index", "nullity", "weak_index", "r", "bound",
            "bound_tight", "margin", "passed", "conjecture_gap", "dichotomy",
            "index_lower_bound", "index_lb_ok", "sandwich_ok"]
    _write_csv(cfg.out / "bounds.csv", cols,
               [[r[c] for c in cols] for r in results])
    if cfg.r_table:
        _write_csv(cfg.out / "r_table.csv", ["g", "b", "r"],
                   [list(row) for row in bd.r_table(10, 40)])
    _write_json(cfg.out / "report.json", {
        "schema_version": SCHEMA_VERSION, "command": "bounds",
        "results": results,
    })
    ok = all((r["passed"] in (None, True)) and r["sandwich_ok"]
             and (r["index_lb_ok"] in (None, True)) for r in results)
    return 0 if ok else 1


def cmd_gallery(cfg: RunConfig) -> int:
    def worker(desc):
        imm = _build(desc)
        entry = {
            "surface": _surface_key(desc), "descriptor": desc,
            "reference": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                          for k, v in imm.reference.items()},
            "area": sf.area(imm),
            "conformality_residual": sf.conformality_residual(imm),
            "cmc_residual": sf.cmc_residual(imm),
        }
        exact = imm.reference.get("area_exact")
        entry["area_rel_error"] = (abs(entry["area"] - exact) / exact
                                   if exact else None)
        entry["pass"] = bool(entry["conformality_residual"] < 1e-10
                             and entry["cmc_residual"] < 1e-6)
        return entry

    results = [worker(d) for d in sorted(cfg.surfaces, key=_surface_key)]
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out / "report.json", {
        "schema_version": SCHEMA_VERSION, "command": "gallery",
        "results": results,
    })
    return 0 if all(r["pass"] for r in results) else 1


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmcindex",
        description="verification reports for CMC-surface index bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [("identity", "comparison-identity residuals"),
                           ("spectrum", "Jacobi spectra and indices"),
                           ("bounds", "index bound reports"),
                           ("gallery", "gallery descriptors and geometry checks")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--surface", help="restrict to one gallery surface kind")
        p.add_argument("--resolution", type=int, help="override grid resolution")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="cmcindex_out")
        if name == "spectrum":
            p.add_argument("--svg", action="store_true",
                           help="also write an SVG strip plot of the spectra")
        if name == "bounds":
            p.add_argument("--r-table", dest="r_table", action="store_true",
                           help="also write the r(g,b) table for g<=10, b<=40")
    args = parser.parse_args(argv)
    defaults = {"identity": _IDENTITY_DEFAULTS, "spectrum": _SPECTRUM_DEFAULTS,
                "bounds": _BOUNDS_DEFAULTS, "gallery": _SPECTRUM_DEFAULTS}[args.command]
    try:
        cfg = _load_config(args, defaults)
        return {"identity": cmd_identity, "spectrum": cmd_spectrum,
                "bounds": cmd_bounds, "gallery": cmd_gallery}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
