import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cmcindex import cli
from conftest import record_blas_threads

# coarse grids for speed; the identity residual budget is relaxed accordingly
SMALL_IDENTITY = {
    "seed": 3,
    "variations": 4,
    "tolerance": 5e-4,
    "surfaces": [
        {"kind": "sphere_r3", "params": {"radius": 1.0}, "resolution": [32, 24]},
        {"kind": "clifford_torus", "params": {}, "resolution": [32, 32]},
    ],
}

SMALL_SPECTRUM = {
    "count": 10,
    "stability": False,
    "surfaces": [
        {"kind": "sphere_r3", "params": {"radius": 1.0}, "resolution": [32, 16]},
        {"kind": "clifford_torus", "params": {}, "resolution": [24, 24]},
    ],
}


def _cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_identity_command_passes(tmp_path):
    rc = cli.main(["identity", "--config", _cfg(tmp_path, SMALL_IDENTITY),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert all(r["pass"] for r in report["results"])
    assert (tmp_path / "out" / "identity.csv").exists()


def test_identity_zero_tolerance_fails(tmp_path):
    cfg = dict(SMALL_IDENTITY, tolerance=0.0)
    rc = cli.main(["identity", "--config", _cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1


def test_unknown_surface_is_config_error(tmp_path):
    cfg = dict(SMALL_IDENTITY)
    cfg["surfaces"] = [{"kind": "unknown_surface", "params": {}, "resolution": [16, 16]}]
    rc = cli.main(["identity", "--config", _cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("change", [
    {"variations": "3"}, {"seed": 1.5}, {"count": True}, {"count": 0},
    {"tolerance": "1e-6"}, {"stability": "yes"},
    {"surfaces": [{"kind": "sphere_r3", "params": {"bogus": 3}}]},
    {"surfaces": [{"kind": "sphere_r3", "params": {"radius": "one"}}]},
    {"surfaces": [{"kind": "clifford_torus", "resolution": [32]}]},
    # json writes and reads these as the non-standard NaN and Infinity
    {"tolerance": float("nan")}, {"tolerance": float("inf")},
    {"surfaces": [{"kind": "sphere_r3", "params": {"radius": float("inf")}}]},
    {"surfaces": [{"kind": "sphere_r3", "params": {"radius": float("nan")}}]},
    {"surfaces": [{"kind": "sphere_h3", "params": {"radius": float("nan")}}]},
    {"seed": -1},
    # a sphere's node spacing divides by ny
    {"surfaces": [{"kind": "sphere_r3", "resolution": [64, 0]}]},
])
def test_invalid_config_is_config_error(tmp_path, capsys, change):
    cfg = dict(SMALL_IDENTITY, **change)
    rc = cli.main(["identity", "--config", _cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_svg_flag_only_on_spectrum():
    with pytest.raises(SystemExit) as exc:
        cli.main(["identity", "--svg"])
    assert exc.value.code == 2


def test_bad_config_file_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["identity", "--config", str(p)]) == 2
    assert cli.main(["identity", "--surface", "nonexistent"]) == 2


def test_spectrum_command_and_svg(tmp_path):
    rc = cli.main(["spectrum", "--config", _cfg(tmp_path, SMALL_SPECTRUM),
                   "--out", str(tmp_path / "out"), "--svg"])
    assert rc == 0
    rows = (tmp_path / "out" / "index.csv").read_text().strip().splitlines()
    assert rows[0].startswith("surface,index,nullity,weak_index")
    got = {r.split(",")[0].split("(")[0]: r.split(",")[1:3] for r in rows[1:]}
    assert got["sphere_r3"] == ["1", "3"]
    assert got["clifford_torus"] == ["5", "4"]
    svg = (tmp_path / "out" / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "stroke" in svg
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_spectrum_svg_of_no_surfaces(tmp_path):
    rc = cli.main(["spectrum", "--config", _cfg(tmp_path, {"surfaces": []}),
                   "--out", str(tmp_path / "out"), "--svg"])
    assert rc == 0
    svg = (tmp_path / "out" / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "(i=" not in svg
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert rows == ["surface,k,eigenvalue,classification"]


def test_bounds_command_with_r_table(tmp_path):
    cfg = {
        "count": 10, "stability": False,
        "surfaces": [
            {"kind": "sphere_r3", "params": {"radius": 1.0}, "resolution": [32, 16]},
            {"kind": "sphere_h3", "params": {"radius": 0.8}, "resolution": [32, 16]},
        ],
    }
    rc = cli.main(["bounds", "--config", _cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out"), "--r-table"])
    assert rc == 0
    table = {}
    for line in (tmp_path / "out" / "r_table.csv").read_text().strip().splitlines()[1:]:
        g, b, r = (int(v) for v in line.split(","))
        table[(g, b)] = r
    assert table[(0, 0)] == 0 and table[(1, 0)] == 2
    assert table[(3, 1)] == 10 and table[(2, 5)] == 0
    rows = (tmp_path / "out" / "bounds.csv").read_text().strip().splitlines()
    h3_row = next(r for r in rows if r.startswith("sphere_h3"))
    cells = h3_row.split(",")
    header = rows[0].split(",")
    assert cells[header.index("bound")] == ""           # n/a columns
    assert cells[header.index("dichotomy")] == "NotApplicable"


def test_gallery_command(tmp_path):
    cfg = {"surfaces": [{"kind": "sphere_r3", "params": {"radius": 1.0},
                         "resolution": [32, 16]}]}
    rc = cli.main(["gallery", "--config", _cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"][0]["pass"]
    assert rep["results"][0]["area_rel_error"] < 1e-6


def test_determinism_byte_identical(tmp_path):
    argv = ["identity", "--config", _cfg(tmp_path, SMALL_IDENTITY), "--seed", "11"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "identity.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def _python(args, cwd, **env):
    """Run ``python args`` in a fresh process that imports this cmcindex,
    with the environment variables ``env`` set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          timeout=300, cwd=cwd, env=env)


def test_module_entry_point(tmp_path):
    proc = _python(["-m", "cmcindex.cli", "identity", "--config",
                    _cfg(tmp_path, SMALL_IDENTITY), "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_identity_rows_independent_of_variation_count(tmp_path, monkeypatch):
    """Every row comes from the span Grams, built once per surface per run
    (never for no variations), and the rows at 1 and 14 variations are the
    first rows at 15 byte for byte: a row depends only on its surface and
    seed.  14 and 15 straddle half of sphere_r3's N = 30 span fields."""
    from cmcindex import span
    built = []
    grams = span.grams
    monkeypatch.setattr(span, "grams", lambda imm: built.append(imm) or grams(imm))
    rows = {}
    for n in (0, 1, 14, 15):
        built.clear()
        out = tmp_path / str(n)
        cfg = _cfg(tmp_path, dict(SMALL_IDENTITY, variations=n))
        assert cli.main(["identity", "--config", cfg, "--out", str(out)]) == 0
        assert len(built) == (len(SMALL_IDENTITY["surfaces"]) if n else 0)
        with open(out / "identity.csv", newline="") as fh:
            rows[n] = list(csv.reader(fh))[1:]
    assert rows[0] == []
    for key in {r[0] for r in rows[15]}:
        full = [r for r in rows[15] if r[0] == key]
        assert len(full) == 15
        for n in (1, 14):
            assert [r for r in rows[n] if r[0] == key] == full[:n], (key, n)


@pytest.mark.parametrize("variations", [4, 50], ids=["4-variations", "50-variations"])
def test_identity_independent_of_blas_threads(tmp_path, variations):
    config = _cfg(tmp_path, dict(SMALL_IDENTITY, variations=variations))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _python(["-m", "cmcindex.cli", "identity", "--config", config, "--out", str(out)],
                       tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("report.json", "identity.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# with the 5/4 refinement, the Delaunay blocks (L = 64 and 80) are large
# enough for LAPACK and the cross-axis products to wake a second BLAS thread
BLAS_SPECTRUM = dict(SMALL_SPECTRUM, stability=True, surfaces=SMALL_SPECTRUM["surfaces"] + [
    {"kind": "delaunay_t3", "params": {"k": 2, "neck": 0.55}, "resolution": [64, 32]}])


@pytest.mark.parametrize("command", ["spectrum", "bounds"])
def test_spectral_reports_independent_of_blas_threads(tmp_path, command):
    config = _cfg(tmp_path, BLAS_SPECTRUM)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _python(["-m", "cmcindex.cli", command, "--config", config, "--out", str(out)],
                       tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("params", [{"k": 1, "neck": 1.5}, {"k": 0},
                                    {"neck": 0.0}, {"k": 2, "neck": -0.3}])
def test_bad_delaunay_params_exit_2(tmp_path, params):
    cfg = {"surfaces": [{"kind": "delaunay_t3", "params": params}]}
    proc = _python(["-m", "cmcindex.cli", "gallery", "--config", _cfg(tmp_path, cfg),
                    "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "delaunay_t3" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, radius", [("sphere_r3", 1e-200), ("sphere_r3", 1e160),
                                          ("sphere_h3", 800.0), ("sphere_h3", 400.0)])
def test_bad_sphere_radius_exit_2(tmp_path, kind, radius):
    # unchecked, these raise ZeroDivisionError or OverflowError (exit 1),
    # overflow with RuntimeWarnings (exit 1) or blame a NaN CMC value
    cfg = {"surfaces": [{"kind": kind, "params": {"radius": radius}}]}
    proc = _python(["-m", "cmcindex.cli", "gallery", "--config", _cfg(tmp_path, cfg),
                    "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and f"{kind} radius" in proc.stderr
    assert repr(radius) in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_h3_sphere_without_shift_axis_names_the_field(tmp_path):
    # at radius 5 the hyperboloid round-off in q = |A|^2 - 2 spreads the
    # potential by 2.8e-8 relative along x, far above SHIFT_RTOL
    cfg = {"surfaces": [{"kind": "sphere_h3", "params": {"radius": 5.0},
                         "resolution": [32, 16]}]}
    proc = _python(["-m", "cmcindex.cli", "spectrum", "--config", _cfg(tmp_path, cfg),
                    "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert "sphere_h3" in proc.stderr and "potential" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, builds", [("identity", 5), ("spectrum", 10),
                                             ("bounds", 7), ("gallery", 5)])
def test_default_commands_build_each_surface_once(tmp_path, monkeypatch, command, builds):
    # no default command asks for one surface twice, refinement grids
    # included, which is why the gallery keeps no built surfaces
    keys = []
    real = cli.gal._construct

    def recording(name, res, params):
        keys.append((name, tuple(sorted(params.items())), tuple(res)))
        return real(name, res, params)

    monkeypatch.setattr(cli.gal, "_construct", recording)
    assert cli.main([command, "--out", str(tmp_path / "out")]) == 0
    assert len(keys) == builds and len(set(keys)) == builds


def test_default_paths_import_no_scipy(tmp_path):
    # the four commands on their defaults (identity on a small config), the
    # README quick start with eigenpair residuals, and the span module run
    # with every scipy import made to fail
    script = f"""
import json, sys
sys.modules["scipy"] = None
import cmcindex.cli as cli
import cmcindex.span
from cmcindex import build_surface, variations as vr, spectral as sp, bounds as bd
codes = [cli.main(["spectrum", "--svg", "--out", "spectrum"])]
codes += [cli.main([c, "--out", c]) for c in ("bounds", "gallery")]
codes.append(cli.main(["identity", "--config", {_cfg(tmp_path, SMALL_IDENTITY)!r},
                       "--out", "identity"]))
imm = build_surface("delaunay_t3", k=2, neck=0.55)
vr.comparison_identity_residual(imm, vr.seeded_variation(imm, 0))
op = sp.assemble_jacobi(imm)
res = sp.eigensolve(op, 12)
i, n = sp.index_nullity(res)
bd.bound_report(imm, i, n, sp.weak_index(op))
worst = float(sp.residual_norms(op, res).max())
print(json.dumps({{"codes": codes, "residual": worst}}))
"""
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0]
    assert out["residual"] <= 1e-10


@pytest.mark.parametrize("command", ["identity", "spectrum", "bounds", "gallery"])
def test_commands_build_surfaces_on_the_calling_thread(tmp_path, monkeypatch, command):
    # every surface is built, and so analysed, on the thread that called main
    threads = []
    real = cli.gal.from_descriptor

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.gal, "from_descriptor", recording)
    payload = SMALL_IDENTITY if command == "identity" else SMALL_SPECTRUM
    rc = cli.main([command, "--config", _cfg(tmp_path, payload),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(threads) >= len(payload["surfaces"])
    assert set(threads) == {threading.get_ident()}


def test_spectrum_pool_restores_blas_threads(tmp_path, monkeypatch, blas_threads):
    # numpy's OpenBLAS runs on one thread in every block solve and gets its
    # count back when the last one is done
    seen = record_blas_threads(monkeypatch, "eigvalsh", blas_threads)
    rc = cli.main(["spectrum", "--config", _cfg(tmp_path, SMALL_SPECTRUM),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def test_resolution_override_does_not_leak(tmp_path):
    # --resolution rewrites a copy of the default descriptors only
    rc = cli.main(["gallery", "--surface", "sphere_r3", "--resolution", "16",
                   "--out", str(tmp_path / "a")])
    assert rc == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["results"][0]["descriptor"]["resolution"] == [16, 8]
    rc = cli.main(["gallery", "--surface", "sphere_r3",
                   "--out", str(tmp_path / "b")])
    assert rc == 0
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["results"][0]["descriptor"]["resolution"] == [64, 32]


@pytest.mark.parametrize("argv", [["identity", "--resolution", "0"],
                                  ["gallery", "--surface", "delaunay_t3", "--resolution", "0"],
                                  ["gallery", "--surface", "delaunay_t3", "--resolution", "-5"]])
def test_resolution_below_8_is_config_error(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert "at least 8 per direction" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch):
    """--seed is checked as the config's "seed" is, before any surface is
    built and before --out is made."""
    monkeypatch.setattr(cli.gal, "from_descriptor",
                        lambda *a, **kw: pytest.fail("surface built"))
    rc = cli.main(["identity", "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: 'seed' must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
