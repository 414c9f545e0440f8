"""One measured cmcindex process, started fresh by ``run.py`` for every sample.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``mode`` ("setup", "cli" or "library"), ``t_spawn`` (the parent's
``time.time()`` just before this process was started), ``result`` (the path
this process writes its JSON result to) and, for work modes, ``trace`` plus
``argv`` (cli) or ``seeds`` (library). The process starts cold: the gallery
cache and every lazy geometry attribute are empty, as for a CLI user.
"""

import json
import resource
import sys
import time

import numpy
import scipy

import cmcindex
import cmcindex.cli


def versions() -> dict:
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": blas(numpy),
            "openblas_scipy": blas(scipy), "cmcindex_file": cmcindex.__file__}


def quickstart(seeds: dict) -> dict:
    """README quick-start pipeline plus demo 03's FD sweep and demo 05's
    Laplace heat-trace chain, called through module attributes so that a
    traced run sees the wrapped functions."""
    vr, sp, bd = cmcindex.variations, cmcindex.spectral, cmcindex.bounds
    eig = []
    for j, (name, kw) in enumerate([
            ("delaunay_t3", {"k": 2, "neck": 0.55, "resolution": (64, 32)}),
            ("sphere_r3", {"resolution": (64, 32)})]):
        imm = cmcindex.build_surface(name, **kw)
        ident = vr.comparison_identity_residual(
            imm, vr.seeded_variation(imm, seeds["identity"] + j))
        op = sp.assemble_jacobi(imm)
        res = sp.eigensolve(op, 12)
        i, n = sp.index_nullity(res)
        iw = sp.weak_index(op)
        rep = bd.bound_report(imm, i, n, iw)
        eig.append({"surface": name, "index": i, "nullity": n, "weak_index": iw,
                    "index_lower_bound": imm.reference.get("index_lower_bound"),
                    "residual_norm_max": float(sp.residual_norms(op, res).max()),
                    "bound_passed": rep.passed,
                    "identity_residual_rel": float(ident["residual_rel"])})
    fd = []
    for name, kw in [("sphere_r3", {}), ("sphere_s3", {}), ("sphere_h3", {}),
                     ("clifford_torus", {"resolution": (64, 64)}),
                     ("delaunay_t3", {"k": 2, "resolution": (64, 64)})]:
        imm = cmcindex.build_surface(name, **kw)
        for s in range(5):
            vf = vr.seeded_variation(imm, seeds["fd"] + s)
            for fn, form in (("area", vr.second_variation_area(imm, vf)),
                             ("energy", vr.second_variation_energy(imm, vf)),
                             ("volume_h", vr.second_variation_volume(imm, vf, imm.cmc_value))):
                oracle = vr.fd_second_variation(fn, imm, vf)
                fd.append({"surface": name, "functional": fn,
                           "gap": abs(form - oracle) / max(1.0, abs(form))})
    imm = cmcindex.build_surface("sphere_r3", resolution=(64, 32))
    lb = sp.eigensolve(sp.assemble_laplace(imm), 8, want_vectors=False)
    chain = bd.energy_index_chain(imm, lb, 0, 0, measured_index_plus_nullity=4)
    return {"eigen": eig, "fd": fd, "chain_ok": bool(chain["ok"])}


def main(spec_path: str) -> None:
    imported = time.time()
    with open(spec_path) as fh:
        spec = json.load(fh)
    out = {"setup_s": imported - spec["t_spawn"]}
    if spec["mode"] == "setup":
        out["versions"] = versions()
    else:
        tracer = None
        if spec["trace"]:
            import tracer as tr
            tracer = tr.Tracer()
            tr.install(tracer)
        if spec["mode"] == "cli":
            work = lambda: cmcindex.cli.main(spec["argv"])  # noqa: E731
        else:
            work = lambda: quickstart(spec["seeds"])  # noqa: E731
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        value = work() if tracer is None else tracer.call("bench.run", "bench", work)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update(run_s=t1 - t0,
                   cpu_s=(r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
                   peak_rss_mb=r1.ru_maxrss / 1024.0)
        if spec["mode"] == "cli":
            out["exit_code"] = value
        else:
            out["outputs"] = value
        if tracer is not None:
            out["layers"] = tracer.summary()
            out["parenting_problems"] = tracer.check_parenting()
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
