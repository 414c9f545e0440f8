"""Output checks for the three benchmark workloads.

``check`` returns a list of ``(name, ok)`` pairs whose length depends only
on the workload, never on the output: an invocation that crashed or timed
out (output ``None``) fails every one of its checks, so ``failed /
attempted`` stays comparable across runs.
"""

from __future__ import annotations

import copy

IDENTITY_TOLERANCE = 1e-6      # the CLI default and acceptance criterion 1
RESIDUAL_NORM_MAX = 1e-10      # eigenpair residual relative to ||K||_2
FD_GAP_MAX = 1e-4              # acceptance criterion 2

# (index, nullity, weak index) from the gallery references; the Delaunay
# torus is checked against its reference index lower bound instead
EXPECTED_INW = {"sphere_r3": (1, 3, 0), "sphere_s3": (1, 3, 0),
                "sphere_h3": (1, 3, 0), "clifford_torus": (5, 4, 4)}

SPECTRUM_SURFACES = ["clifford_torus()@48x48", "delaunay_t3(k=2;neck=0.55)@64x32",
                     "sphere_h3(radius=0.8)@64x32", "sphere_r3(radius=1.0)@64x32",
                     "sphere_s3(radius=0.9)@64x32"]
IDENTITY_SURFACES = ["clifford_torus()@64x64", "delaunay_t3(k=2;neck=0.55)@64x64",
                     "sphere_h3(radius=0.8)@64x48", "sphere_r3(radius=1.0)@64x48",
                     "sphere_s3(radius=0.9)@64x48"]
QUICKSTART_EIGEN = ["delaunay_t3", "sphere_r3"]
FD_CASES = 5 * 5 * 3           # gallery members x seeded variations x functionals


def _index_ok(kind: str, i, n, iw, lb) -> bool:
    if kind == "delaunay_t3":
        return lb is not None and i >= lb and i - 1 <= iw <= i
    return (i, n, iw) == EXPECTED_INW[kind]


def check_spectrum(exit_code, report) -> list:
    out = [("exit_code", exit_code == 0)]
    rows = {r["surface"]: r for r in (report or {}).get("results", [])}
    for key in SPECTRUM_SURFACES:
        r = rows.get(key)
        kind = key.split("(")[0]
        out.append((f"{key} index", r is not None and _index_ok(
            kind, r["index"], r["nullity"], r["weak_index"], r["index_lower_bound"])))
        out.append((f"{key} stable", r is not None and r["stable"] is True))
    return out


def check_identity(exit_code, report) -> list:
    out = [("exit_code", exit_code == 0)]
    rows = {r["surface"]: r for r in (report or {}).get("results", [])}
    for key in IDENTITY_SURFACES:
        r = rows.get(key)
        out.append((f"{key} max_residual",
                     r is not None and r["max_residual"] < IDENTITY_TOLERANCE))
    return out


def check_quickstart(outputs) -> list:
    outputs = outputs or {}
    eig = {e["surface"]: e for e in outputs.get("eigen", [])}
    out = []
    for kind in QUICKSTART_EIGEN:
        e = eig.get(kind)
        out.append((f"{kind} residual_norms",
                    e is not None and e["residual_norm_max"] <= RESIDUAL_NORM_MAX))
        out.append((f"{kind} index", e is not None and _index_ok(
            kind, e["index"], e["nullity"], e["weak_index"], e["index_lower_bound"])))
        out.append((f"{kind} bound", e is not None and e["bound_passed"] is True))
    fd = outputs.get("fd", [])
    for k in range(FD_CASES):
        ok = k < len(fd) and fd[k]["gap"] <= FD_GAP_MAX
        out.append((f"fd {k}", ok))
    out.append(("energy_index_chain", outputs.get("chain_ok") is True))
    return out


def check(workload: str, output) -> list:
    """Checks of one invocation; ``output`` holds ``exit_code`` and the
    parsed ``report.json`` (CLI workloads) or the pipeline ``outputs``."""
    output = output or {}
    if workload == "quickstart-eigenpairs":
        return check_quickstart(output.get("outputs"))
    fn = check_spectrum if workload == "spectrum-default" else check_identity
    return fn(output.get("exit_code"), output.get("report"))


def corrupt(workload: str, output):
    """A copy of a passing output with one wrong number, for the self-check."""
    bad = copy.deepcopy(output)
    if workload == "spectrum-default":
        bad["report"]["results"][0]["nullity"] += 1
    elif workload == "identity-sweep":
        bad["report"]["results"][0]["max_residual"] = 10 * IDENTITY_TOLERANCE
    else:
        next(e for e in bad["outputs"]["eigen"]
             if e["surface"] == "sphere_r3")["nullity"] += 1
    return bad
