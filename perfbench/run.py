"""cmcindex benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh child Python process (``child.py``) started with
``PYTHONPATH=src`` and ``CMCINDEX_THREADS=2``, so the gallery cache and the
lazy surface geometry start cold, as for a CLI user. A run starts work
children one after another (a closed loop of one client) until the next one
would end after ``--seconds``; at least one always runs. Every work child's
output is checked (``checks.py``). ``setup_s`` comes from the work children
and from import-only children started between them, at least
``SETUP_SAMPLES`` in all.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json as medians over the work children. With ``--trace 1`` one
untraced child is followed by at least two traced ones (``tracer.py``) and
the line reports the per-layer metrics, medians over the traced children.
The line before it is a JSON record of the environment, the inputs, the
sample counts and every per-child value. Exit code 2 means the checkout
cannot be benchmarked, 3 that a harness self-check failed; neither prints a
result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_SAMPLES = 5
DEADLINE_S = 165.0          # the whole run must end within 180 s
CMCINDEX_THREADS = "2"      # the documented default, set explicitly
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IDENTITY_CONFIG = {"variations": 200, "tolerance": checks.IDENTITY_TOLERANCE}
WORKLOADS = ("spectrum-default", "identity-sweep", "quickstart-eigenpairs")


class HarnessError(RuntimeError):
    pass


def derive_seed(seed: int, tag: str) -> int:
    """A per-purpose program seed derived from the workload seed."""
    digest = hashlib.sha256(f"{tag}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def workload_inputs(workload: str, seed: int) -> dict:
    if workload == "spectrum-default":
        return {"random_input": False,
                "note": "built-in default config; --seed does not reach the program"}
    if workload == "identity-sweep":
        return {"random_input": True, "cli_seed": derive_seed(seed, "identity"),
                "config": IDENTITY_CONFIG}
    return {"random_input": True,
            "seeds": {"identity": derive_seed(seed, "quickstart-identity"),
                      "fd": derive_seed(seed, "quickstart-fd")}}


class Runner:
    def __init__(self, workload: str, inputs: dict, started: float):
        self.workload = workload
        self.inputs = inputs
        self.deadline = started + DEADLINE_S
        self.count = 0
        self.env = dict(os.environ, CMCINDEX_THREADS=CMCINDEX_THREADS,
                        PYTHONPATH=os.pathsep.join(
                            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                                   if os.environ.get("PYTHONPATH") else [])))

    def spawn(self, spec: dict):
        """Run one child; its result dict, or None if it failed."""
        self.count += 1
        tag = WORK / f"c{self.count}"
        spec = dict(spec, result=str(tag) + ".result.json")
        spec_path = Path(str(tag) + ".spec.json")
        timeout = max(1.0, self.deadline - time.time())
        spec["t_spawn"] = time.time()
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)],
                                  env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"child {self.count} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        result = Path(spec["result"])
        if proc.returncode != 0 or not result.is_file():
            print(f"child {self.count} exited {proc.returncode}:\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def setup_sample(self):
        res = self.spawn({"mode": "setup"})
        if res is None:
            raise HarnessError("an import-only child failed")
        expected = ROOT / "src" / "cmcindex" / "__init__.py"
        if Path(res["versions"]["cmcindex_file"]).resolve() != expected.resolve():
            raise HarnessError(f"imported {res['versions']['cmcindex_file']}, "
                               f"not the checkout's {expected}")
        return res

    def work(self, trace: bool) -> dict:
        """One work child plus its checks."""
        spec = {"mode": "cli" if self.workload != "quickstart-eigenpairs" else "library",
                "trace": trace}
        out_dir = WORK / f"out{self.count + 1}"
        if self.workload == "spectrum-default":
            spec["argv"] = ["spectrum", "--out", str(out_dir)]
        elif self.workload == "identity-sweep":
            cfg = WORK / "identity.json"
            cfg.write_text(json.dumps(IDENTITY_CONFIG))
            spec["argv"] = ["identity", "--config", str(cfg), "--seed",
                            str(self.inputs["cli_seed"]), "--out", str(out_dir)]
        else:
            spec["seeds"] = self.inputs["seeds"]
        t0 = time.perf_counter()
        res = self.spawn(spec)
        wall = time.perf_counter() - t0
        if res is not None and "argv" in spec:
            report = out_dir / "report.json"
            res["report"] = json.loads(report.read_text()) if report.is_file() else None
        results = checks.check(self.workload, res)
        if res is not None and all(ok for _, ok in results):
            bad = checks.check(self.workload, checks.corrupt(self.workload, res))
            if all(ok for _, ok in bad):
                raise HarnessError("a corrupted report passed the output checks")
        return {"wall": wall, "result": res, "checks": results, "trace": trace}


def run(args) -> tuple[dict, dict, dict | None]:
    started = time.time()
    inputs = workload_inputs(args.workload, args.seed)
    runner = Runner(args.workload, inputs, started)
    # setup samples are spread over the run, one before each work child and
    # the rest after them, so a slow minute on the machine weighs on a few
    setups = [runner.setup_sample()]
    plan_end = time.perf_counter() + args.seconds
    invocations = []
    if args.trace:
        invocations.append(runner.work(trace=False))
    while True:
        traced = [i for i in invocations if i["trace"]] if args.trace else invocations
        if len(traced) >= (2 if args.trace else 1):
            est = statistics.median(i["wall"] for i in invocations)
            now = time.perf_counter()
            if now + est > plan_end or time.time() + est > runner.deadline - 10:
                break
        if not args.trace and invocations:
            setups.append(runner.setup_sample())
        invocations.append(runner.work(trace=bool(args.trace)))
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_sample())

    all_checks = [c for i in invocations for c in i["checks"]]
    failures = [name for name, ok in all_checks if not ok]
    untraced = [i["result"] for i in invocations if i["result"] and not i["trace"]]
    traced = [i["result"] for i in invocations if i["result"] and i["trace"]]
    setup_s = [r["setup_s"] for r in setups + untraced + traced]
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "CMCINDEX_THREADS": CMCINDEX_THREADS,
           **{v: os.environ.get(v) for v in BLAS_VARS},
           **setups[0]["versions"]}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs": inputs, "environment": env,
            "failed_frac": len(failures) / len(all_checks),
            "failed_checks": failures[:20],
            "samples": {"untraced": len(untraced), "traced": len(traced),
                        "setup_s": len(setup_s)},
            "setup_s": setup_s,
            "invocations": [{k: (i["result"] or {}).get(k)
                             for k in ("run_s", "cpu_s", "peak_rss_mb", "setup_s")}
                            | {"traced": i["trace"]} for i in invocations]}
    result = {"correct": not failures, "attempted": len(all_checks),
              "failed": len(failures)}
    if args.trace:
        values = info["layers"] = layer_values(traced, untraced)
    elif untraced:
        values = {key: statistics.median(r[key] for r in untraced)
                  for key in ("run_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup_s)
    else:
        values = None
    return info, result, values


COUNTS = ("spectral.unknowns_max", "spectral.dense_bytes", "spectral.eig_flops")


def _is_count(key: str) -> bool:
    return key.endswith(".calls") or key in COUNTS


def layer_values(traced: list, untraced: list):
    """Per-layer medians over the traced children; counts must repeat."""
    if len(traced) < 2 or not untraced:
        return None
    layers = [r["layers"] for r in traced]
    for r in traced:
        if r["parenting_problems"]:
            raise HarnessError("span parenting: " + "; ".join(r["parenting_problems"][:5]))
    values = {}
    for key in set().union(*layers):
        seen = [lay.get(key, 0) for lay in layers]
        if _is_count(key):
            if len(set(seen)) > 1:
                raise HarnessError(f"count {key} differs across traced runs: {seen}")
            values[key] = seen[0]
        else:
            values[key] = statistics.median(seen)
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in untraced))
    total = values["layers.self.s"]
    values["spectral.solve_share"] = (values.get("spectral.eigensolve.s", 0.0)
                                      + values.get("spectral.weak_index.s", 0.0)) / total
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cmcindex" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"no cmcindex sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(spec_file.read_text())["per_layer" if args.trace else "end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        info, result, values = run(args)
    except HarnessError as exc:
        print(f"harness self-check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if values is None:
        print("no successful sample to report", file=sys.stderr)
        values = {}
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
