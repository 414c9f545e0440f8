"""Out-of-program span tracer for the cmcindex benchmark.

``install(tracer)`` replaces every public function, method and lazy
(``cached_property``) attribute of the ``cmcindex`` modules with a wrapper
that records a span. Nothing under ``src/`` is edited: the wrappers are
swapped into the module and class namespaces of the running process only.

A span is recorded at a layer boundary, that is when a wrapped callable is
entered while the innermost open span on the same thread belongs to another
layer (module). Calls inside one layer are that layer's own work and stay
in its span. Self time is a span's duration minus the spans it opened on
its own thread, so self times summed over all spans and threads never count
one interval twice.

The ``cli`` thread pool is traced explicitly: each surface task handed to
``cli._map_surfaces`` runs in a ``cli.task`` span whose parent is the
``cli.wait`` span of the submitting thread, so the spans of one worker never
become children of another worker's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from functools import cached_property

MODULES = ["ambient", "grids", "surfaces", "delaunay", "gallery",
           "variations", "spectral", "bounds", "cli"]

# callable name -> metric group; anything public and not listed here is
# recorded under "<module>.other"
GROUPS = {
    "spectral.assemble_operator": "spectral.assemble",
    "spectral.assemble_jacobi": "spectral.assemble",
    "spectral.assemble_laplace": "spectral.assemble",
    "spectral.eigensolve": "spectral.eigensolve",
    "spectral.weak_index": "spectral.weak_index",
    "spectral.residual_norms": "spectral.residual_norms",
    "grids.ParamGrid.diff_x": "grids.stencil",
    "grids.ParamGrid.diff_y": "grids.stencil",
    "grids.ParamGrid.diff_theta": "grids.stencil",
    "grids.ParamGrid.diff_matrix_x": "grids.matrix",
    "grids.ParamGrid.diff_matrix_y": "grids.matrix",
    "grids.ParamGrid.filter_matrix": "grids.matrix",
    "variations.seeded_variation": "variations.seeded",
    "variations.random_variation": "variations.seeded",
    "variations.random_scalar": "variations.seeded",
    "variations.comparison_identity_residual": "variations.identity",
    "variations.fd_second_variation": "variations.fd_oracle",
    "ambient.inner": "ambient.inner",
    "ambient.norm": "ambient.inner",
    "ambient.exp_map": "ambient.exp",
    "ambient.exp_velocity": "ambient.exp",
    "ambient.exp_directional": "ambient.exp",
    "surfaces.Immersion.nu": "surfaces.geometry",
    "surfaces.Immersion.second_form": "surfaces.geometry",
    "surfaces.Immersion.jacobi_potential": "surfaces.geometry",
    "surfaces.Immersion.area_weights": "surfaces.geometry",
    "gallery.gallery": "gallery.build",
    "gallery.from_descriptor": "gallery.build",
    "delaunay.solve_profile": "delaunay.profile",
    "bounds.bound_report": "bounds.report",
    "bounds.energy_index_chain": "bounds.chain",
    "cli.main": "cli.self",
}

# groups that are not work of a cmcindex layer: the benchmark's own root span
# and the time a submitting thread waits on the pool
NOT_LAYER_WORK = ("bench.run", "cli.wait")

# flop model for dense symmetric eigensolves (Golub & Van Loan): Householder
# tridiagonalisation 4/3 n^3, back-transformation of all n vectors 2 n^3;
# the tridiagonal stage is O(n^2) and not counted
VALUES_FLOPS = 4.0 / 3.0
VECTORS_FLOPS = 2.0


class _Frame:
    __slots__ = ("id", "layer", "child")

    def __init__(self, span_id, layer):
        self.id = span_id
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Spans kept in memory: (id, parent, group, start, end, self, thread)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {"spectral.unknowns_max": 0, "spectral.dense_bytes": 0,
                       "spectral.eig_flops": 0, "gallery.hits": 0}
        self.pool_threads: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def add(self, key: str, value, combine=None) -> None:
        with self._lock:
            old = self.counts[key]
            self.counts[key] = combine(old, value) if combine else old + value

    def call(self, group: str, layer: str, fn, args=(), kwargs=None,
             parent=None, around=None):
        """Run ``fn`` inside a span; ``around(fn, args, kwargs)`` may wrap
        the call to take counts."""
        kwargs = kwargs or {}
        st = self._stack()
        if parent is None and st:
            parent = st[-1].id
        frame = _Frame(next(self._ids), layer)
        st.append(frame)
        t0 = time.perf_counter()
        try:
            if around is None:
                return fn(*args, **kwargs)
            return around(fn, args, kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            if st:
                st[-1].child += t1 - t0
            self.spans.append((frame.id, parent, group, t0, t1,
                               t1 - t0 - frame.child, threading.get_ident()))

    def wrap(self, fn, group: str, layer: str, around=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stack()
            if st and st[-1].layer == layer:
                return fn(*args, **kwargs)
            return self.call(group, layer, fn, args, kwargs, around=around)
        return wrapper

    # ------------------------------------------------------------ cli pool

    def wrap_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def map_surfaces(cfg, worker):
            def run_map(cfg, worker):
                map_id = tracer._stack()[-1].id
                with tracer._lock:
                    tracer.pool_threads.append(int(cfg.threads))

                def task(desc):
                    return tracer.call("cli.task", "cli", worker, (desc,),
                                       parent=map_id)
                return fn(cfg, task)
            return tracer.call("cli.wait", "cli.pool", run_map, (cfg, worker))
        return map_surfaces

    # ----------------------------------------------------------- aggregate

    def summary(self) -> dict:
        """Per-group calls and self seconds, pool use and computed counts."""
        groups: dict[str, list] = {}
        for _, _, group, _, _, self_s, _ in self.spans:
            g = groups.setdefault(group, [0, 0.0])
            g[0] += 1
            g[1] += self_s
        out = {}
        for group, (calls, self_s) in groups.items():
            out[f"{group}.calls"] = calls
            out[f"{group}.s"] = self_s
        task_s = sum(t1 - t0 for _, _, g, t0, t1, _, _ in self.spans
                     if g == "cli.task")
        wait = [t1 - t0 for _, _, g, t0, t1, _, _ in self.spans
                if g == "cli.wait"]
        capacity = sum(n * w for n, w in zip(self.pool_threads, wait))
        out["cli.pool_busy_ratio"] = task_s / capacity if capacity else 0.0
        out["cli.self.s"] = out.get("cli.self.s", 0.0) + out.get("cli.task.s", 0.0)
        out["layers.self.s"] = sum(s for g, (_, s) in groups.items()
                                   if g not in NOT_LAYER_WORK)
        builds = out.get("gallery.build.calls", 0)
        out["gallery.cache_hit_ratio"] = (self.counts["gallery.hits"] / builds
                                          if builds else 0.0)
        for key in ("spectral.unknowns_max", "spectral.dense_bytes",
                    "spectral.eig_flops"):
            out[key] = self.counts[key]
        return out

    def check_parenting(self) -> list[str]:
        """Every span opened on a pool worker must descend from its
        ``cli.task`` span, and every task from a ``cli.wait`` span."""
        by_id = {s[0]: s for s in self.spans}
        main = threading.main_thread().ident
        problems = []
        for sid, parent, group, *_, thread in self.spans:
            if group == "cli.task":
                p = by_id.get(parent)
                if p is None or p[2] != "cli.wait":
                    problems.append(f"task span {sid} has parent {parent}")
                continue
            if thread == main:
                continue
            node = by_id.get(parent)
            while node is not None and node[2] != "cli.task":
                if node[6] != thread:
                    problems.append(f"worker span {sid} ({group}) is parented "
                                    f"across threads to span {node[0]}")
                    break
                node = by_id.get(node[1])
            else:
                if node is None:
                    problems.append(f"worker span {sid} ({group}) has no task")
        return problems


# ----------------------------------------------------------------- counters

def _count_assemble(tracer):
    def around(fn, args, kwargs):
        op = fn(*args, **kwargs)
        tracer.add("spectral.unknowns_max", op.n, max)
        tracer.add("spectral.dense_bytes", 8 * op.n * op.n)
        return op
    return around


def _count_eigensolve(tracer, fn):
    sig = inspect.signature(fn)

    def around(fn, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n = bound.arguments["op"].n
        rate = VALUES_FLOPS + (VECTORS_FLOPS if bound.arguments["want_vectors"] else 0.0)
        tracer.add("spectral.eig_flops", int(rate * n ** 3))
        return fn(*args, **kwargs)
    return around


def _count_weak_index(tracer):
    def around(fn, args, kwargs):
        n = args[0].n if args else kwargs["op"].n
        tracer.add("spectral.eig_flops", int(VALUES_FLOPS * (n - 1) ** 3))
        return fn(*args, **kwargs)
    return around


def _count_cache_hits(tracer, cache: dict):
    def around(fn, args, kwargs):
        before = {id(v) for v in list(cache.values())}
        out = fn(*args, **kwargs)
        tracer.add("gallery.hits", int(id(out) in before))
        return out
    return around


# ------------------------------------------------------------------ install

def _around_for(tracer, name: str, fn, gallery_cache):
    group = GROUPS.get(name)
    if group == "spectral.assemble":
        return _count_assemble(tracer)
    if name == "spectral.eigensolve":
        return _count_eigensolve(tracer, fn)
    if name == "spectral.weak_index":
        return _count_weak_index(tracer)
    if group == "gallery.build":
        return _count_cache_hits(tracer, gallery_cache)
    return None


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every cmcindex module."""
    mods = {m: importlib.import_module(f"cmcindex.{m}") for m in MODULES}
    namespaces = [importlib.import_module("cmcindex")] + list(mods.values())
    gallery_cache = mods["gallery"]._CACHE
    replaced: dict[int, object] = {}
    for mname, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") and name != "_map_surfaces":
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if mname == "cli" and name not in ("main", "_map_surfaces"):
                    continue   # cli internals run inside cli.main / cli.task
                qual = f"{mname}.{name}"
                if name == "_map_surfaces":
                    replaced[id(obj)] = tracer.wrap_map(obj)
                else:
                    replaced[id(obj)] = tracer.wrap(
                        obj, GROUPS.get(qual, f"{mname}.other"), mname,
                        _around_for(tracer, qual, obj, gallery_cache))
            elif inspect.isclass(obj) and mname != "cli":
                _wrap_class(tracer, mname, obj)
    # rebind every module-level name of a wrapped function, including names
    # imported by other modules (``from .delaunay import solve_profile``)
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(ns, name, replaced[id(obj)])


def _wrap_class(tracer: Tracer, mname: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        group = GROUPS.get(f"{mname}.{cls.__name__}.{name}", f"{mname}.other")
        if isinstance(attr, cached_property):
            attr.func = tracer.wrap(attr.func, group, mname)
        elif inspect.isfunction(attr) and not name.startswith("_"):
            setattr(cls, name, tracer.wrap(attr, group, mname))
