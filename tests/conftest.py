"""Shared fixtures: gallery members and cached eigensolves."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from cmcindex import gallery as gal
from cmcindex import spectral as sp

# spectral-reference resolutions (identity tests use finer grids of their own)
SPECTRAL_GRIDS = {
    "sphere_r3": {"resolution": (64, 32)},
    "sphere_s3": {"resolution": (64, 32)},
    "sphere_h3": {"resolution": (64, 32)},
    "clifford_torus": {"resolution": (48, 48)},
    "delaunay_k1": {"kind": "delaunay_t3", "k": 1, "resolution": (32, 32)},
    "delaunay_k2": {"kind": "delaunay_t3", "k": 2, "resolution": (64, 32)},
    "delaunay_k3": {"kind": "delaunay_t3", "k": 3, "resolution": (96, 32)},
}


def surface(label: str):
    cfg = dict(SPECTRAL_GRIDS[label])
    kind = cfg.pop("kind", label)
    return gal.gallery(kind, **cfg)


@functools.lru_cache(maxsize=None)
def jacobi_solve(label: str, count: int = 16, vectors: bool = False):
    imm = surface(label)
    op = sp.assemble_jacobi(imm)
    return op, sp.eigensolve(op, count, want_vectors=vectors)


@functools.lru_cache(maxsize=None)
def laplace_solve(label: str, count: int = 16):
    imm = surface(label)
    op = sp.assemble_laplace(imm)
    return op, sp.eigensolve(op, count, want_vectors=False)


@functools.lru_cache(maxsize=None)
def weak_index_of(label: str) -> int:
    op, _ = jacobi_solve(label)
    return sp.weak_index(op)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def blas_threads():
    """Reader of numpy's OpenBLAS thread count, set to 2 for the test and put
    back after it."""
    calls = sp._numpy_openblas()
    if not calls:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, put = calls
    before = get()
    put(2)
    yield get
    put(before)


def record_blas_threads(monkeypatch, name: str, get) -> list:
    """Patch ``np.linalg.<name>`` to note the OpenBLAS thread count at each
    call; returns the list the counts go to."""
    seen = []
    real = getattr(np.linalg, name)

    def recording(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return seen
