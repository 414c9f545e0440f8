"""Discretized Jacobi and Laplace-Beltrami operators, generalized symmetric
eigensolves, Morse index / nullity / weak (volume-constrained) index, and
heat-trace utilities.

The weak form is built from the same 8th-order differentiation stencils used
for variation fields (``ParamGrid.axis_stencil``):

    f K f = int |grad f|^2 - q f^2 dSigma,      f M f = int f^2 dSigma,

with q = |A|^2 + Ric_N(nu, nu) for the Jacobi operator and q = 0 for the
Laplace-Beltrami operator.  K is symmetric by construction and M is the
(diagonal, positive) quadrature mass, so the pencil is reduced explicitly to
the standard symmetric problem B = M^{-1/2} K M^{-1/2}.

That problem is solved on the Fourier block path.  When the mass, the
potential and the chart weights do not vary along a periodic chart axis (x
on the spheres and the Clifford torus, y on Delaunay tori), K commutes with
chart shifts along it and is block circulant (on spheres the antipodal pole
closure is itself a shift; Davis, *Circulant Matrices*, 1979).  Its real
symmetric L x L block per wavenumber k is built straight from the 1-D axis
stencils: their symbol |D(k)|^2 along the shift axis, and one of two
cross-axis matrices picked by the pole sign (-1)^k.  Only 0 <= k <= S/2
exist (0 < k < S/2 count twice, for k and -k).  The operator keeps that 1-D
data and forms a block only to solve it.  The cross-axis part is
positive semidefinite, so by Weyl's inequality each block's eigenvalues lie
above a floor min(|D(k)|^2 w/m - q) known without solving it.
``eigensolve`` solves blocks in increasing floor order and stops once the
next floor is above the ``count``-th lowest eigenvalue found; on the default
surfaces that is 2-4 of 17-41 blocks.  The result is bit for bit that of
solving every block.  Every block eigenvalue comes from ``eigvalsh`` and
stays on the operator, so index, nullity and ``eps_null`` do not depend on
whether eigenvectors were asked for: ``weak_index`` re-solves only the
constrained wavenumber-0 block and adds the blocks its band can reach, and
``SpectralResult.all_eigenvalues`` solves the rest on first access.
Eigenvectors are the real cos/sin lifts of ``eigh`` vectors, taken only of
the blocks that hold a returned pair.  ``residual_norms`` applies K to them
from the 1-D data (an rfft along the shift axis, diag(sym_k w - m q) plus
one cross-axis product per wavenumber parity, an irfft back) and takes
||K||_2 exactly as the largest block eigenvalue in magnitude, solving
blocks down from the largest inf-norm bound.  No n x n array, dense or
sparse, is formed, and the L x L blocks are solved by ``numpy.linalg``,
deterministically.  An operator with no shift-invariant axis raises
``ValueError``, naming the field that varies most along each periodic axis.

``eigensolve``, ``weak_index`` and ``residual_norms`` (with the blocks and
block eigenvalues they build lazily), and the first access to
``all_eigenvalues``, run numpy's bundled OpenBLAS on one thread, and
restore its thread count when the last concurrent caller returns.  At
these block sizes a second OpenBLAS thread buys no wall-clock time, but
``eigh`` on blocks of 26 or more (LAPACK's divide and conquer), and
``eigvalsh`` and the cross-axis products at L = 80, wake it, and it then
spins for 0.10-0.15 s of CPU.  ``span.grams`` and
``span.identity_residuals`` run under the same pin (``_SERIAL_BLAS``), the
package's one mechanism for results that do not depend on the BLAS thread
count: OpenBLAS splits a product larger than its threading threshold
between its threads, and the split changes the bits of the result.
"""

from __future__ import annotations

import threading
from contextlib import ContextDecorator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .grids import _AXIS_STENCILS
from .surfaces import Immersion

__all__ = [
    "DiscreteOperator", "SpectralResult", "HeatTraceValue",
    "assemble_jacobi", "assemble_laplace", "assemble_operator",
    "eigensolve", "residual_norms", "index_nullity", "weak_index",
    "heat_trace", "counting",
]

# relative spread below which a sampled field counts as constant along an axis
SHIFT_RTOL = 1e-12


# ---------------------------------------------------------------- BLAS threads

# (get, set) thread-count symbols of numpy's bundled OpenBLAS: the numpy 2.x
# wheels prefix and suffix them, other builds export the plain names
_OPENBLAS_SYMBOLS = [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]


def _numpy_openblas() -> tuple:
    """(get, set) of the thread count of the OpenBLAS in the ``numpy.libs``
    directory next to the numpy package, or () where there is none."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            try:
                get, put = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return ()


class _SerialBlas(ContextDecorator):
    """Context, and decorator, that runs numpy's OpenBLAS on one thread,
    process-wide.

    The count is pinned to 1 when the first concurrent caller enters and
    restored when the last one leaves, so library callers may call in from
    several threads at once.  The library is looked up on the first entry
    and left alone where none is found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = None
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._calls is None:
                self._calls = _numpy_openblas()
            if self._calls and self._depth == 0:
                get, put = self._calls
                self._saved = get()
                put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._calls and self._depth == 0:
                self._calls[1](self._saved)


_SERIAL_BLAS = _SerialBlas()


@dataclass
class DiscreteOperator:
    """Galerkin pencil (K, M) of -Delta - q on (Sigma, u^* g)."""

    imm: Immersion
    kind: str                    # "jacobi" | "laplace" | "custom"
    M_diag: np.ndarray           # positive quadrature mass (n,)
    q: np.ndarray                # potential samples (nx, ny)

    @property
    def n(self) -> int:
        return self.M_diag.size

    @property
    def resolution(self) -> tuple[int, int]:
        g = self.imm.grid
        return g.nx, g.ny

    @property
    def _periodic_axes(self) -> tuple:
        return (0, 1) if self.imm.grid.topology == "torus" else (0,)

    def _spreads(self, axis: int):
        """Per field the blocks need constant along ``axis``, lazily: its name,
        its largest deviation from the first sample along it, and max |f|."""
        shape = self.resolution
        for name, f in (("mass", self.M_diag.reshape(shape)),
                        ("potential", np.broadcast_to(self.q, shape)),
                        ("chart weights", self.imm.chart_weights)):
            yield name, np.abs(f - np.take(f, [0], axis=axis)).max(), np.abs(f).max()

    @cached_property
    def shift_axis(self) -> Optional[int]:
        """Periodic chart axis along which the pencil is shift invariant."""
        for axis in self._periodic_axes:
            if all(spread <= SHIFT_RTOL * top for _, spread, top in self._spreads(axis)):
                return axis
        return None

    @cached_property
    def _mode_blocks(self) -> _FourierBlocks:
        """The reduced blocks B_k of wavenumbers k = 0..S/2 along
        ``shift_axis``, formed on demand.

        Each stencil D of ``grid.axis_stencil`` gives D^T W D: along the
        shift axis it is circulant, so |DFT of its row|^2 (k) W; across the
        line it is (P + s Q)^T W (P + s Q) for interior P and pole flip Q,
        with s = (-1)^k from the antipodal shift by S/2 (Q = 0 on tori).
        Raises ``ValueError`` where there is no ``shift_axis``, naming per
        periodic axis the field of largest relative spread along it.
        """
        g, a = self.imm.grid, self.shift_axis
        if a is None:
            worst = []
            for axis in self._periodic_axes:
                rel, name = max((spread / (top or 1.0), name)
                                for name, spread, top in self._spreads(axis))
                worst.append(f"its {name} varies by {rel:.1e} along axis {axis}")
            raise ValueError(f"{self.imm.name}: operator has no periodic chart axis along "
                             "which its mass, potential and chart weights are constant; "
                             f"the Fourier block solver needs one ({', '.join(worst)})")
        line = (0, slice(None)) if a == 0 else (slice(None), 0)
        w = self.imm.chart_weights[line]
        m = self.M_diag.reshape(self.resolution)[line]
        q = np.broadcast_to(self.q, self.resolution)[line]
        sym = sum(np.abs(np.fft.rfft(g.axis_stencil(a, name)[0][0])) ** 2
                  for name in _AXIS_STENCILS)
        return _FourierBlocks(w, m, q, sym, _cross_axis(g, 1 - a, w))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "surface": self.imm.name,
            "resolution": list(self.resolution),
            "unknowns": self.n,
            "potential_min": float(self.q.min()),
            "potential_max": float(self.q.max()),
        }


def _cross_axis(g, axis: int, w: np.ndarray) -> list:
    """[sum (P + Q)^T diag(w) (P + Q), sum (P - Q)^T diag(w) (P - Q)] over
    the stiffness stencils (interior P, pole flip Q) along one chart axis."""
    across = [0.0, 0.0]
    for name in _AXIS_STENCILS:
        P, Q = g.axis_stencil(axis, name)
        for parity, A in enumerate((P + Q, P - Q)):
            across[parity] = across[parity] + A.T @ (w[:, None] * A)
    return across


def _inf_norm(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max())


# relative round-off margin of the block bounds, far above the L eps ||B||
# backward error of a symmetric eigensolve for any line length L in use
BOUND_RTOL = 1e-10


class _FourierBlocks:
    """Reduced blocks B_k = R (A_{k mod 2} + diag(sym_k w - m q)) R of one
    operator, k = 0..S/2, kept as the 1-D data of one chart line: chart
    weights w, mass m, potential q, stencil symbol sym along the shift axis,
    the two cross-axis matrices A and R = M^{-1/2} (``scale``), with the
    diagonal rows sym_k w - m q (``diag``).

    Block k is formed on each ``self[k]``; its eigenvalues (``solve``) are
    kept once computed.
    """

    def __init__(self, w, m, q, sym, across):
        self.w, self.m, self.q, self.sym, self.across = w, m, q, sym, across
        self.scale = 1.0 / np.sqrt(m)
        self.diag = sym[:, None] * w - m * q
        self._solved = {}           # eigvalsh results by wavenumber

    def __len__(self) -> int:
        return self.sym.size

    def __getitem__(self, k: int) -> np.ndarray:
        if not 0 <= k < len(self):
            raise IndexError(k)
        s = self.scale
        B = s[:, None] * (self.across[k % 2] + np.diag(self.diag[k])) * s
        return 0.5 * (B + B.T)

    def solve(self, k: int) -> np.ndarray:
        """``eigvalsh(B_k)``, ascending, kept for the next call."""
        if k not in self._solved:
            self._solved[k] = np.linalg.eigvalsh(self[k])
        return self._solved[k]

    def _bounds(self, diag: np.ndarray, across: list) -> tuple[np.ndarray, np.ndarray]:
        # per block: min of the diagonal part, and the inf-norm bound
        # ||A_{k mod 2}||_inf + max |diagonal part| on the block
        parity = np.arange(len(self)) % 2
        cross = np.array([_inf_norm(A) for A in across])[parity]
        return diag.min(axis=1), cross + np.abs(diag).max(axis=1)

    @cached_property
    def floors(self) -> np.ndarray:
        """Lower bound on the computed eigenvalues of each block.

        R A R is positive semidefinite, so by Weyl's inequality lambda_min(B_k)
        >= min(sym_k w / m - q); ``BOUND_RTOL`` times a bound on ||B_k||_2 is
        subtracted for round-off.
        """
        s = self.scale
        least, norm = self._bounds(self.sym[:, None] * (self.w / self.m) - self.q,
                                   [s[:, None] * A * s for A in self.across])
        return least - BOUND_RTOL * norm

    @cached_property
    def ceilings(self) -> np.ndarray:
        """Upper bound on the computed |eigenvalues| of each unscaled block
        K_k = A_{k mod 2} + diag(sym_k w - m q): its inf-norm, raised by
        ``BOUND_RTOL`` for round-off."""
        _, norm = self._bounds(self.diag, self.across)
        return norm * (1.0 + BOUND_RTOL)


@dataclass
class SpectralResult:
    """Sorted eigenvalues of a discrete operator with classification data."""

    eigenvalues: np.ndarray          # lowest `count`, ascending
    eigenvectors: Optional[np.ndarray]  # (n, count), M-orthonormal
    eps_null: float
    _full: Callable[[], np.ndarray] = field(repr=False)   # all_eigenvalues

    @cached_property
    def all_eigenvalues(self) -> np.ndarray:
        """Full discrete spectrum, ascending, computed on first access from
        the same per-block solves as ``eigensolve``."""
        return self._full()

    @property
    def index(self) -> int:
        return int(np.count_nonzero(self.eigenvalues < -self.eps_null))

    @property
    def nullity(self) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) <= self.eps_null))

    def classification(self) -> list[str]:
        out = []
        for lam in self.eigenvalues:
            if lam < -self.eps_null:
                out.append("negative")
            elif lam <= self.eps_null:
                out.append("null")
            else:
                out.append("positive")
        return out


@dataclass
class HeatTraceValue:
    value: float
    truncated: bool   # True when e^{-lambda_max t} >= 1e-12


# ------------------------------------------------------------------- assembly

def assemble_operator(imm: Immersion, q: np.ndarray, kind: str = "custom") -> DiscreteOperator:
    q = np.asarray(q, dtype=float)
    return DiscreteOperator(imm, kind, imm.area_weights.ravel(), q)


def assemble_jacobi(imm: Immersion) -> DiscreteOperator:
    """L = -Delta - (|A|^2 + Ric_N(nu, nu)), the CMC Jacobi operator."""
    return assemble_operator(imm, imm.jacobi_potential, kind="jacobi")


def assemble_laplace(imm: Immersion) -> DiscreteOperator:
    return assemble_operator(imm, np.zeros((imm.grid.nx, imm.grid.ny)), kind="laplace")


# ------------------------------------------------------- reduced eigenproblems

def _multiplicity(k: int, S: int) -> int:
    return 1 if (2 * k) % S == 0 else 2


def _lifted(blocks: _FourierBlocks, S: int, ks) -> tuple[np.ndarray, list, np.ndarray]:
    """Eigenvalues of the blocks ``ks`` (ascending wavenumbers), listed once
    per lift, with the lifts and their stable ascending order."""
    # (wavenumber, lift part): 0 < k < S/2 carry a cos and a sin lift
    lifts = [(k, part) for k in ks for part in range(_multiplicity(k, S))]
    lam = np.concatenate([blocks.solve(k) for k, _ in lifts] or [np.empty(0)])
    return lam, lifts, np.argsort(lam, kind="stable")


def _bottom_blocks(blocks: _FourierBlocks, S: int, rank: int,
                   least: float = -np.inf, found: tuple = (), first: int = 0) -> list:
    """Ascending wavenumbers k >= ``first`` of the blocks that can hold an
    eigenvalue at or below max(``least``, the ``rank``-th lowest eigenvalue
    with multiplicity of those blocks and the values ``found``).

    Blocks are solved in increasing floor order until the next floor lies
    above that level among the values found so far, which is never below the
    true level: every block left out has all its eigenvalues above it.
    """
    found, picked = list(found), []
    for k in first + np.argsort(blocks.floors[first:], kind="stable"):
        lam = np.concatenate(found) if found else np.empty(0)
        level = (least if rank == 0 else np.inf if lam.size < rank
                 else max(least, np.partition(lam, rank - 1)[rank - 1]))
        if blocks.floors[k] > level:
            break
        found += [blocks.solve(k)] * _multiplicity(k, S)
        picked.append(int(k))
    return sorted(picked)


def _block_eigen(op: DiscreteOperator, count: int, want_vectors: bool
                 ) -> tuple[np.ndarray, Optional[np.ndarray], Callable]:
    """Ascending eigenvalues (``eigvalsh``) of the Fourier blocks that can
    hold the lowest ``count``, optionally the lowest ``count`` M-orthonormal
    eigenvectors, and the full spectrum on demand.  ``eigh`` runs only on the
    blocks that hold one of those; its column c pairs with the c-th
    ``eigvalsh`` value (both ascending)."""
    blocks = op._mode_blocks
    S, L = op.resolution[op.shift_axis], blocks.scale.size
    lam, lifts, order = _lifted(blocks, S, _bottom_blocks(blocks, S, count))
    spectrum = lambda: _block_spectrum(op)  # noqa: E731
    if not want_vectors:
        return lam[order], None, spectrum
    picked = [(lifts[idx // L], idx % L) for idx in order[:count]]
    vectors = {k: np.linalg.eigh(blocks[k])[1] for k in {k for (k, _), _ in picked}}
    # lift: phi[s, line] = Re / Im of e^{-2 pi i k s / S} M^{-1/2} u
    vecs = np.empty((op.n, count))
    for col, ((k, part), c) in enumerate(picked):
        phase = np.exp(-2j * np.pi * k * np.arange(S) / S)
        v = np.outer(phase, blocks.scale * vectors[k][:, c])
        v = v.imag if part else v.real
        vecs[:, col] = (v if op.shift_axis == 0 else v.T).ravel()
    vecs /= np.sqrt(np.einsum("ij,i,ij->j", vecs, op.M_diag, vecs))
    return lam[order], vecs, spectrum


@_SERIAL_BLAS
def _block_spectrum(op: DiscreteOperator) -> np.ndarray:
    """Full sorted spectrum from every Fourier block."""
    blocks = op._mode_blocks
    lam, _, order = _lifted(blocks, op.resolution[op.shift_axis], range(len(blocks)))
    return lam[order]


def _constrained_eigvalsh(B: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric B restricted to the complement of a, by a
    Householder reflector taking a to e_0."""
    e = np.zeros_like(a)
    e[0] = np.linalg.norm(a)
    u = a - e
    nu = np.linalg.norm(u)
    if nu < 1e-300:
        raise RuntimeError("degenerate constraint vector")
    u /= nu
    BH = B - 2.0 * np.outer(u, u @ B)
    BH = BH - 2.0 * np.outer(BH @ u, u)
    return np.linalg.eigvalsh(0.5 * (BH[1:, 1:] + BH[1:, 1:].T))


# ----------------------------------------------------------------- eigensolve

def _normalize_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign: first component above threshold made positive."""
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    lead = vecs[first, np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0, -1.0, 1.0)


def _null_tolerance(eigs: np.ndarray) -> float:
    lam_range = float(eigs.max() - eigs.min()) if eigs.size else 1.0
    return 1e-3 * max(1.0, lam_range)


@_SERIAL_BLAS
def eigensolve(op: DiscreteOperator, count: int,
               want_vectors: bool = True) -> SpectralResult:
    """Lowest ``count`` eigenpairs of K phi = lambda M phi, with the full
    spectrum.

    Eigenvectors are returned M-orthonormal with lexicographic sign
    normalization.
    """
    if not 0 <= count <= op.n:
        raise ValueError(f"requested {count} eigenpairs of an {op.n}-dim operator")
    w, vecs, spectrum = _block_eigen(op, count, want_vectors)
    if vecs is not None:
        vecs = _normalize_signs(vecs)
    lowest = w[:count].copy()
    return SpectralResult(lowest, vecs, _null_tolerance(lowest), spectrum)


def _block_apply(op: DiscreteOperator, V: np.ndarray) -> tuple[np.ndarray, float]:
    """(K V, ||K||_2) on the Fourier block path.

    The DFT of V along the shift axis is multiplied, wavenumber by
    wavenumber, by K_k = A_{k mod 2} + diag(sym_k w - m q) from that 1-D data
    (one batched product per parity), and transformed back.  The spectrum of
    K is the union of the blocks' spectra, so ||K||_2 is the largest
    |eigenvalue| over them, exactly.  Blocks K_k are formed and solved for it
    in decreasing order of their ``ceilings``, until the next ceiling lies
    below the largest |eigenvalue| found.
    """
    blocks, a = op._mode_blocks, op.shift_axis
    F = np.moveaxis(np.fft.rfft(V.reshape(*op.resolution, -1), axis=a), a, 0)
    KF = blocks.diag[:, :, None] * F
    for parity, A in enumerate(blocks.across):
        KF[parity::2] += A @ F[parity::2]
    knorm = 0.0
    for k in np.argsort(-blocks.ceilings, kind="stable"):
        if blocks.ceilings[k] < knorm:
            break
        Kk = blocks.across[k % 2] + np.diag(blocks.diag[k])
        knorm = max(knorm, float(np.abs(np.linalg.eigvalsh(Kk)).max()))
    KV = np.fft.irfft(np.moveaxis(KF, 0, a), n=op.resolution[a], axis=a)
    return KV.reshape(op.n, -1), knorm


@_SERIAL_BLAS
def residual_norms(op: DiscreteOperator, res: SpectralResult) -> np.ndarray:
    """||K phi - lambda M phi|| per returned pair, relative to ||K||_2.

    K phi is applied through the Fourier blocks, so the residual also checks
    the cos/sin lift of the block eigenvectors.
    """
    if res.eigenvectors is None:
        raise ValueError("residuals need eigenvectors")
    V = res.eigenvectors
    KV, knorm = _block_apply(op, V)
    R = KV - (op.M_diag[:, None] * V) * res.eigenvalues
    return np.linalg.norm(R, axis=0) / knorm


def index_nullity(res: SpectralResult) -> tuple[int, int]:
    """(index, nullity) of the returned eigenvalues."""
    return res.index, res.nullity


# constrained eigenvalues whose range sets the weak index's null tolerance
WEAK_INDEX_BAND = 24


@_SERIAL_BLAS
def weak_index(op: DiscreteOperator) -> int:
    """Index of the form restricted to mean-zero functions (int f dSigma = 0).

    After the diagonal mass reduction the constraint becomes g perp M^{1/2} 1;
    that direction is removed by a Householder reflector and the reduced
    standard problem solved.  M^{1/2} 1 lies in Fourier wavenumber 0, so
    only that block is reduced and re-solved.  Of the other blocks, those
    whose floor can reach max(0, the ``WEAK_INDEX_BAND``-th lowest
    constrained eigenvalue) are solved, or their eigenvalues shared
    with an earlier ``eigensolve``: they hold every eigenvalue the count and
    its tolerance read.  The null tolerance is 1e-3 max(1, range) of the
    lowest ``WEAK_INDEX_BAND`` constrained eigenvalues.  That is not the
    band ``eigensolve`` classifies with (its lowest ``count`` unconstrained
    eigenvalues): on the default ``cmcindex bounds`` surfaces this tolerance
    is 0.014 against 0.008 on the Clifford torus and 0.974 against 0.446 on
    the 3-lobed Delaunay torus, though all seven weak indices come out the
    same under either.  The interlacing i - 1 <= i_h <= i is therefore a
    check on the result, not a consequence of the construction.
    """
    blocks = op._mode_blocks
    S = op.resolution[op.shift_axis]
    head = _constrained_eigvalsh(blocks[0], 1.0 / blocks.scale)
    ks = _bottom_blocks(blocks, S, WEAK_INDEX_BAND, least=0.0, found=(head,), first=1)
    w = np.sort(np.concatenate([head] + [blocks.solve(k) for k in ks
                                          for _ in range(_multiplicity(k, S))]))
    eps = _null_tolerance(w[:WEAK_INDEX_BAND])
    return int(np.count_nonzero(w < -eps))


# ----------------------------------------------------------------- heat trace

def heat_trace(res: SpectralResult, t: float) -> HeatTraceValue:
    """h(t) = sum_i exp(-lambda_i t) over the discrete spectrum."""
    if not 0 < t < np.inf:
        raise ValueError("heat trace requires t > 0")
    lam = res.all_eigenvalues
    truncated = bool(np.exp(-float(lam.max()) * t) >= 1e-12)
    return HeatTraceValue(float(np.exp(-lam * t).sum()), truncated)


def counting(res: SpectralResult, c: float) -> int:
    """#{lambda_i <= c} over the discrete spectrum; c = -inf counts none and
    +inf counts all, NaN is rejected."""
    if np.isnan(c):
        raise ValueError("counting requires a threshold c that is not NaN")
    return int(np.count_nonzero(res.all_eigenvalues <= c))
