import dataclasses
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix, diags, identity, kron

from cmcindex import gallery as gal
from cmcindex import spectral as sp
from cmcindex import variations as vr
from cmcindex.grids import _C8, _D4, sphere_grid, torus_grid
from conftest import (jacobi_solve, laplace_solve, record_blas_threads, surface,
                      weak_index_of)


def lattice_eigenvalues(count: int, scale: float = 2.0, shift: float = 0.0,
                        jmax: int = 12) -> np.ndarray:
    """Flat-torus oracle: eigenvalues scale*(j^2+k^2)+shift by enumeration."""
    vals = sorted(scale * (j * j + k * k) + shift
                  for j in range(-jmax, jmax + 1) for k in range(-jmax, jmax + 1))
    return np.array(vals[:count])


def sphere_eigenvalues(count: int, rho: float = 1.0, shift: float = 0.0,
                       hyper: bool = False) -> np.ndarray:
    """Round-sphere oracle: l(l+1)/rho_g^2 + shift with multiplicity 2l+1."""
    vals = []
    for l in range(30):
        vals.extend([l * (l + 1) / rho ** 2 + shift] * (2 * l + 1))
    return np.array(vals[:count])


# --------------------------------------------------------- dense oracle

def _coo(g, entries):
    """CSR matrix from (row, column, value) triples over the (nx, ny) grid."""
    n = g.nx * g.ny
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*entries))
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _old_axis_matrix(g, axis, stencil):
    """The 2-D stencils assembled entry by entry from COO triples."""
    nx, ny = g.nx, g.ny
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    base = (ii * ny + jj).ravel()
    if stencil == "diff":
        terms = [(sgn * k, sgn * c) for k, c in enumerate(_C8, start=1) for sgn in (1, -1)]
    else:
        terms = list(zip(range(-2, 3), _D4))
    entries = []
    for off, c in terms:
        if axis == 0:
            cols = ((ii + off) % nx) * ny + jj
            vals = np.full(base.size, c / g.hx if stencil == "diff" else c / (16.0 * g.hx))
        elif g.topology == "torus":
            cols = ii * ny + (jj + off) % ny
            vals = np.full(base.size, c / g.hy if stencil == "diff" else c / (16.0 * g.hy))
        else:
            j2 = jj + off
            lo, hi = j2 < 0, j2 > ny - 1
            j2 = np.where(lo, -1 - j2, j2)
            j2 = np.where(hi, 2 * ny - 1 - j2, j2)
            i2 = np.where(lo | hi, (ii + nx // 2) % nx, ii)
            cols = i2 * ny + j2
            if stencil == "diff":
                vals = c * (np.sin(g.theta)[jj] / g.dtheta).ravel()
            else:
                vals = np.full(base.size, c / (16.0 * g.dtheta))
        entries.append((base, cols.ravel(), vals))
    return _coo(g, entries)


def _dense_K(op):
    """Dense K = sum D^T W D - diag(M q) over the four stencils, each D
    assembled from COO triples: the oracle of the Fourier block path."""
    g, w0 = op.imm.grid, diags(op.imm.chart_weights.ravel())
    K = 0
    for axis, stencil in ((0, "diff"), (1, "diff"), (0, "filter"), (1, "filter")):
        D = _old_axis_matrix(g, axis, stencil)
        K = K + D.T @ w0 @ D
    return (0.5 * (K + K.T) - diags(op.M_diag * op.q.ravel())).toarray()


def _dense_reduced(op):
    """(B, M^{-1/2}) with B = M^{-1/2} K M^{-1/2} of ``_dense_K``, symmetrized."""
    scale = 1.0 / np.sqrt(op.M_diag)
    B = scale[:, None] * _dense_K(op) * scale[None, :]
    return 0.5 * (B + B.T), scale


# -------------------------------------------------------------- operator data

def test_operator_invariants():
    op, _ = jacobi_solve("clifford_torus")
    K = _dense_K(op)
    assert np.abs(K - K.T).max() < 1e-12
    assert np.all(op.M_diag > 0)
    np.linalg.cholesky(np.diag(op.M_diag))
    # discrete Laplacian annihilates constants: K 1 = -(potential mass) 1
    ones = np.ones(op.n)
    resid = K @ ones + op.M_diag * op.q.ravel()
    assert np.abs(resid).max() < 1e-10 * np.abs(K).max()


def _oscillating_potential(imm):
    X, Y = imm.grid.meshes()
    return 2.0 + np.cos(X) * np.sin(Y)


def test_operator_without_shift_axis_rejected():
    # a potential varying along both chart axes leaves no Fourier blocks
    imm = gal.gallery("clifford_torus", resolution=(24, 24))
    op = sp.assemble_operator(imm, _oscillating_potential(imm))
    assert op.shift_axis is None
    res = sp.eigensolve(sp.assemble_jacobi(imm), 6)
    for call in (lambda: sp.eigensolve(op, 6), lambda: sp.eigensolve(op, 6, False),
                 lambda: sp.weak_index(op), lambda: sp.residual_norms(op, res)):
        with pytest.raises(ValueError, match="no periodic chart axis"):
            call()


def test_eigensolve_count_validated():
    op, _ = jacobi_solve("clifford_torus")
    for count in (op.n + 1, -1):
        for vectors in (True, False):
            with pytest.raises(ValueError):
                sp.eigensolve(op, count, want_vectors=vectors)


# ------------------------------------------------------ Fourier block solver

BLOCK_CASES = [
    ("sphere_r3", {"resolution": (32, 16)}, 0),
    ("sphere_s3", {"resolution": (32, 16)}, 0),
    ("sphere_h3", {"resolution": (32, 16)}, 0),
    ("clifford_torus", {"resolution": (24, 24)}, 0),
    ("delaunay_t3", {"k": 1, "resolution": (16, 16)}, 1),
    ("delaunay_t3", {"k": 2, "resolution": (32, 16)}, 1),
]


@pytest.mark.parametrize("name,kw,axis", BLOCK_CASES,
                         ids=[f"{c[0]}-{c[1].get('k', '')}" for c in BLOCK_CASES])
def test_block_path_matches_dense(name, kw, axis):
    op = sp.assemble_jacobi(gal.gallery(name, **kw))
    assert op.shift_axis == axis
    block_res = sp.eigensolve(op, 12)
    # the same pencil through LAPACK on the dense oracle
    B, scale = _dense_reduced(op)
    full = np.linalg.eigvalsh(B)
    dense_res = sp.SpectralResult(full[:12], None, sp._null_tolerance(full[:12]),
                                  lambda: full)
    assert block_res.all_eigenvalues.shape == (op.n,)
    assert (np.abs(block_res.all_eigenvalues - full).max()
            <= 1e-12 * np.abs(full).max())
    assert sp.index_nullity(block_res) == sp.index_nullity(dense_res)
    w = sp._constrained_eigvalsh(B, 1.0 / scale)
    eps = sp._null_tolerance(w[:sp.WEAK_INDEX_BAND])
    assert sp.weak_index(op) == np.count_nonzero(w < -eps)
    assert sp.residual_norms(op, block_res).max() <= 1e-10
    gram = block_res.eigenvectors.T @ (op.M_diag[:, None] * block_res.eigenvectors)
    assert np.abs(gram - np.eye(12)).max() < 1e-12


def _old_mode_blocks(op):
    """The former blocks: a DFT over the shift index of K's first block-row."""
    nx, ny = op.resolution
    if op.shift_axis == 0:
        S, L = nx, ny
        rows, perm = np.arange(ny), (1, 0, 2)
    else:
        S, L = ny, nx
        rows, perm = np.arange(nx) * ny, (2, 0, 1)
    line = _dense_K(op)[rows].reshape(L, nx, ny).transpose(perm)
    F = np.fft.rfft(line, axis=0)
    scale = 1.0 / np.sqrt(op.M_diag[rows])
    blocks = []
    for k in range(S // 2 + 1):
        B = scale[:, None] * F[k] * scale[None, :]
        blocks.append(0.5 * (B + B.conj().T))
    return blocks


@pytest.mark.parametrize("name,kw,axis", BLOCK_CASES,
                         ids=[f"{c[0]}-{c[1].get('k', '')}" for c in BLOCK_CASES])
def test_stencil_blocks_match_dft_of_dense_K_row(name, kw, axis):
    op = sp.assemble_jacobi(gal.gallery(name, **kw))
    blocks = op._mode_blocks
    old = _old_mode_blocks(op)
    assert len(blocks) == len(old) == op.resolution[axis] // 2 + 1
    # both parities of the pole sign (-1)^k on the spheres
    assert len(blocks) >= 3
    for B, ref in zip(blocks, old):
        assert B.dtype == float and np.array_equal(B, B.T)
        assert np.abs(B - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("want_vectors", [False, True])
def test_block_path_solves_only_bottom_blocks(monkeypatch, want_vectors):
    op = sp.assemble_jacobi(gal.gallery("sphere_r3", resolution=(32, 16)))
    blocks = op._mode_blocks
    assert len(blocks) == 17
    calls = {"eigvalsh": [], "eigh": []}
    for name, solver in [(name, getattr(np.linalg, name)) for name in calls]:
        monkeypatch.setattr(np.linalg, name,
                            lambda B, name=name, solver=solver: calls[name].append(B) or solver(B))

    def solved(mats):
        # wavenumber of each solved (unconstrained) block
        return [next(k for k in range(len(blocks)) if np.array_equal(B, blocks[k]))
                for B in mats]

    sp.eigensolve(op, 8, want_vectors=want_vectors)
    first, lifted = solved(calls["eigvalsh"]), solved(calls["eigh"])
    assert 1 <= len(first) <= 4 and len(set(first)) == len(first)
    # eigenvectors only of blocks already solved for their eigenvalues, once each
    assert bool(lifted) == want_vectors
    assert set(lifted) <= set(first) and len(set(lifted)) == len(lifted)
    before = len(calls["eigvalsh"])
    sp.weak_index(op)
    # one constrained wavenumber-0 solve, and only blocks not yet solved
    head, *rest = calls["eigvalsh"][before:]
    assert head.shape == (op.resolution[1] - 1,) * 2
    assert not set(solved(rest)) & set(first)
    assert len(set(solved(rest))) == len(rest)
    assert len(calls["eigh"]) == len(lifted)


def _full_block_route(op, count, want_vectors):
    """The route that solves every Fourier block: (lowest ``count``
    eigenvalues, their eigenvectors, eps_null, full spectrum).  Eigenvalues
    come from ``eigvalsh`` with or without vectors, eigenvectors from
    ``eigh``."""
    blocks = op._mode_blocks
    scale, S = blocks.scale, op.resolution[op.shift_axis]
    lifts = [(k, part) for k in range(len(blocks)) for part in range(sp._multiplicity(k, S))]
    solved = [(np.linalg.eigvalsh(B), np.linalg.eigh(B)[1] if want_vectors else None)
              for B in blocks]
    lam = np.concatenate([solved[k][0] for k, _ in lifts])
    order = np.argsort(lam, kind="stable")
    w, vecs = lam[order], None
    if want_vectors:
        vecs = np.empty((op.n, count))
        for col, idx in enumerate(order[:count]):
            (k, part), c = lifts[idx // scale.size], idx % scale.size
            phase = np.exp(-2j * np.pi * k * np.arange(S) / S)
            v = np.outer(phase, scale * solved[k][1][:, c])
            v = v.imag if part else v.real
            vecs[:, col] = (v if op.shift_axis == 0 else v.T).ravel()
        vecs /= np.sqrt(np.einsum("ij,i,ij->j", vecs, op.M_diag, vecs))
        vecs = sp._normalize_signs(vecs)
    return w[:count], vecs, sp._null_tolerance(w[:count]), w


def _full_weak_index(op):
    blocks = op._mode_blocks
    S = op.resolution[op.shift_axis]
    parts = [sp._constrained_eigvalsh(blocks[0], 1.0 / blocks.scale)]
    for k in range(1, len(blocks)):
        parts += [np.linalg.eigvalsh(blocks[k])] * sp._multiplicity(k, S)
    w = np.sort(np.concatenate(parts))
    return int(np.count_nonzero(w < -sp._null_tolerance(w[:sp.WEAK_INDEX_BAND])))


def _unscaled_blocks(op):
    """The unscaled blocks K_k = A_{k mod 2} + diag(sym_k w - m q)."""
    blocks = op._mode_blocks
    return [blocks.across[k % 2] + np.diag(d) for k, d in enumerate(blocks.diag)]


def _full_residual_norms(op, res):
    """K V block by block from the cross-axis matrices and the diagonal
    rows, and ||K||_2 from the spectra of all unscaled blocks."""
    blocks, a, V = op._mode_blocks, op.shift_axis, res.eigenvectors
    F = np.moveaxis(np.fft.rfft(V.reshape(*op.resolution, -1), axis=a), a, 0)
    KF, knorm = np.empty_like(F), 0.0
    for k, Kk in enumerate(_unscaled_blocks(op)):
        KF[k] = blocks.diag[k][:, None] * F[k] + blocks.across[k % 2] @ F[k]
        knorm = max(knorm, float(np.abs(np.linalg.eigvalsh(Kk)).max()))
    KV = np.fft.irfft(np.moveaxis(KF, 0, a), n=op.resolution[a], axis=a)
    R = KV.reshape(op.n, -1) - (op.M_diag[:, None] * V) * res.eigenvalues
    return np.linalg.norm(R, axis=0) / knorm


def _default_operators():
    """Every default ``spectrum``/``bounds`` surface and its 5/4 refinement."""
    from cmcindex.cli import _BOUNDS_DEFAULTS

    out = []
    for d in _BOUNDS_DEFAULTS:
        nx, ny = d["resolution"]
        for res in ((nx, ny), (2 * (int(nx * 1.25) // 2), int(ny * 1.25))):
            out.append((d["kind"], dict(d["params"], resolution=res)))
    return out


PRUNED_CASES = [(name, kw) for name, kw, _ in BLOCK_CASES] + _default_operators()
# eigenvectors at count n only up to this size: n x n float arrays
VECTORS_AT_N_MAX = 1024


@pytest.mark.parametrize("name,kw", PRUNED_CASES, ids=[
    f"{n}{kw.get('k', '')}@{kw['resolution'][0]}x{kw['resolution'][1]}"
    for n, kw in PRUNED_CASES])
def test_pruned_blocks_equal_full_route(name, kw):
    imm = gal.gallery(name, **kw)
    op = sp.assemble_jacobi(imm)
    blocks = op._mode_blocks
    assert sp.weak_index(op) == _full_weak_index(op)
    for k, Kk in enumerate(_unscaled_blocks(op)):
        assert blocks.floors[k] <= np.linalg.eigvalsh(blocks[k])[0]
        assert blocks.floors[k] <= np.linalg.eigh(blocks[k])[0][0]
        assert blocks.ceilings[k] >= np.abs(np.linalg.eigvalsh(Kk)).max()
    by_route = {}
    for vectors in (False, True):
        # a fresh operator per route: no block solved by the other
        op = sp.assemble_jacobi(imm)
        blocks = op._mode_blocks
        results = {}
        for count in (0, 1, 12, op.n):
            if vectors and count == op.n > VECTORS_AT_N_MAX:
                continue
            res = sp.eigensolve(op, count, want_vectors=vectors)
            lam, vecs, eps, full = _full_block_route(op, count, vectors)
            assert np.array_equal(res.eigenvalues, lam)
            assert res.eps_null == eps
            # every block that may reach the count-th eigenvalue was solved
            reach = {k for k in range(len(blocks)) if count and blocks.floors[k] <= lam[-1]}
            assert reach <= set(blocks._solved)
            assert (res.eigenvectors is None) == (vecs is None)
            if vectors:
                assert np.array_equal(res.eigenvectors, vecs)
            if vectors and count == 12:
                assert np.array_equal(sp.residual_norms(op, res),
                                      _full_residual_norms(op, res))
            results[count] = (res, full)
        for res, full in results.values():
            assert np.array_equal(res.all_eigenvalues, full)
        by_route[vectors] = results
    # the classification data do not depend on whether vectors were asked for
    for count, (res, _) in by_route[True].items():
        plain = by_route[False][count][0]
        assert np.array_equal(res.eigenvalues, plain.eigenvalues)
        assert res.eps_null == plain.eps_null
        assert np.array_equal(res.all_eigenvalues, plain.all_eigenvalues)
    assert sp.weak_index(op) == _full_weak_index(op)


def _dense_residual_norms(op, res):
    """The dense route: K @ V, and ||K||_2 from a seeded eigsh."""
    from scipy.sparse.linalg import eigsh

    K, V = _dense_K(op), res.eigenvectors
    R = K @ V - (op.M_diag[:, None] * V) * res.eigenvalues
    v0 = np.random.default_rng(0).standard_normal(op.n)
    knorm = abs(float(eigsh(K, k=1, which="LM", v0=v0,
                            return_eigenvectors=False)[0]))
    return np.linalg.norm(R, axis=0) / knorm


@pytest.mark.parametrize("name,kw,axis", BLOCK_CASES,
                         ids=[f"{c[0]}-{c[1].get('k', '')}" for c in BLOCK_CASES])
def test_block_residuals_match_dense_route(name, kw, axis):
    op = sp.assemble_jacobi(gal.gallery(name, **kw))
    res = sp.eigensolve(op, 12)
    got = sp.residual_norms(op, res)
    ref = _dense_residual_norms(op, res)
    assert np.abs(got - ref).max() <= 1e-12
    # wrong eigenvalues: both routes see the same large residuals
    off = dataclasses.replace(res, eigenvalues=res.eigenvalues + 1.0)
    got, ref = sp.residual_norms(op, off), _dense_residual_norms(op, off)
    assert got.min() > 1e-6
    assert np.abs(got - ref).max() <= 1e-12


def test_residuals_form_no_block(monkeypatch):
    # K V comes from the cross-axis matrices and the diagonal rows alone
    op = sp.assemble_jacobi(gal.gallery("sphere_s3", resolution=(32, 16)))
    res = sp.eigensolve(op, 12)

    def no_block(self, k):
        raise AssertionError(f"block {k} formed")

    monkeypatch.setattr(sp._FourierBlocks, "__getitem__", no_block)
    assert sp.residual_norms(op, res).max() <= 1e-10


def test_block_path_at_6400_unknowns():
    op = sp.assemble_jacobi(gal.gallery("clifford_torus", resolution=(80, 80)))
    assert op.n == 6400
    res = sp.eigensolve(op, 16, want_vectors=False)
    assert np.abs(res.eigenvalues - lattice_eigenvalues(16, shift=-4.0)).max() < 0.02
    assert sp.index_nullity(res) == (5, 4)
    assert sp.weak_index(op) == 4


# ------------------------------------------------- Kronecker forms of K

def _kron_axis_matrix(g, axis, stencil):
    """The 2-D stencil as Kronecker products of ``axis_stencil``:
    kron(P, I) along x, kron(I, P) + kron(Pi, Q) along y."""
    inner, flip = (csr_matrix(a) for a in g.axis_stencil(axis, stencil))
    if axis == 0:
        return kron(inner, identity(g.ny), format="csr")
    out = kron(identity(g.nx), inner, format="csr")
    if flip.nnz:
        antipodal = np.roll(np.eye(g.nx), g.nx // 2, axis=1)
        out = out + kron(csr_matrix(antipodal), flip, format="csr")
    return out


def _same_entries(a, b) -> bool:
    a, b = a.toarray(), b.toarray()
    return a.tobytes() == b.tobytes()


GRIDS = [torus_grid(8, 8), torus_grid(16, 12, 1.3, 0.7), sphere_grid(8, 8),
         sphere_grid(12, 10), sphere_grid(32, 16)]


@pytest.mark.parametrize("g", GRIDS, ids=[f"{g.topology}{g.nx}x{g.ny}" for g in GRIDS])
def test_kronecker_matrices_equal_coo_builders(g):
    for axis in (0, 1):
        for stencil in ("diff", "filter"):
            assert _same_entries(_kron_axis_matrix(g, axis, stencil),
                                 _old_axis_matrix(g, axis, stencil))


# ------------------------------------------------------------- exact spectra

def test_sphere_laplace_spectrum():
    _, res = laplace_solve("sphere_r3")
    exact = sphere_eigenvalues(16)
    assert abs(res.eigenvalues[0]) < 1e-6
    rel = np.abs(res.eigenvalues[1:16] - exact[1:16]) / exact[1:16]
    assert rel.max() < 0.01


def test_clifford_laplace_spectrum():
    _, res = laplace_solve("clifford_torus")
    exact = lattice_eigenvalues(16)
    mask = exact > 0
    rel = np.abs(res.eigenvalues[mask] - exact[mask]) / exact[mask]
    assert rel.max() < 0.01
    assert abs(res.eigenvalues[0]) < 1e-8


def test_sphere_jacobi_index_nullity():
    _, res = jacobi_solve("sphere_r3")
    assert sp.index_nullity(res) == (1, 3)
    exact = sphere_eigenvalues(12, shift=-2.0)
    assert np.abs(res.eigenvalues[:12] - exact).max() < 0.02


def test_s3_sphere_jacobi_index_nullity():
    _, res = jacobi_solve("sphere_s3")
    assert sp.index_nullity(res) == (1, 3)
    # closed form: (l(l+1) - 2) / sin(rho)^2
    s2 = np.sin(0.9) ** 2
    exact = sphere_eigenvalues(9, rho=np.sin(0.9)) - 2.0 / s2
    assert np.abs(res.eigenvalues[:9] - exact).max() < 0.03
    # classification partitions the returned list
    assert res.index + res.nullity + sum(
        c == "positive" for c in res.classification()) == res.eigenvalues.size


def test_h3_sphere_index_plus_nullity_is_four():
    _, res = jacobi_solve("sphere_h3")
    i, n = sp.index_nullity(res)
    assert (i, n) == (1, 3)
    assert i + n == 4
    # closed form: (l(l+1) - 2) / sinh(rho)^2
    rho = 0.8
    exact = sphere_eigenvalues(9, rho=np.sinh(rho), shift=0.0) - 2.0 / np.sinh(rho) ** 2
    assert np.abs(res.eigenvalues[:9] - exact).max() < 0.03


def test_clifford_jacobi_spectrum_and_counts():
    _, res = jacobi_solve("clifford_torus")
    exact = lattice_eigenvalues(16, shift=-4.0)
    assert np.abs(res.eigenvalues - exact[:16]).max() < 0.02
    assert sp.index_nullity(res) == (5, 4)


def test_eigenvector_residuals_and_signs():
    op, res = jacobi_solve("sphere_r3", 8, True)
    r = sp.residual_norms(op, res)
    assert r.max() < 1e-8
    for j in range(res.eigenvectors.shape[1]):
        col = res.eigenvectors[:, j]
        k = np.argmax(np.abs(col) > 1e-8 * np.abs(col).max())
        assert col[k] > 0


def test_rayleigh_lower_bound():
    for label in ("sphere_r3", "clifford_torus", "delaunay_k2"):
        op, res = jacobi_solve(label)
        assert res.eigenvalues[0] >= -op.q.max() - 1e-10 * max(1, abs(op.q.max()))


def test_spectral_convergence_rates():
    # coarse grid within 1%, reference (its doubling) within 0.25%
    exact = sphere_eigenvalues(9)
    coarse = gal.gallery("sphere_r3", resolution=(32, 16))
    wc = sp.eigensolve(sp.assemble_laplace(coarse), 9, want_vectors=False).eigenvalues
    rel_c = np.abs(wc[1:] - exact[1:]) / exact[1:]
    assert rel_c.max() < 0.01
    _, ref = laplace_solve("sphere_r3")   # 64 x 32
    rel_r = np.abs(ref.eigenvalues[1:9] - exact[1:9]) / exact[1:9]
    assert rel_r.max() < 0.0025
    assert rel_r.max() < rel_c.max() / 4


def test_stability_flag():
    imm_c = surface("sphere_r3")
    op = sp.assemble_jacobi(imm_c)
    res = sp.eigensolve(op, 8, want_vectors=False)
    fine_imm = gal.gallery("sphere_r3", resolution=(80, 40))
    fine = sp.eigensolve(sp.assemble_jacobi(fine_imm), 8, want_vectors=False)
    assert sp.index_nullity(res) == sp.index_nullity(fine) == (1, 3)


# ----------------------------------------------------------------- weak index

def test_weak_index_values_and_sandwich():
    assert weak_index_of("sphere_r3") == 0
    assert weak_index_of("clifford_torus") == 4
    for label in ("sphere_r3", "sphere_s3", "sphere_h3", "clifford_torus",
                  "delaunay_k1", "delaunay_k2", "delaunay_k3"):
        _, res = jacobi_solve(label)
        i, _ = sp.index_nullity(res)
        iw = weak_index_of(label)
        assert i - 1 <= iw <= i, label


# ----------------------------------------------------------------- heat trace

def test_heat_trace_matches_closed_form_sphere():
    _, res = laplace_solve("sphere_r3")
    exact_lams = sphere_eigenvalues(900)
    for t in (0.1, 0.5, 1.0, 2.0):
        ht = sp.heat_trace(res, t)
        exact = np.exp(-exact_lams * t).sum()
        assert abs(ht.value - exact) < 1e-4 * exact
        assert not ht.truncated


def test_heat_trace_decreasing_and_counting_bound():
    _, res = laplace_solve("clifford_torus")
    ts = np.geomspace(0.05, 5.0, 12)
    vals = [sp.heat_trace(res, t).value for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for c in (1.0, 4.0, 10.0):
        cnt = sp.counting(res, c)
        for t, v in zip(ts, vals):
            assert cnt <= np.exp(c * t) * v + 1e-9


def test_counting_rejects_nan_threshold():
    _, res = laplace_solve("sphere_r3")
    assert sp.counting(res, -np.inf) == 0
    assert sp.counting(res, np.inf) == res.all_eigenvalues.size
    with pytest.raises(ValueError, match="not NaN"):
        sp.counting(res, np.nan)


def test_heat_trace_truncation_flag():
    _, res = laplace_solve("sphere_r3")
    tiny = sp.heat_trace(res, 1e-6)
    assert tiny.truncated
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="requires t > 0"):
            sp.heat_trace(res, t)


# ------------------------------------------------------- ties to variations

def test_quadratic_form_ties():
    imm = surface("clifford_torus")
    K = _dense_K(sp.assemble_jacobi(imm))
    rng = np.random.default_rng(9)
    for _ in range(3):
        f = vr.random_scalar(imm, rng)
        fv = f.ravel()
        kff = float(fv @ K @ fv)
        # identical stencils up to the sawtooth filter: tight agreement
        assert abs(kff - vr.jacobi_form(imm, f)) < 1e-6 * max(1, abs(kff))
        # independent route through the full area_h Hessian of v = f nu
        d2 = vr.second_variation_area_h(imm, vr.normal_variation(imm, f))
        assert abs(kff - d2) < 1e-4 * max(1, abs(kff))


# --------------------------------------------------------------- BLAS threads

def _block_operator():
    op = sp.assemble_jacobi(gal.gallery("clifford_torus", resolution=(24, 24)))
    assert op.shift_axis is not None
    return op


def test_block_eigensolve_runs_blas_on_one_thread(blas_threads, monkeypatch):
    seen = record_blas_threads(monkeypatch, "eigh", blas_threads)
    sp.eigensolve(_block_operator(), 6)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def test_serial_blas_without_library_is_a_no_op(blas_threads, monkeypatch):
    # the next entry looks the library up again, and finds none
    monkeypatch.setattr(sp, "_numpy_openblas", lambda: ())
    monkeypatch.setattr(sp._SERIAL_BLAS, "_calls", None)
    seen = record_blas_threads(monkeypatch, "eigh", blas_threads)
    sp.eigensolve(_block_operator(), 6)
    assert seen and set(seen) == {2}
    assert blas_threads() == 2


def test_serial_blas_pins_until_the_last_thread_leaves(monkeypatch):
    count = [3]
    monkeypatch.setattr(sp, "_numpy_openblas", lambda: (
        lambda: count[0], lambda n: count.__setitem__(0, n)))
    pin, wrong = sp._SerialBlas(), []

    def work():
        for _ in range(300):
            with pin:
                if count[0] != 1:
                    wrong.append(count[0])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert count[0] == 3 and pin._depth == 0
