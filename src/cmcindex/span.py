"""The seeded span of a surface and the Gram matrices of the comparison
identity's three forms on it.

Every seeded variation (``variations.seeded_variation``) is P(sum_a w_a e_a):
P the tangent projection, e_a the ambient axes and each w_a a seeded scalar
field, which lies in a fixed space of M scalar modes phi_m.  On tori those
are the products of 1, cos(j t), sin(j t) (j <= m) in the two chart angles,
M = (2m + 1)^2; on spheres the polynomials of degree <= 2 in the ambient
coordinates, M = 1 + d + d(d + 1)/2.  P is pointwise linear, so every seeded
variation lies in the span of the N = d M fields phi_m P(e_a), numbered
a M + m, and its coefficients there are its rng draws (``coefficients``).
``seeded_variation`` takes the seed alone, so the degree and decay read
back here are the only ones any seeded field is drawn with.

``grams`` assembles the N x N Gram matrices of ``second_variation_area``,
``second_variation_energy`` and the chart defect 8 int |eta|^2 dx dy, so
that the comparison identity of any seeded variation is three quadratic
forms c^T G c (``identity_residuals``).  On sphere charts it stencils all
M modes, ``_SLAB_WIDTH`` chart columns at a time, and sums each product
over a whole slab (``_assemble_slabs``).  On torus charts each mode is a
product fx_j(x) fy_k(y), so the stencils act on the 2m + 1 modes of one
chart axis and the products are summed along chart lines before they meet
the other axis's modes (``span_torus``); the two assemblies agree up to
roundoff.  ``cmcindex identity`` writes every row of every surface this
way; it imports this module on demand, and the other commands never
compile it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import ambient as amb
from .grids import SERIAL_PRODUCT, serial_matmul
from .surfaces import Immersion
# the seeded draws and the chart data they are evaluated on, shared with
# ``variations.random_scalar``
from .variations import _VARIATION_DECAY, _chart_angles, _scalar_draws, _torus_degree

__all__ = ["coefficients", "basis", "grams", "identity_residuals"]

# chart columns per slab of ``_assemble_slabs`` (spheres): widths 3, 4, 6, 8
# and 12 took 0.36-0.39, 0.31-0.33, 0.25-0.28, 0.23-0.27 and 0.23-0.25 s on
# the three default identity spheres (in-process, 2 vCPUs), and sphere_s3 at
# 64x48 peaked at 0.87, 1.07, 1.33, 1.64 and 2.27 MiB (its test allows 2 MiB)
_SLAB_WIDTH = 8


def _trig_modes(t: np.ndarray, m: int) -> np.ndarray:
    """1, cos t, sin t, ..., cos m t, sin m t as rows."""
    jt = np.arange(1, m + 1)[:, None] * t
    return np.concatenate([np.ones((1, len(t))),
                           np.stack([np.cos(jt), np.sin(jt)], axis=1).reshape(2 * m, len(t))])


def _span_scalars(imm: Immersion, cols) -> np.ndarray:
    """The scalar modes on the chart columns ``cols``, x last:
    (len(cols), M, nx)."""
    g = imm.grid
    if g.topology == "torus":
        m = _torus_degree(g, None)
        xi, eta = _chart_angles(g)
        fx, fy = _trig_modes(xi, m), _trig_modes(eta[cols], m)
        return (fx[None, :, None, :] * fy.T[:, None, :, None]).reshape(fy.shape[1], -1, g.nx)
    p = np.moveaxis(imm.u[:, cols], 0, -1)
    a, b = np.triu_indices(imm.space.dim)
    return np.concatenate([np.ones((len(p), 1, g.nx)), p, p[:, a] * p[:, b]], axis=1)


def _waves(j: int, phase: np.ndarray) -> list:
    """cos(j t + phase) = cos(phase) cos(j t) - sin(phase) sin(j t) as
    (row of ``_trig_modes``, coefficient) pairs."""
    if j == 0:
        return [(0, np.cos(phase))]
    return [(2 * j - 1, np.cos(phase)), (2 * j, -np.sin(phase))]


def coefficients(imm: Immersion, seeds) -> np.ndarray:
    """Coefficients (len(seeds), N) of ``seeded_variation(imm, s)`` for each
    seed s in the span basis: the same rng draws, read as mode coefficients."""
    d, n = imm.space.dim, len(seeds)
    # every field's draws, then one conversion per kind of draw
    draws = [_scalar_draws(imm, rng, None, _VARIATION_DECAY)
             for rng in map(np.random.default_rng, seeds) for _ in range(d)]
    if imm.grid.topology == "torus":
        m = _torus_degree(imm.grid, None)
        # term (j, k, amp, phx, phy) is amp cos(j xi + phx) cos(k eta + phy)
        terms = np.array(draws).reshape(n, d, (m + 1) ** 2, 5)
        out = np.zeros((n, d, 2 * m + 1, 2 * m + 1))
        for j, k, amp, phx, phy in np.moveaxis(terms, (2, 3), (0, 1)):
            for row, cx in _waves(int(j[0, 0]), phx):
                for col, cy in _waves(int(k[0, 0]), phy):
                    out[:, :, row, col] = amp * cx * cy
        return out.reshape(n, -1)
    # constant, linear and quadratic (a <= b) coefficients, as in _span_scalars
    a, b = np.triu_indices(d)
    c0, c1, c2 = (np.array([f[i] for f in draws]).reshape((-1,) + (d,) * i) for i in range(3))
    quad = np.where(a == b, c2[:, a, b], c2[:, a, b] + c2[:, b, a])
    return np.concatenate([c0[:, None], c1, quad], axis=1).reshape(n, -1)


def basis(imm: Immersion) -> np.ndarray:
    """The N span fields phi_m P(e_a) as one (nx, ny, N, d) array (small grids)."""
    g, sp = imm.grid, imm.space
    phi = np.moveaxis(_span_scalars(imm, slice(None)), -1, 0)
    pe = amb.project_tangent(sp, imm.u[..., None, :], np.eye(sp.dim))
    return (pe[..., :, None, :] * phi[..., None, :, None]).reshape(g.nx, g.ny, -1, sp.dim)


def _gram_add(gram: np.ndarray, left: np.ndarray, right: np.ndarray,
              weight: np.ndarray | None = None) -> None:
    """gram += sum over points of left right^T (times ``weight``) for fields
    whose leading axes are gram's rows (columns), the rest points, in
    products that BLAS runs on one thread (``grids.SERIAL_PRODUCT``)."""
    left, right = left.reshape(gram.shape[0], -1), right.reshape(gram.shape[1], -1)
    step = max(1, SERIAL_PRODUCT // gram.size)
    for k in range(0, left.shape[1], step):
        r = right[:, k:k + step]
        gram += serial_matmul(left[:, k:k + step],
                              (r if weight is None else r * weight.reshape(-1)[k:k + step]).T)


def _planes(z: np.ndarray, axis: int = 0) -> np.ndarray:
    """(real, imaginary) planes of complex data as one real array: the
    Re-inner products of complex fields become real products."""
    return np.stack((z.real, z.imag), axis=axis)


def _x_last(field: np.ndarray, cols) -> np.ndarray:
    """A field (nx, ny, ...) on the chart columns ``cols``, (len(cols), ..., nx)."""
    return np.ascontiguousarray(np.moveaxis(field[:, cols], 0, -1))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _pairs(d: int):
    """(a, c) for a <= c with the ordered pairs it stands for."""
    return [(a, c, ((a, c), (c, a)) if c > a else ((a, c),))
            for a in range(d) for c in range(a, d)]


class _SlabFields:
    """The span scalars phi_m and the geometry of one slab, x last: on the
    window (``*_w``), where stencil inputs are formed, and on the slab's own
    points.  Components against P(e_a) are lowered by the signature
    (``sig*``): <P(e_a), w> = sig_a w_a for every w tangent to the model
    space (nu, u_x, u_y, u_z)."""

    def __init__(self, imm: Immersion, slab):
        g, sp, sf = imm.grid, imm.space, imm.second_form
        win, own = slab.window, slab.cols
        self.imm, self.grid, self.slab, self.sig = imm, g, slab, sp.signature
        self.nu_w, self.p_w, self.uz_w, self.uzb_w = (
            _x_last(x, win) for x in (imm.nu, imm.u, imm.uz, imm.uzbar))
        self.inv2_w = 2.0 / _x_last(imm.e2lam, win)
        self.p, self.uz, self.uzb = (x[slab.inner] for x in (self.p_w, self.uz_w, self.uzb_w))
        self.signu, self.sigux, self.siguy = (self.sig[:, None] * _x_last(x, own)
                                              for x in (imm.nu, imm.ux, imm.uy))
        self.e2, self.h, self.wc, self.norm_sq, self.azz = (_x_last(x, own) for x in (
            imm.e2lam, sf.mean_scalar, imm.chart_weights, sf.norm_sq, sf.azz))
        self.a_xx, self.a_xy, self.a_yy = (_x_last(x, own) for x in (sf.a_xx, sf.a_xy, sf.a_yy))
        ux, uy = imm.ux[:, own], imm.uy[:, own]
        self.gsq = _x_last(amb.inner(sp, ux, ux) + amb.inner(sp, uy, uy), slice(None))

    @cached_property
    def phi_w(self) -> np.ndarray:
        return _span_scalars(self.imm, self.slab.window)

    @cached_property
    def phi(self) -> np.ndarray:  # on the slab's own points, as (M, width, nx)
        return np.ascontiguousarray(self.phi_w[self.slab.inner].transpose(1, 0, 2))

    def diff(self, coef: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Slab stencils (d/dx, d/dy) of phi_m times the real window field
        ``coef`` (of phi_m itself without it), as (M, width, nx) views."""
        f = self.phi_w if coef is None else self.phi_w * coef[:, None]
        return tuple(x.transpose(1, 0, 2) for x in self.grid.diff_slab(self.slab, f))


def _energy_terms(fs: _SlabFields, energy: np.ndarray, kappa: float) -> None:
    """|nabla v|^2 of a curved model space: v = phi P(e_a) with
    P(e_a)_c = delta_ac - kappa sig_a p_a p_c, so nabla_i v_c is
    delta_ac d_i phi - kappa sig_a d_i(phi p_a p_c) plus the connection
    term kappa <u_i, v> p_c.  One component c at a time: pair (a, c) is
    stenciled for c and for a, where all pairs at once take more memory."""
    d, sig, phi, p = len(fs.sig), fs.sig, fs.phi, fs.p
    dphi = fs.diff()
    grad = np.empty((2, d) + phi.shape)  # nabla_x, nabla_y of v_c: axes a, modes
    for c in range(d):
        for a in range(d):
            dq = fs.diff(fs.p_w[:, min(a, c)] * fs.p_w[:, max(a, c)])
            for i, ui in enumerate((fs.sigux, fs.siguy)):
                ga = grad[i, a]
                np.multiply(phi, ui[:, a] * p[:, c], out=ga)
                ga -= dq[i]
                ga *= kappa * sig[a]
                if a == c:
                    ga += dphi[i]
            del dq  # before the next stencil
        for gi in grad:
            _gram_add(energy, gi, gi, sig[c] * fs.wc)


def _area_terms(fs: _SlabFields, area: np.ndarray) -> None:
    """|<nabla s, nu>|^2 and its cross terms with sigma: s = f nu with
    f = phi sig_a nu_a, so pair (a, c) differentiates sig_a phi nu_a nu_c."""
    d, sig, phi = len(fs.sig), fs.sig, fs.phi
    sx, sy = np.zeros((2, d) + phi.shape)
    term = np.empty(phi.shape)
    for a, c, twin in _pairs(d):
        dx, dy = fs.diff(fs.nu_w[:, a] * fs.nu_w[:, c])
        for i, j in twin:
            for acc, dd in ((sx, dx), (sy, dy)):
                np.multiply(fs.signu[:, j], dd, out=term)
                (np.add if sig[i] > 0 else np.subtract)(acc[i], term, out=acc[i])
    del dx, dy, term  # before ``right`` takes their memory
    # against the area weights e^{2lam} dx dy: e^{-2lam} |<nabla s, nu>|^2
    # + 2 h (alpha <nabla_x s, nu> + beta <nabla_y s, nu>), with
    # (alpha, beta) = e^{-2lam} (<sigma, u_x>, <sigma, u_y>)
    right = np.empty(sx.shape)
    for sd, ud in ((sx, fs.sigux), (sy, fs.siguy)):
        np.multiply(np.ascontiguousarray(ud.transpose(1, 0, 2))[:, None], phi, out=right)
        right *= 2.0 * fs.h
        right += sd
        _gram_add(area, sd, right, fs.wc)


def _pointwise_coef(fs: _SlabFields, kappa: float) -> np.ndarray:
    """The terms without derivatives, as symmetric (a, b) coefficient fields
    C_ab against phi_m phi_n, a <= b (doubled off the diagonal): (width,
    forms x pairs, nx)."""
    d, sig, e2, h = len(fs.sig), fs.sig, fs.e2, fs.h
    al, be = fs.sigux / e2[:, None], fs.siguy / e2[:, None]  # chart components of sigma
    ff = h * h - fs.norm_sq - kappa * fs.gsq / e2
    forms = [(fs.wc * e2)[:, None, None] * (
        ff[:, None, None] * _outer(fs.signu, fs.signu)
        + h[:, None, None] * (fs.a_xx[:, None, None] * _outer(al, al)
                              + fs.a_xy[:, None, None] * (_outer(al, be) + _outer(be, al))
                              + fs.a_yy[:, None, None] * _outer(be, be)))]
    if kappa != 0.0:
        # -Rm(v, u_i, u_i, v), with <P(e_a), P(e_b)> = sig_a delta_ab - kappa sig_a sig_b p_a p_b
        sigp = sig[:, None] * fs.p
        gab = np.eye(d)[:, :, None] * sig[:, None, None] - kappa * _outer(sigp, sigp)
        forms.append((kappa * fs.wc)[:, None, None] * (
            _outer(fs.sigux, fs.sigux) + _outer(fs.siguy, fs.siguy) - fs.gsq[:, None, None] * gab))
    a, b = np.triu_indices(d)
    coef = np.stack([c[:, a, b] for c in forms], axis=1) * np.where(a == b, 1.0, 2.0)[:, None]
    return coef.reshape(len(e2), -1, e2.shape[-1])


def _uv_weights(fs: _SlabFields) -> tuple[np.ndarray, np.ndarray]:
    """8 |eta|^2 as |U|^2 + |V|^2 (``span_torus._defect_modes``): the weights
    ((U, V), d, width, nx) of each axis's 2 d/dz(phi k), and ((U, V), width,
    nx) of beta's term -f A(u_z, u_z)."""
    sig, e2 = fs.sig, fs.e2
    g = (fs.uz * sig[:, None] * fs.uzb).sum(1).real
    q = (fs.uz * sig[:, None] * fs.uz).sum(1)
    w8 = np.sqrt(8.0 * fs.wc)
    su, sq, sv = (w8 * x for x in (np.sqrt(g), q.conj() / np.sqrt(g),
                                   np.sqrt(g - (q * q.conj()).real / g)))
    hb, hu = (sig[:, None, None] * (x / e2[:, None]).transpose(1, 0, 2) for x in (fs.uzb, fs.uz))
    return np.stack([su * hb + sq * hu, sv * hu]), np.stack([sq, sv]) * (2.0 / e2 * fs.azz)


def _dz(fs: _SlabFields, f: np.ndarray, rotate: bool) -> np.ndarray:
    """2 d/dz(phi f) = d/dx(phi f) - i d/dy(phi f) of a real window field f,
    times i if ``rotate``, as complex (M, width, nx)."""
    dx, dy = fs.diff(f)
    z = np.empty(dx.shape, complex)
    z.real, z.imag = (dy, dx) if rotate else (dx, dy)
    return z if rotate else np.conjugate(z, out=z)


def _defect_terms(fs: _SlabFields, defect: np.ndarray) -> None:
    """8 |eta|^2 with eta = alpha u_z + beta u_zbar, as |U|^2 + |V|^2
    (``_uv_weights``).  sigma^{0,1} = 2 e^{-2lam} <v, u_z> u_zbar, so pair
    (a, c) differentiates sig_a phi k with k = 2 e^{-2lam} u_z,a u_zbar,c and
    (c, a) sig_c phi conj(k): k's imaginary plane enters times i (-i in
    conj(k)), and k is real on the diagonal.  U is summed before V: both at
    once would take twice the memory for half the stencils."""
    d, sig, phi = len(fs.sig), fs.sig, fs.phi
    w, shift = _uv_weights(fs)
    uv, term = np.empty((d,) + phi.shape, complex), np.empty(phi.shape, complex)
    for r in range(2):
        for i in range(d):  # beta's term
            np.multiply(-shift[r] * fs.signu[:, i], phi, out=uv[i])
        for a, c, twin in _pairs(d):
            k = fs.inv2_w * fs.uz_w[:, a] * fs.uzb_w[:, c]
            for p, plane in enumerate((k.real, k.imag) if c > a else (k.real,)):
                z = _dz(fs, plane, rotate=p == 1)
                for t, (i, j) in enumerate(twin):
                    np.multiply(w[r, j], z, out=term)
                    add = np.add if (sig[i] > 0) != bool(p and t) else np.subtract
                    add(uv[i], term, out=uv[i])
                del z  # before the next stencil
        planes = uv.view(float)  # (real, imaginary) interleaved along x
        _gram_add(defect, planes, planes)


def grams(imm: Immersion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N x N Gram matrices of ``second_variation_area``,
    ``second_variation_energy`` and the chart defect 8 int |eta|^2 dx dy on
    the seeded span: c^T G c is the form of the span field with
    coefficients c, equal to the per-field functions up to roundoff.
    ``identity_residuals`` builds them once per call, whatever the number of
    seeds, and ``cmcindex identity`` once per surface.

    Every integrand is a sum of products of two quantities linear in the
    field, each either pointwise (f, the chart components of sigma, v) or a
    contraction of stencil derivatives (<nabla s, nu>, nabla v, eta).  The
    work is streamed over slabs of chart columns (``ParamGrid.slabs``) and,
    within a slab, form by form over the pairs (ambient axis a, component
    c): each stencil input is a mode times one real coefficient field,
    sampled on the slab's window only.  No array spans the grid.  Terms that
    vanish up to roundoff are left out: the connection terms along nu and
    u_z, <s, u_x> = f <nu, u_x>, and kappa <w, p> p in P(e_a) against
    tangent vectors w.

    Sphere charts stencil all M modes phi_m (``_assemble_slabs``).  On torus
    charts phi_(j,k) = fx_j(x) fy_k(y), so every such quantity is
    fy_k X_(a,j) + fx_j Y_(a,k): 2m + 1 modes per point instead of M, and
    each product is summed along chart lines before it meets the other
    factor (``span_torus``).
    """
    if imm.grid.topology == "torus":
        # on demand: only torus charts compile the module
        from .span_torus import assemble
        return _grams(imm, assemble)
    return _grams(imm, _assemble_slabs)


def _grams(imm: Immersion, assemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``grams`` with the given assembly of its slab terms."""
    d, kappa = imm.space.dim, imm.space.curvature
    M = _span_scalars(imm, slice(0, 1)).shape[1]
    N = d * M
    area, energy, defect = (np.zeros((N, N)) for _ in range(3))
    energy_modes = np.zeros((M, M))  # flat spaces: the same block for every axis
    a, b = np.triu_indices(d)
    # the pointwise terms of (form, pair (a, b)) against phi_m phi_n
    point = np.zeros((M, M, (2 if kappa else 1) * len(a)))
    assemble(imm, area, energy, energy_modes, defect, point)
    if not kappa:
        energy = np.kron(np.eye(d), energy_modes)
    point = point.reshape(M, M, -1, len(a))
    for form, gram in enumerate((area, energy) if kappa else (area,)):
        for k in range(len(a)):
            gram[a[k] * M:(a[k] + 1) * M, b[k] * M:(b[k] + 1) * M] += point[:, :, form, k]
    return tuple(0.5 * (x + x.T) for x in (area, energy, defect))


def _assemble_slabs(imm: Immersion, area, energy, energy_modes, defect, point) -> None:
    """The slab terms of ``grams`` over all M modes phi_m, ``_SLAB_WIDTH``
    chart columns at a time, every quantity as (rows, width, nx): each Gram
    product runs over all points of a slab (the pointwise terms, M times
    wider, over one column)."""
    kappa, M = imm.space.curvature, point.shape[0]
    pointwise = np.zeros((M, M * point.shape[2]))
    for slab in imm.grid.slabs(_SLAB_WIDTH):
        fs = _SlabFields(imm, slab)
        if kappa:
            _energy_terms(fs, energy, kappa)
        else:
            for dm in fs.diff():
                _gram_add(energy_modes, dm, dm, fs.wc)
        _area_terms(fs, area)
        for pj, cj in zip(fs.phi.transpose(1, 0, 2), _pointwise_coef(fs, kappa)):
            _gram_add(pointwise, pj, pj[:, None] * cj[None])
        _defect_terms(fs, defect)
    point += pointwise.reshape(point.shape)


def identity_residuals(imm: Immersion, seeds) -> list[dict]:
    """``variations.comparison_identity_residual`` of
    ``seeded_variation(imm, s)`` for each seed s, up to roundoff, from the
    span Gram matrices (without its defect_surface): the rows of ``cmcindex
    identity``.  The Grams are built once (not at all for no seeds).  Each
    row sums over its own coefficients only, so it depends only on the
    surface and its seed, not on the other seeds."""
    seeds = list(seeds)
    if not seeds:
        return []
    coefs = coefficients(imm, seeds)
    # einsum's own loops: no BLAS, so no thread-dependent reduction order
    d2a, d2e, dfc = (np.einsum("ri,ij,rj->r", coefs, gram, coefs)
                     for gram in grams(imm))
    rows = []
    for a, e, h in zip(d2a.tolist(), d2e.tolist(), dfc.tolist()):
        resid = abs(a - e + h)
        rows.append({"d2_area": a, "d2_energy": e, "defect_chart": h,
                     "residual_abs": resid,
                     "residual_rel": resid / max(abs(a), abs(e), 1.0)})
    return rows
