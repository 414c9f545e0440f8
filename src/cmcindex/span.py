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
forms c^T G c (``identity_residuals``).  One engine builds them on every
chart.  It works on product modes psi_(j,k) = fx_j(x) fy_k(y) of 1, cos,
sin of one chart angle per axis: the stencils act on the 2m + 1 modes of
one axis, and the products are summed along chart lines before they meet
the other axis's modes (``_ModeGram``).  On tori the span scalars are those
products.  On spheres they are exact combinations phi = T^T psi of the 25
products of 1, cos, sin, cos 2, sin 2 of the longitude with the colatitude
factors 1, cos, sin, sin cos, sin^2 (a polynomial of degree 2 in the
ambient coordinates has wavenumber at most 2 in each), so the engine runs
on those and each Gram is projected by T per ambient axis
(``_sphere_projection``).
``cmcindex identity`` writes every row of every surface this way; it
imports this module on demand, and the other commands never compile it.
"""

from __future__ import annotations

import numpy as np

from . import ambient as amb
from .grids import serial_matmul
from .surfaces import Immersion
# the seeded draws and the chart data they are evaluated on, shared with
# ``variations.random_scalar``
from .variations import _VARIATION_DECAY, _chart_angles, _scalar_draws, _torus_degree

__all__ = ["coefficients", "basis", "grams", "identity_residuals"]

# chart columns per slab of ``grams``: the stencil's half-width, so that
# where it divides the row count a sphere's pole slabs hold just the rows
# its pole flip reaches, the only ones with y parts of two parities.  At
# widths 2, 3, 4, 5, 6 and 8 the five default identity surfaces took 0.38,
# 0.30, 0.25, 0.24, 0.22 and 0.22 s (in-process, 2 vCPUs, best of 8), and
# the tracemalloc peak was 1.53, 1.70, 1.83, 2.14, 2.39 and 2.98 MiB on
# sphere_s3 at 64x48 (its test allows 2 MiB) and 1.45, 1.57, 1.70, 1.82,
# 1.94 and 2.33 MiB on the Clifford torus at 64x64
_MODE_SLAB_WIDTH = 4

# a sphere's colatitude factors 1, cos, sin, sin cos, sin^2, the order to
# which each vanishes at the poles, and the rows 1, cos, sin, cos 2, sin 2 of
# ``_trig_modes`` in terms of them: cos 2t = 1 - 2 sin^2 t, sin 2t = 2 sin t cos t
_POLE_ORDER = np.array([0, 0, 1, 1, 2])
_FROM_TRIG = np.array([[1, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 0, 2], [0, 0, 0, -2, 0]], float)


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


def _planes(z: np.ndarray, axis: int = 0) -> np.ndarray:
    """(real, imaginary) planes of complex data as one real array: the
    Re-inner products of complex fields become real products."""
    return np.stack((z.real, z.imag), axis=axis)


def _x_last(field: np.ndarray, cols) -> np.ndarray:
    """A field (nx, ny, ...) on the chart columns ``cols``, (len(cols), ..., nx)."""
    return np.ascontiguousarray(np.moveaxis(field[:, cols], 0, -1))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _pair_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (a, c), a <= c, as two index arrays, and the (d, d) table
    of the pair of each ordered (a, c)."""
    a, c = np.triu_indices(d)
    table = np.empty((d, d), int)
    table[a, c] = table[c, a] = np.arange(len(a))
    return a, c, table


def _chart_modes(g) -> tuple[np.ndarray, ...]:
    """The product modes' factors: fx (n, nx), fy (ny, n), d/dx fx_j,
    d/dy fy_k for even and odd longitude wavenumber (2, ny, n), and the x
    stencil weighted by fx, wx[x', (j, x)] = D[x, x'] fx_j(x').  fx and,
    on tori, fy are the rows of ``_trig_modes``; on spheres fy holds the
    colatitude factors of ``_POLE_ORDER``.

    A sphere's y stencil reads the antipodal column through its pole flip
    Q, where fx_j(x + pi) = (-1)^j fx_j(x) for wavenumber j: the y part of
    d/dy(psi c) is then P(fy_k c) + (-1)^j Q(fy_k c) at x + pi.  On tori Q is
    zero and both parities agree."""
    if g.topology == "torus":
        m, (x, y) = _torus_degree(g, None), _chart_angles(g)
        fx, fy = _trig_modes(x, m), _trig_modes(y, m).T
    else:
        s, c = np.sin(g.theta), np.cos(g.theta)
        fx, fy = _trig_modes(g.x, 2), np.stack([np.ones_like(s), c, s, s * c, s * s], axis=1)
    wx = (g.axis_stencil(0, "diff")[0].T[:, None] * fx.T[:, :, None]).reshape(g.nx, -1)
    P, Q = g.axis_stencil(1, "diff")
    dfy = serial_matmul(P, fy) + np.array([1.0, -1.0])[:, None, None] * serial_matmul(Q, fy)
    return fx, fy, wx.sum(0).reshape(fx.shape), dfy, wx


def _sphere_projection(imm: Immersion, fx: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """T (n^2, M) with phi_m = sum_(j,k) T[j n + k, m] fx_j fy_k on a sphere
    chart, fy the colatitude factors of ``_chart_modes``.

    The longitude modes are orthogonal on the uniform x nodes.  The
    colatitude profile of longitude wavenumber j vanishes at the poles to
    order j and has its parity, as F(x, -theta) = F(x + pi, theta).  It is
    fitted in 1, cos, sin, cos 2, sin 2, whose cosines and whose sines are
    orthogonal on the midpoint nodes, and written in the factors that vanish
    to order j.  So T weights only products smooth at the poles, whose
    Gram entries are of the span's size, and no product such as cos 2x
    alone, whose |grad|^2 grows like 1 / sin^2 theta."""
    n, phi = len(fx), _span_scalars(imm, slice(None))
    trig = _trig_modes(theta, 2).T
    per_x = serial_matmul(phi, fx.T) / (fx * fx).sum(1)  # (ny, M, j)
    t = serial_matmul(trig.T, per_x.reshape(len(trig), -1)) / (trig * trig).sum(0)[:, None]
    t = serial_matmul(_FROM_TRIG, t).reshape(n, -1, n)  # (k, M, j)
    wn = (np.arange(n) + 1) // 2
    keep = (_POLE_ORDER[:, None] >= wn) & ((_POLE_ORDER[:, None] - wn) % 2 == 0)
    return (t * keep[:, None]).transpose(2, 0, 1).reshape(n * n, -1)


class _ModeGram:
    """A Gram summed slab by slab from span quantities
    L = fy_k lx_(a,j) + fx_j ly_(a,k) and R alike (``add``), at rows
    a M + j n + k and columns b M + j' n + k', with n the number of modes per
    axis.

    x parts are multiplied and summed along each chart column, then against
    fy_k fy_k'; y parts along x over the slab's columns, then against
    fx_j fx_j'.  In a product of an x and a y part, fx enters the y part
    first, and the sum along each column then meets fy alone.  A y part
    comes for each parity of the longitude wavenumber j (``_chart_modes``),
    or once where both agree."""

    def __init__(self, gram: np.ndarray, fx: np.ndarray):
        n = len(fx)
        self.gram, self.fx = gram, fx
        self.g6 = gram.reshape(gram.shape[0] // n ** 2, n, n, -1, n, n)
        self.fxx = (fx[:, None] * fx[None]).reshape(-1, fx.shape[1])
        self.odd = (np.arange(n) + 1) // 2 % 2  # the parity of each x mode's wavenumber

    def _place(self, f: np.ndarray, t: np.ndarray, order: str) -> np.ndarray:
        """f t over t's first axis, in the index order ``order`` of a, j, k
        (rows) and b, J, K (columns), as (a, j, k, b, J, K)."""
        sizes = {"a": self.g6.shape[0], "b": self.g6.shape[3]}
        s = serial_matmul(f, t.reshape(len(t), -1))
        s = s.reshape([sizes.get(i, len(self.fx)) for i in order])
        return s.transpose([order.index(i) for i in "ajkbJK"])

    def add(self, fy: np.ndarray, left, right=None) -> None:
        """Add the sum over a slab's points and planes of L R^T: each of
        L and R given as (x part, y part), None for an absent part, of
        fields (width, planes, rows, modes, nx), y parts with a leading
        parity axis (even, odd) or (both,), and fy (width, modes) the slab's
        y modes.  Without ``right``, R = L and the x-y products are counted
        twice (L^T R + R^T L); with it, each of L and R has one part."""
        (lx, ly), (rx, ry) = left, right or left
        w, nx = fy.shape[0], self.fx.shape[1]

        def lines(lf, rf):  # along each column, over x and planes
            return serial_matmul(lf.reshape(lf.shape[:2] + (-1, nx)),
                                 rf.reshape(rf.shape[:2] + (-1, nx)).swapaxes(2, 3)).sum(1)

        def x_first(y):  # (nx, rows x modes, width x planes)
            return y.transpose(4, 2, 3, 0, 1).reshape(nx, -1, w * y.shape[1])

        if lx is not None and rx is not None:
            fyy = (fy[:, :, None] * fy[:, None, :]).reshape(w, -1).T
            self.g6 += self._place(fyy, lines(lx, rx), "kKajbJ")
        if ly is not None and ry is not None:
            for p, q in np.ndindex(len(ly), len(ry)):
                t = x_first(ly[p])
                t = serial_matmul(t, (t if ry is ly and p == q else x_first(ry[q])).swapaxes(1, 2))
                fxx = self.fxx
                if len(ly) > 1:  # only the x modes of each part's parity
                    fxx = fxx * np.outer(self.odd == p, self.odd == q).reshape(-1, 1)
                self.g6 += self._place(fxx, t, "jJakbK")
        if right is None and lx is not None and ly is not None:
            # (width, rows x modes of L, rows of R, J, K), one J at a time
            t = np.empty((w, lx.shape[2] * lx.shape[3]) + ly.shape[-3:-2] + (len(self.fx),) * 2)
            for j, fj in enumerate(self.fx):  # ly[0] if it serves both parities
                t[:, :, :, j] = lines(lx, ly[self.odd[j] % len(ly)] * fj).reshape(
                    t[:, :, :, j].shape)
            xy = self._place(fy.T, t, "kajbJK")
            self.g6 += xy
            self.gram += xy.reshape(self.gram.shape).T


class _ModeSlab:
    """The geometry of one slab and the span's product modes on it, x last:
    on the window (``*_w``), where stencil inputs are formed, and on the
    slab's own points.  Components against P(e_a) are lowered by the
    signature (``sig*``): <P(e_a), w> = sig_a w_a for every w tangent to the
    model space (nu, u_x, u_y, u_z).

    The modes psi_(j,k) = fx_j(x) fy_k(y) are kept as their factors:
    d/dx(psi c) = fy_k d/dx(fx_j c) and d/dy(psi c) = fx_j d/dy(fy_k c), so
    stencils act on the modes of one chart axis, which enter the stencil
    weights."""

    def __init__(self, imm: Immersion, slab, modes):
        sp, sf = imm.space, imm.second_form
        win, own = slab.window, slab.cols
        self.slab, self.sig = slab, sp.signature
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
        self.fx, fy, self.dfx, dfy, self._wx = modes
        # the y parts of both parities only where the pole flip reaches
        self.fy, self.dfy = fy[own], dfy[:2 if len(slab.flip_rows) else 1, own]
        # rows (column, k): the y stencil of the slab times fy_k on its window
        self._wy, self._wflip = ((m[:, None] * fy[win].T).reshape(-1, len(win))
                                 for m in (slab.interior, slab.flip))

    def diff_modes(self, axis: int, f: np.ndarray) -> np.ndarray:
        """d/dx(fx_j f) (axis 0) or d/dy(fy_k f) (axis 1) on the slab's
        columns of fields f (window, C, nx) sampled on its window:
        (width, C, modes, nx), with the parity axis of ``dfy`` first on
        axis 1."""
        win, C, nx = f.shape
        if axis == 0:
            own = f[self.slab.inner]
            return serial_matmul(own.reshape(-1, nx), self._wx).reshape(len(own), C, -1, nx)
        out = serial_matmul(self._wy, f.reshape(win, -1)).reshape(-1, len(self.fx), C, nx)
        res = np.empty((len(self.dfy), len(out), C, len(self.fx), nx))
        res[:] = out.transpose(0, 2, 1, 3)
        del out
        if len(res) > 1:
            # the flip reads the antipodal column, the x halves swapped
            flip = serial_matmul(self._wflip, f.reshape(win, -1)).reshape(-1, len(self.fx), C, nx)
            flip, h, rows = flip.transpose(0, 2, 1, 3), nx // 2, self.slab.flip_rows
            for half, other in ((slice(h), slice(h, None)), (slice(h, None), slice(h))):
                res[0, rows, ..., half] += flip[..., other]
                res[1, rows, ..., half] -= flip[..., other]
        return res

    def modes(self, axis: int) -> np.ndarray:
        """The modes of one axis, broadcast as (width, modes, nx)."""
        return self.fx[None] if axis == 0 else self.fy[:, :, None]

    def add_pure(self, gram: _ModeGram, axis: int, left, right) -> None:
        """``gram.add`` of quantities with an x part only (axis 0) or a y
        part only (axis 1)."""
        gram.add(self.fy, *[(p, None) if axis == 0 else (None, p) for p in (left, right)])


def _pointwise_coef(fs: _ModeSlab, kappa: float) -> np.ndarray:
    """The terms without derivatives, as symmetric (a, b) coefficient fields
    C_ab against psi psi', a <= b (doubled off the diagonal): (width,
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


def _area_modes(fs: _ModeSlab, area: _ModeGram) -> None:
    """|<nabla s, nu>|^2 and its cross terms with sigma: s = f nu with
    f = psi sig_a nu_a, so pair (a, c) differentiates sig_a psi nu_a nu_c;
    <nabla_x s, nu> = fy_k sx_(a,j) and <nabla_y s, nu> = fx_j sy_(a,k).
    Against the area weights e^{2lam} dx dy the integrand is
    e^{-2lam} |<nabla s, nu>|^2 + 2 h (alpha <nabla_x s, nu>
    + beta <nabla_y s, nu>), with (alpha, beta) = e^{-2lam} (<sigma, u_x>,
    <sigma, u_y>)."""
    a, c, table = _pair_table(len(fs.sig))
    nn = fs.nu_w[:, a] * fs.nu_w[:, c]
    for axis, ud in enumerate((fs.sigux, fs.siguy)):
        sd = (fs.diff_modes(axis, nn).take(table, axis=-3) * fs.signu[:, None, :, None]).sum(-3)
        sd *= fs.sig[:, None, None]
        r = fs.wc[:, None, None] * (sd + (2.0 * fs.h)[:, None, None] * ud[:, :, None]
                                    * fs.modes(axis)[:, None])
        fs.add_pure(area, axis, sd[..., None, :, :, :], r[..., None, :, :, :])


def _energy_modes(fs: _ModeSlab, energy: _ModeGram, kappa: float) -> None:
    """|nabla v|^2 of a curved model space: v = psi P(e_a) with
    P(e_a)_c = delta_ac - kappa sig_a p_a p_c, so nabla_i v_c is
    delta_ac d_i psi - kappa sig_a d_i(psi p_a p_c) plus the connection
    term kappa <u_i, v> p_c.  nabla_x v_c = fy_k gx_(c,a,j) and
    nabla_y v_c = fx_j gy_(c,a,k), the components c as planes."""
    d, sig = len(fs.sig), fs.sig
    a, c, table = _pair_table(d)
    pp = fs.p_w[:, a] * fs.p_w[:, c]
    diag = np.arange(d)
    wsig = (sig[:, None] * fs.wc[:, None])[:, :, None, None]
    for axis, (ui, dmodes) in enumerate(((fs.sigux, fs.dfx),
                                         (fs.siguy, fs.dfy[..., None, :, None]))):
        # (width, c, a, modes, nx): the table is symmetric
        grad = (fs.p[:, :, None] * ui[:, None])[:, :, :, None] * fs.modes(axis)[:, None, None]
        grad = grad - fs.diff_modes(axis, pp).take(table, axis=-3)
        grad *= kappa * sig[:, None, None]
        grad[..., diag, diag, :, :] += dmodes
        fs.add_pure(energy, axis, grad, wsig * grad)


def _flat_energy_modes(fs: _ModeSlab, energy_modes: _ModeGram) -> None:
    """|d psi|^2 of flat spaces: d/dx psi = fy_k d/dx fx_j and
    d/dy psi = fx_j d/dy fy_k."""
    w, nx = fs.wc.shape
    for axis, dm in enumerate((fs.dfx, fs.dfy[..., None])):
        dm = np.broadcast_to(dm, dm.shape[:-3] + (w, len(fs.fx), nx))[..., None, None, :, :]
        fs.add_pure(energy_modes, axis, dm, fs.wc[:, None, None, None] * dm)


def _pointwise_modes(fs: _ModeSlab, pointwise: _ModeGram, kappa: float) -> None:
    """``_pointwise_coef`` against psi psi' = fy_k fy_k' fx_j fx_j'."""
    ones = np.broadcast_to(fs.fx, (len(fs.fy), 1, 1) + fs.fx.shape)
    coef = _pointwise_coef(fs, kappa)[:, None, :, None] * fs.fx
    pointwise.add(fs.fy, (ones, None), (coef, None))


def _defect_modes(fs: _ModeSlab, defect: _ModeGram) -> None:
    """8 |eta|^2 with eta = alpha u_z + beta u_zbar.  sigma^{0,1}
    = 2 e^{-2lam} <v, u_z> u_zbar, so pair (a, c) differentiates sig_a psi k
    with k = 2 e^{-2lam} u_z,a u_zbar,c and (c, a) sig_c psi conj(k), and
    d/dz(psi k) = (fy_k d/dx(fx_j k) - i fx_j d/dy(fy_k k)) / 2: alpha and
    beta have an x and a y part, and beta's term -f A(u_z, u_z) joins the x
    part.  The integrand is summed as the squares |U|^2 + |V|^2 with
    U = sqrt(g) alpha + conj(q) beta / sqrt(g) and
    V = sqrt(g - |q|^2 / g) beta, times 8."""
    d, sig = len(fs.sig), fs.sig
    a, c, _ = _pair_table(d)
    kw = _planes(fs.inv2_w[:, None] * fs.uz_w[:, a] * fs.uzb_w[:, c], axis=1)
    kw = kw.reshape(len(kw), -1, kw.shape[-1])
    g = (fs.uz * sig[:, None] * fs.uzb).sum(1).real
    q = (fs.uz * sig[:, None] * fs.uz).sum(1)
    w8 = np.sqrt(8.0 * fs.wc)
    su, sq, sv = (w8 * x for x in (np.sqrt(g), q.conj() / np.sqrt(g),
                                   np.sqrt(g - (q * q.conj()).real / g)))
    # U and V of axis a: sums over c of a weight of c times d/dz(psi k) of (a, c)
    hb, hu = (sig[:, None] * x for x in (fs.uzb, fs.uz))
    weights = np.stack([su[:, None] * hb + sq[:, None] * hu, sv[:, None] * hu], axis=1)
    weights = weights[..., None, :]
    scale = (2.0 / fs.e2)[:, None, None, None] * sig[:, None, None]
    parts = []
    for axis, rot in enumerate((0.5, -0.5j)):
        dd = fs.diff_modes(axis, kw)
        if axis:
            del kw  # before the y parts take its memory
        dd = dd.reshape((-1,) + dd.shape[-4:])  # parities first, one at a time
        w, tail = dd.shape[1], dd.shape[-2:]
        uv = np.zeros((len(dd), w, 2, d) + tail, complex)
        dz, term = np.empty((w,) + tail, complex), np.empty((w, 2) + tail, complex)
        for ddp, uvp in zip(dd, uv):
            for p, (i, j) in enumerate(zip(a, c)):
                dz.real, dz.imag = ddp[:, p], ddp[:, len(a) + p]
                uvp[:, :, i] += np.multiply(weights[:, :, j], dz[:, None], out=term)
                if i != j:  # (c, a) differentiates conj(k)
                    np.conjugate(dz, out=dz)
                    uvp[:, :, j] += np.multiply(weights[:, :, i], dz[:, None], out=term)
        del dd, ddp, dz, term
        uv *= rot * scale
        if axis == 0:  # -f A(u_z, u_z) in beta
            uv = uv[0]
            uv -= ((np.stack([sq, sv], 1) * (2.0 / fs.e2 * fs.azz)[:, None])[:, :, None, None]
                   * fs.signu[:, None, :, None] * fs.fx)
        # (U, V) as planes, the (real, imaginary) parts interleaved along x
        parts.append(uv.view(float))
    defect.add(fs.fy, parts)


def grams(imm: Immersion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N x N Gram matrices of ``second_variation_area``,
    ``second_variation_energy`` and the chart defect 8 int |eta|^2 dx dy on
    the seeded span: c^T G c is the form of the span field with
    coefficients c, equal to the per-field functions up to roundoff.
    ``identity_residuals`` builds them once per call, whatever the number of
    seeds, and ``cmcindex identity`` once per surface.

    Every integrand is a sum of products of two quantities linear in the
    field, each either pointwise (f, the chart components of sigma, v) or a
    contraction of stencil derivatives (<nabla s, nu>, nabla v, eta).  On a
    product mode psi_(j,k) = fx_j(x) fy_k(y) every such quantity is
    fy_k X_(a,j) + fx_j Y_(a,k): 2m + 1 modes per point instead of their
    (2m + 1)^2 products, and each product is summed along chart lines
    before it meets the other factor (``_ModeGram``).  The work is streamed over slabs of
    ``_MODE_SLAB_WIDTH`` chart columns (``ParamGrid.slabs``) and, within a
    slab, form by form over the pairs (ambient axis a, component c): each
    stencil input is a mode times one real coefficient field, sampled on
    the slab's window only.  No array spans the grid.  Terms that vanish up
    to roundoff are left out: the connection terms along nu and u_z,
    <s, u_x> = f <nu, u_x>, and kappa <w, p> p in P(e_a) against tangent
    vectors w.

    On sphere charts the Grams over the 25 product modes are projected to
    the span, G = K^T G_25 K with K = I_d (x) T (``_sphere_projection``).
    """
    g, d, kappa = imm.grid, imm.space.dim, imm.space.curvature
    modes = _chart_modes(g)
    fx = modes[0]
    M = len(fx) ** 2
    N = d * M
    area, energy, defect = (np.zeros((N, N)) for _ in range(3))
    energy_modes = np.zeros((M, M))  # flat spaces: the same block for every axis
    a, b = np.triu_indices(d)
    # the pointwise terms of (form, pair (a, b)) against psi psi'
    Q = (2 if kappa else 1) * len(a)
    pointwise = np.zeros((M, Q * M))
    area_g, energy_g, point_g = (_ModeGram(x, fx) for x in (
        area, energy if kappa else energy_modes, pointwise))
    # the defect's complex fields come as real arrays with (real, imaginary)
    # interleaved along x, where every mode takes each value twice
    defect_g = _ModeGram(defect, np.repeat(fx, 2, axis=1))
    for slab in g.slabs(_MODE_SLAB_WIDTH):
        fs = _ModeSlab(imm, slab, modes)
        if kappa:
            _energy_modes(fs, energy_g, kappa)
        else:
            _flat_energy_modes(fs, energy_g)
        _area_modes(fs, area_g)
        _pointwise_modes(fs, point_g, kappa)
        _defect_modes(fs, defect_g)
    if not kappa:
        energy = np.kron(np.eye(d), energy_modes)
    point = pointwise.reshape(M, Q, M).transpose(0, 2, 1).reshape(M, M, -1, len(a))
    for form, gram in enumerate((area, energy) if kappa else (area,)):
        for k in range(len(a)):
            gram[a[k] * M:(a[k] + 1) * M, b[k] * M:(b[k] + 1) * M] += point[:, :, form, k]
    out = (area, energy, defect)
    if g.topology == "sphere":
        K = np.kron(np.eye(d), _sphere_projection(imm, fx, g.theta))
        out = (serial_matmul(K.T, serial_matmul(x, K)) for x in out)
    return tuple(0.5 * (x + x.T) for x in out)


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
    # one 1 x N product per row (a stack of serial BLAS calls), so a row
    # never mixes with the other rows' coefficients
    d2a, d2e, dfc = ((serial_matmul(coefs[:, None, :], gram)[:, 0] * coefs).sum(-1)
                     for gram in grams(imm))
    rows = []
    for a, e, h in zip(d2a.tolist(), d2e.tolist(), dfc.tolist()):
        resid = abs(a - e + h)
        rows.append({"d2_area": a, "d2_energy": e, "defect_chart": h,
                     "residual_abs": resid,
                     "residual_rel": resid / max(abs(a), abs(e), 1.0)})
    return rows
