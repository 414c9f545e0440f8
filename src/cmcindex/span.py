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

The engine runs on one orbit representative.  Every default identity
surface maps onto itself under a one-step chart shift that rotates the
ambient space (the spheres under x -> x + h, the tori under y -> y + h), so
the Grams are the sum over the shift's orbit of those of one chart line:
the chart column y = 0 on tori, the longitude x = 0 on spheres
(``_chart_shift``, ``_orbit_sum``).  An immersion without that symmetry is assembled over the
whole chart, the trivial orbit.
``cmcindex identity`` writes every row of every surface this way; it
imports this module on demand, and the other commands never compile it.
"""

from __future__ import annotations

import numpy as np

from . import ambient as amb
from .grids import serial_matmul
from .spectral import SHIFT_RTOL
from .surfaces import Immersion
# the seeded draws and the chart data they are evaluated on, shared with
# ``variations.random_scalar``
from .variations import _VARIATION_DECAY, _chart_angles, _scalar_draws, _torus_degree

__all__ = ["coefficients", "grams", "identity_residuals"]

# chart columns per slab of a whole-chart assembly: the stencil's
# half-width, so that where it divides the row count a sphere's pole slabs
# hold just the rows its pole flip reaches, the only ones with y parts of
# two parities.  At widths 2, 3, 4, 5, 6 and 8 the whole-chart assembly of
# the five default identity surfaces took 0.34, 0.30, 0.24, 0.22, 0.20 and
# 0.21 s (in-process, 2 vCPUs, best of 8), and the tracemalloc peak was
# 1.41, 1.57, 1.74, 2.00, 2.25 and 2.84 MiB on sphere_s3 at 64x48 (its test
# allows 2 MiB) and 1.30, 1.43, 1.57, 1.69, 1.81 and 2.19 MiB on the
# Clifford torus at 64x64
_MODE_SLAB_WIDTH = 4
# a sphere's orbit representative holds one point of each chart column, so
# its slabs are this many times wider.  At 1, 2, 4, 8 and 12 times the three
# default spheres took 0.069, 0.043, 0.034, 0.037 and 0.033 s, and the peak
# on sphere_s3 at 256x128 was 1.21, 1.20, 1.21, 1.38 and 1.90 MiB
_ORBIT_SLAB_SCALE = 4

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


def _planes(z: np.ndarray, axis: int = 0) -> np.ndarray:
    """(real, imaginary) planes of complex data as one real array: the
    Re-inner products of complex fields become real products."""
    return np.stack((z.real, z.imag), axis=axis)


def _x_last(field: np.ndarray, cols, xs=slice(None)) -> np.ndarray:
    """A field (nx, ny, ...) on the chart columns ``cols`` and the points
    ``xs`` of each, (len(cols), ..., len(xs))."""
    return np.ascontiguousarray(np.moveaxis(field[xs][:, cols], 0, -1))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _pair_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (a, c), a <= c, as two index arrays, and the (d, d) table
    of the pair of each ordered (a, c)."""
    a, c = np.triu_indices(d)
    table = np.empty((d, d), int)
    table[a, c] = table[c, a] = np.arange(len(a))
    return a, c, table


def _x_window(g, xs) -> tuple:
    """(xs, window, xs in the window, antipodes in the window) for the
    points ``xs`` of each chart column, a slice or indices: the window holds
    the points that the x stencil reads from xs and the antipodal points
    x + pi that the pole flip reads."""
    anti = (np.arange(g.nx)[xs] + g.nx // 2) % g.nx
    if isinstance(xs, slice):
        return xs, xs, xs, anti
    reach = g.axis_stencil(0, "diff")[0][xs].any(axis=0)
    reach[xs] = reach[anti] = True
    window = np.flatnonzero(reach)
    return xs, window, np.searchsorted(window, xs), np.searchsorted(window, anti)


def _chart_modes(g, points) -> tuple[np.ndarray, ...]:
    """The product modes' factors on the points of ``_x_window``: fx on the
    own points xs of each chart column (n, len(xs)), fy (ny, n), d/dx fx_j
    on xs, d/dy fy_k for even and odd longitude wavenumber (2, ny, n), fx
    on the x window, and the rows xs of the x stencil on the window,
    transposed (window, len(xs)).  fx and, on tori, fy are the rows of
    ``_trig_modes``; on spheres fy holds the colatitude factors of
    ``_POLE_ORDER``.

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
    xs, window = points[:2]
    dx = g.axis_stencil(0, "diff")[0][xs]
    P, Q = g.axis_stencil(1, "diff")
    dfy = serial_matmul(P, fy) + np.array([1.0, -1.0])[:, None, None] * serial_matmul(Q, fy)
    return fx[:, xs], fy, serial_matmul(fx, dx.T), dfy, fx[:, window], dx[:, window].T


def _sphere_projection(imm: Immersion) -> np.ndarray:
    """T (n^2, M) with phi_m = sum_(j,k) T[j n + k, m] fx_j fy_k on a sphere
    chart, fx the longitude modes 1, cos, sin, cos 2, sin 2 and fy the
    colatitude factors of ``_chart_modes``.

    The longitude modes are orthogonal on the uniform x nodes.  The
    colatitude profile of longitude wavenumber j vanishes at the poles to
    order j and has its parity, as F(x, -theta) = F(x + pi, theta).  It is
    fitted in 1, cos, sin, cos 2, sin 2, whose cosines and whose sines are
    orthogonal on the midpoint nodes, and written in the factors that vanish
    to order j.  So T weights only products smooth at the poles, whose
    Gram entries are of the span's size, and no product such as cos 2x
    alone, whose |grad|^2 grows like 1 / sin^2 theta.  The span scalars are
    read ``_MODE_SLAB_WIDTH`` rows at a time."""
    g = imm.grid
    fx = _trig_modes(g.x, 2)
    n, trig = len(fx), _trig_modes(g.theta, 2).T
    per_x = np.concatenate([serial_matmul(_span_scalars(imm, slice(j, j + _MODE_SLAB_WIDTH)), fx.T)
                            for j in range(0, g.ny, _MODE_SLAB_WIDTH)])
    per_x /= (fx * fx).sum(1)  # (ny, M, j)
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
    slab's own points.  In each chart column the window takes the x window
    of ``points`` (``_x_window``), the own points its points xs.
    Components against P(e_a) are lowered by the signature (``sig*``):
    <P(e_a), w> = sig_a w_a for every w tangent to the model space (nu, u_x,
    u_y, u_z).

    The modes psi_(j,k) = fx_j(x) fy_k(y) are kept as their factors:
    d/dx(psi c) = fy_k d/dx(fx_j c) and d/dy(psi c) = fx_j d/dy(fy_k c), so
    stencils act on the modes of one chart axis, which enter the stencil
    weights."""

    def __init__(self, imm: Immersion, slab, modes, points):
        sp, sf = imm.space, imm.second_form
        win, own = slab.window, slab.cols
        xs, xwin, self.own_x, self.anti = points
        self.slab, self.sig = slab, sp.signature
        self.nu_w, self.p_w, self.uz_w, self.uzb_w = (
            _x_last(x, win, xwin) for x in (imm.nu, imm.u, imm.uz, imm.uzbar))
        self.inv2_w = 2.0 / _x_last(imm.e2lam, win, xwin)
        self.p, self.uz, self.uzb = (x[slab.inner][..., self.own_x]
                                     for x in (self.p_w, self.uz_w, self.uzb_w))
        self.signu, self.sigux, self.siguy = (self.sig[:, None] * _x_last(x, own, xs)
                                              for x in (imm.nu, imm.ux, imm.uy))
        self.e2, self.h, self.wc, self.norm_sq, self.azz = (_x_last(x, own, xs) for x in (
            imm.e2lam, sf.mean_scalar, imm.chart_weights, sf.norm_sq, sf.azz))
        self.a_xx, self.a_xy, self.a_yy = (_x_last(x, own, xs)
                                           for x in (sf.a_xx, sf.a_xy, sf.a_yy))
        ux, uy = imm.ux[xs][:, own], imm.uy[xs][:, own]
        self.gsq = _x_last(amb.inner(sp, ux, ux) + amb.inner(sp, uy, uy), slice(None))
        self.fx, fy, self.dfx, dfy, self._fx_line, self._dx = modes
        # the y parts of both parities only where the pole flip reaches
        self.fy, self.dfy = fy[own], dfy[:2 if len(slab.flip_rows) else 1, own]
        # rows (column, k): the y stencil of the slab times fy_k on its window
        self._wy, self._wflip = ((m[:, None] * fy[win].T).reshape(-1, len(win))
                                 for m in (slab.interior, slab.flip))

    def diff_modes(self, axis: int, f: np.ndarray) -> np.ndarray:
        """d/dx(fx_j f) (axis 0) or d/dy(fy_k f) (axis 1) on the slab's own
        points of fields f (window, C, x window) sampled on its window:
        (width, C, modes, len(xs)), with the parity axis of ``dfy`` first on
        axis 1."""
        win, C, nxw = f.shape
        n, nxs = self.fx.shape
        if axis == 0:
            own = f[self.slab.inner, :, None] * self._fx_line
            return serial_matmul(own.reshape(-1, nxw), self._dx).reshape(len(own), C, n, nxs)
        out = serial_matmul(self._wy, f[..., self.own_x].reshape(win, -1)).reshape(-1, n, C, nxs)
        res = np.empty((len(self.dfy), len(out), C, n, nxs))
        res[:] = out.transpose(0, 2, 1, 3)
        del out
        if len(res) > 1:
            # the flip reads the antipodal points
            flip = serial_matmul(self._wflip, f[..., self.anti].reshape(win, -1))
            flip, rows = flip.reshape(-1, n, C, nxs).transpose(0, 2, 1, 3), self.slab.flip_rows
            res[0, rows] += flip
            res[1, rows] -= flip
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


def _trig_shift(m: int, delta: float) -> np.ndarray:
    """S with f_k(t + delta) = sum_k' S[k', k] f_k'(t) for the rows f of
    ``_trig_modes(t, m)``: S maps the coefficients of a trigonometric
    polynomial to those of its shift by delta."""
    out = np.eye(2 * m + 1)
    for j in range(1, m + 1):
        c, s = np.cos(j * delta), np.sin(j * delta)
        out[2 * j - 1:2 * j + 1, 2 * j - 1:2 * j + 1] = [[c, s], [-s, c]]
    return out


# chart points per block of lines that ``_chart_shift`` compares at once
_SHIFT_BLOCK = 1 << 12


def _chart_shift(imm: Immersion) -> np.ndarray | None:
    """The ambient isometry R that a one-step chart shift applies, or None.

    The shift runs along y on tori and along x on spheres, and the chart
    lines are the lines it moves into each other: the chart columns
    y = const on tori and the longitudes x = const on spheres.  R is read
    from the orthonormal frames F and F' = (u_x / |u_x|, u_y / |u_y|,
    nu[, u]) of one point on lines 0 and 1: R = F' E F^T J, with J the
    signature and E = F^T J F = diag(+-1).  It is returned if it is an
    isometry and if u, its first and second chart partials and nu on every
    line, mapped by R, equal the next line to ``spectral.SHIFT_RTOL`` of
    each field's largest entry.  The lines are compared in blocks of about
    ``_SHIFT_BLOCK`` points, so no temporary spans the grid."""
    g, sig = imm.grid, imm.space.signature
    along = 1 if g.topology == "torus" else 0
    fields = [np.moveaxis(f, along, 0) for f in (
        imm.u, imm.ux, imm.uy, imm.uxx, imm.uxy, imm.uyy, imm.nu)]
    lines, length = fields[0].shape[:2]
    u, ux, uy, *_, nu = fields
    frames = []
    for line in (0, 1):
        F = np.stack([x[line, length // 2] for x in (ux, uy, nu, u)[:len(sig)]], axis=1)
        norm_sq = (sig[:, None] * F * F).sum(0)
        frames.append((F / np.sqrt(np.abs(norm_sq)), np.sign(norm_sq)))
    (F, E), (F1, _) = frames
    R = F1 @ (E[:, None] * F.T) * sig
    if not np.abs(R.T @ (sig[:, None] * R) - np.diag(sig)).max() <= SHIFT_RTOL:
        return None
    step = max(1, _SHIFT_BLOCK // length)
    for f in fields:
        worst = scale = 0.0
        for m in range(0, lines, step):
            here = f[m:m + step]
            there = f[np.arange(m + 1, m + 1 + len(here)) % lines]
            worst = max(worst, np.abs(there - here @ R.T).max())
            scale = max(scale, np.abs(here).max())
        if not worst <= SHIFT_RTOL * scale:
            return None
    return R


def _orbit_sum(grams: list, U: np.ndarray, count: int) -> list:
    """sum over m < count of (U^m)^T G U^m for each G of ``grams`` (or each
    matrix of a stack), by doubling: from the sum A_k over the first k lines
    and U^k, A_2k = A_k + (U^k)^T A_k U^k and A_(2k+1) = G + U^T A_2k U."""
    acc, power = list(grams), U
    for bit in bin(count)[3:]:
        acc = [x + serial_matmul(power.T, serial_matmul(x, power)) for x in acc]
        power = serial_matmul(power, power)
        if bit == "1":
            acc = [x + serial_matmul(U.T, serial_matmul(y, U)) for x, y in zip(grams, acc)]
            power = serial_matmul(power, U)
    return acc


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
    before it meets the other factor (``_ModeGram``).  The work is streamed
    over slabs of chart columns (``ParamGrid.slabs``) and, within a slab,
    form by form over the pairs (ambient axis a, component c): each stencil
    input is a mode times one real coefficient field, sampled on the slab's
    window only.  No array spans the grid.  Terms that vanish up to roundoff
    are left out: the connection terms along nu and u_z, <s, u_x> = f <nu,
    u_x>, and kappa <w, p> p in P(e_a) against tangent vectors w.

    The slabs cover one orbit representative.  Where a one-step chart shift
    maps the immersion onto itself by an ambient isometry R
    (``_chart_shift``: every default identity surface), the forms are
    invariant under it, so chart line m contributes (U^m)^T G_0 U^m, with
    G_0 the Grams of line 0 and U = R^-1 (x) S the shift's action on the
    coefficients: S shifts the trigonometric modes of the shifted axis
    (``_trig_shift``) and leaves those of the other axis.  Line 0 is the
    chart column y = 0 on tori (a slab of one column) and the longitude
    x = 0 on spheres, one point of every column, still slabbed along y; the
    stencils read the lines around it, the pole flip the antipodal
    longitude.  The orbit is summed by doubling (``_orbit_sum``).  Without
    the symmetry the representative is the whole chart, in slabs of
    ``_MODE_SLAB_WIDTH`` columns, and the orbit trivial.

    On sphere charts the Grams over the 25 product modes are projected to
    the span, G = K^T G_25 K with K = I_d (x) T (``_sphere_projection``).
    """
    return _grams(imm, _chart_shift(imm))


def _full_grams(imm: Immersion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``grams`` over the whole chart, as for an immersion without the shift
    symmetry: the trivial orbit."""
    return _grams(imm, None)


def _grams(imm: Immersion, shift: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """``grams`` over the orbit of the ambient map ``shift`` (None for the
    trivial orbit)."""
    g, d, kappa = imm.grid, imm.space.dim, imm.space.curvature
    if shift is None:
        points, slabs = _x_window(g, slice(None)), g.slabs(_MODE_SLAB_WIDTH)
    elif g.topology == "torus":
        points, slabs = _x_window(g, slice(None)), g.slabs(1)[:1]
    else:
        points, slabs = _x_window(g, [0]), g.slabs(_ORBIT_SLAB_SCALE * _MODE_SLAB_WIDTH)
    modes = _chart_modes(g, points)
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
    for slab in slabs:
        fs = _ModeSlab(imm, slab, modes, points)
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
    out = [area, energy, defect]
    if shift is not None:
        sig, n = imm.space.signature, len(fx)
        # the Grams' indices (a, j, k, b, J, K) with the modes of the
        # unshifted axis first: U acts on the pairs (a, shifted mode) alone
        if g.topology == "torus":
            lines, step, axes = g.ny, 2.0 * np.pi / g.ny, (1, 4, 0, 2, 3, 5)
        else:
            lines, step, axes = g.nx, g.hx, (2, 5, 0, 1, 3, 4)
        out = [x.reshape(d, n, n, d, n, n).transpose(axes).reshape(n * n, d * n, d * n)
               for x in out]
        # R^-1 = J R^T J
        U = np.kron(sig[:, None] * shift.T * sig, _trig_shift(n // 2, step))
        out = [x.reshape(n, n, d, n, d, n).transpose(np.argsort(axes)).reshape(N, N)
               for x in _orbit_sum(out, U, lines)]
    if g.topology == "sphere":
        K = np.kron(np.eye(d), _sphere_projection(imm))
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
