"""The span Gram matrices of ``span.grams`` on torus charts.

There each span scalar is a product phi_(j,k) = fx_j(x) fy_k(y) of
1, cos, sin of the two chart angles (``span._span_scalars``), so
d/dx(phi c) = fy_k d/dx(fx_j c) and d/dy(phi c) = fx_j d/dy(fy_k c) for any
coefficient field c.  Every quantity linear in the field that the Gram
integrands multiply is then fy_k X_(a,j) + fx_j Y_(a,k): the stencils act
on the 2m + 1 modes of one chart axis, and each product is summed along
chart lines before it meets the modes of the other axis (``_ModeGram``).
The terms, their pairs (a, c) and the slabs of chart columns are those of
the slab assembly in ``span``, which stays the reference; the two agree up
to roundoff.  ``span.grams`` imports this module on demand.
"""

from __future__ import annotations

import numpy as np

from .grids import serial_matmul
from .span import _pairs, _planes, _pointwise_coef, _SlabFields, _trig_modes
from .surfaces import Immersion
from .variations import _chart_angles, _torus_degree

__all__ = ["assemble"]

# chart columns per slab of ``assemble``: on the two default identity tori
# 6 and 8 took the same time within the machine's noise and 4 about 15 %
# more; the tracemalloc peak on the Clifford torus at 64x64 is 2.3 MiB for 6
# (2.0 MiB for 4, 2.7 MiB for 8, 3.6 MiB for 12), and the peak RSS of
# ``cmcindex identity`` showed no trend over widths 2 to 8
_MODE_SLAB_WIDTH = 6


def _pair_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (a, c) of ``_pairs`` as two index arrays, and the (d, d) table of
    the pair of each ordered (a, c)."""
    a, c = np.array([(a, c) for a, c, _ in _pairs(d)]).T
    table = np.empty((d, d), int)
    table[a, c] = table[c, a] = np.arange(len(a))
    return a, c, table


class _ModeGram:
    """A Gram on a torus chart, summed slab by slab from span quantities
    L = fy_k lx_(a,j) + fx_j ly_(a,k) and R alike (``add``), at rows
    a M + j n + k and columns b M + j' n + k', with n the number of modes per
    axis.

    x parts are multiplied and summed along each chart column, then against
    fy_k fy_k'; y parts along x over the slab's columns, then against
    fx_j fx_j'.  In a product of an x and a y part, fx enters the y part
    first, and the sum along each column then meets fy alone."""

    def __init__(self, gram: np.ndarray, fx: np.ndarray):
        n = len(fx)
        self.gram, self.fx = gram, fx
        self.g6 = gram.reshape(gram.shape[0] // n ** 2, n, n, -1, n, n)
        self.fxx = (fx[:, None] * fx[None]).reshape(-1, fx.shape[1])

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
        fields (width, planes, rows, modes, nx), and fy (width, modes) the
        slab's y modes.  Without ``right``, R = L and the x-y products are
        counted twice (L^T R + R^T L); with it, each of L and R has one
        part."""
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
            t = x_first(ly)
            t = serial_matmul(t, (t if right is None else x_first(ry)).swapaxes(1, 2))
            self.g6 += self._place(self.fxx, t, "jJakbK")
        if right is None and lx is not None and ly is not None:
            # (width, rows x modes of L, rows of R, J, K), one J at a time
            t = np.empty((w, lx.shape[2] * lx.shape[3]) + ly.shape[2:3] + (len(self.fx),) * 2)
            for j, fj in enumerate(self.fx):
                t[:, :, :, j] = lines(lx, ly * fj).reshape(t[:, :, :, j].shape)
            xy = self._place(fy.T, t, "kajbJK")
            self.g6 += xy
            self.gram += xy.reshape(self.gram.shape).T


class _ModeSlab(_SlabFields):
    """A torus slab with phi_(j,k) kept as its factors fx_j(x) fy_k(y):
    d/dx(phi c) = fy_k d/dx(fx_j c) and d/dy(phi c) = fx_j d/dy(fy_k c), so
    stencils act on the modes of one chart axis, which enter the stencil
    weights."""

    def __init__(self, imm: Immersion, slab, modes):
        super().__init__(imm, slab)
        self.fx, fy, self.dfx, dfy, self._wx = modes
        self.fy, self.dfy = fy[slab.cols], dfy[slab.cols]
        # rows (column, k): the y stencil of the slab times fy_k on its window
        self._wy = (slab.interior[:, None] * fy[slab.window].T).reshape(-1, len(slab.window))

    def diff_modes(self, axis: int, f: np.ndarray) -> np.ndarray:
        """d/dx(fx_j f) (axis 0) or d/dy(fy_k f) (axis 1) on the slab's
        columns of fields f (window, C, nx) sampled on its window:
        (width, C, modes, nx)."""
        win, C, nx = f.shape
        if axis == 0:
            own = f[self.slab.inner]
            return serial_matmul(own.reshape(-1, nx), self._wx).reshape(len(own), C, -1, nx)
        out = serial_matmul(self._wy, f.reshape(win, -1))
        return np.ascontiguousarray(out.reshape(-1, len(self.fx), C, nx).transpose(0, 2, 1, 3))

    def modes(self, axis: int) -> np.ndarray:
        """The modes of one axis, broadcast as (width, modes, nx)."""
        return self.fx[None] if axis == 0 else self.fy[:, :, None]

    def add_pure(self, gram: _ModeGram, axis: int, left, right) -> None:
        """``gram.add`` of quantities with an x part only (axis 0) or a y
        part only (axis 1)."""
        gram.add(self.fy, *[(p, None) if axis == 0 else (None, p) for p in (left, right)])


def _area_modes(fs: _ModeSlab, area: _ModeGram) -> None:
    """``_area_terms`` on mode factors: <nabla_x s, nu> = fy_k sx_(a,j) and
    <nabla_y s, nu> = fx_j sy_(a,k)."""
    a, c, table = _pair_table(len(fs.sig))
    nn = fs.nu_w[:, a] * fs.nu_w[:, c]
    for axis, ud in enumerate((fs.sigux, fs.siguy)):
        sd = (fs.diff_modes(axis, nn).take(table, axis=1) * fs.signu[:, None, :, None]).sum(2)
        sd *= fs.sig[:, None, None]
        r = fs.wc[:, None, None] * (sd + (2.0 * fs.h)[:, None, None] * ud[:, :, None]
                                    * fs.modes(axis)[:, None])
        fs.add_pure(area, axis, sd[:, None], r[:, None])


def _energy_modes(fs: _ModeSlab, energy: _ModeGram, kappa: float) -> None:
    """``_energy_terms`` on mode factors: nabla_x v_c = fy_k gx_(c,a,j) and
    nabla_y v_c = fx_j gy_(c,a,k), the components c as planes."""
    d, sig = len(fs.sig), fs.sig
    a, c, table = _pair_table(d)
    pp = fs.p_w[:, a] * fs.p_w[:, c]
    diag = np.arange(d)
    wsig = (sig[:, None] * fs.wc[:, None])[:, :, None, None]
    for axis, (ui, dmodes) in enumerate(((fs.sigux, fs.dfx),
                                         (fs.siguy, fs.dfy[:, None, :, None]))):
        # (width, c, a, modes, nx): the table is symmetric
        grad = (fs.p[:, :, None] * ui[:, None])[:, :, :, None] * fs.modes(axis)[:, None, None]
        grad -= fs.diff_modes(axis, pp).take(table, axis=1)
        grad *= kappa * sig[:, None, None]
        grad[:, diag, diag] += dmodes
        fs.add_pure(energy, axis, grad, wsig * grad)


def _flat_energy_modes(fs: _ModeSlab, energy_modes: _ModeGram) -> None:
    """|d phi|^2 of flat spaces: d/dx phi = fy_k d/dx fx_j and
    d/dy phi = fx_j d/dy fy_k."""
    w, nx = fs.wc.shape
    for axis, dm in enumerate((fs.dfx, fs.dfy[:, :, None])):
        dm = np.broadcast_to(dm, (w, len(fs.fx), nx))[:, None, None]
        fs.add_pure(energy_modes, axis, dm, fs.wc[:, None, None, None] * dm)


def _pointwise_modes(fs: _ModeSlab, pointwise: _ModeGram, kappa: float) -> None:
    """``_pointwise_coef`` against phi_m phi_n = fy_k fy_k' fx_j fx_j'."""
    ones = np.broadcast_to(fs.fx, (len(fs.fy), 1, 1) + fs.fx.shape)
    coef = _pointwise_coef(fs, kappa)[:, None, :, None] * fs.fx
    pointwise.add(fs.fy, (ones, None), (coef, None))


def _defect_modes(fs: _ModeSlab, defect: _ModeGram) -> None:
    """``_defect_terms`` on mode factors: d/dz(phi k) = (fy_k d/dx(fx_j k)
    - i fx_j d/dy(fy_k k)) / 2, so alpha and beta have an x and a y part,
    and beta's term f A(u_z, u_z) joins the x part.  The integrand is
    summed as the squares |U|^2 + |V|^2 with U = sqrt(g) alpha
    + conj(q) beta / sqrt(g) and V = sqrt(g - |q|^2 / g) beta, times 8."""
    d, sig = len(fs.sig), fs.sig
    a, c, _ = _pair_table(d)
    kw = _planes(fs.inv2_w[:, None] * fs.uz_w[:, a] * fs.uzb_w[:, c], axis=1)
    kw = kw.reshape(len(kw), -1, kw.shape[-1])
    g = (fs.uz * sig[:, None] * fs.uzb).sum(1).real
    q = (fs.uz * sig[:, None] * fs.uz).sum(1)
    w8 = np.sqrt(8.0 * fs.wc)
    su, sq, sv = (w8 * x for x in (np.sqrt(g), q.conj() / np.sqrt(g),
                                   np.sqrt(g - (q * q.conj()).real / g)))
    # U and V of axis a: sums over c of a weight of c times d/dz(phi k) of (a, c)
    hb, hu = (sig[:, None] * x for x in (fs.uzb, fs.uz))
    weights = np.stack([su[:, None] * hb + sq[:, None] * hu, sv[:, None] * hu], axis=1)
    weights = weights[..., None, :]
    scale = (2.0 / fs.e2)[:, None, None, None] * sig[:, None, None]
    parts = []
    for axis, rot in enumerate((0.5, -0.5j)):
        dd = fs.diff_modes(axis, kw)
        uv = np.zeros((len(dd), 2, d) + dd.shape[2:], complex)
        for p, (i, j) in enumerate(zip(a, c)):
            dz = dd[:, p] + 1j * dd[:, len(a) + p]
            uv[:, :, i] += weights[:, :, j] * dz[:, None]
            if i != j:  # (c, a) differentiates conj(k)
                uv[:, :, j] += weights[:, :, i] * dz.conj()[:, None]
        del dd
        uv *= rot * scale
        if axis == 0:  # -f A(u_z, u_z) in beta
            uv -= ((np.stack([sq, sv], 1) * (2.0 / fs.e2 * fs.azz)[:, None])[:, :, None, None]
                   * fs.signu[:, None, :, None] * fs.fx)
        # (U, V) as planes, the (real, imaginary) parts interleaved along x
        parts.append(uv.view(float))
    defect.add(fs.fy, parts)


def assemble(imm: Immersion, area, energy, energy_modes, defect, point) -> None:
    """The slab terms of ``span.grams`` on a torus chart from the mode factors
    of phi_(j,k) = fx_j(x) fy_k(y) (``_ModeSlab``), ``_MODE_SLAB_WIDTH``
    chart columns at a time."""
    g, kappa = imm.grid, imm.space.curvature
    m = _torus_degree(g, None)
    xi, eta = _chart_angles(g)
    fx, fy = _trig_modes(xi, m), _trig_modes(eta, m).T
    # d/dx(fx_j f) = f wx, wx[x', (j, x)] = D[x, x'] fx_j(x') for the x stencil D
    wx = (g.axis_stencil(0, "diff")[0].T[:, None] * fx.T[:, :, None]).reshape(g.nx, -1)
    modes = (fx, fy, wx.sum(0).reshape(fx.shape),
             serial_matmul(g.axis_stencil(1, "diff")[0], fy), wx)
    M, Q = point.shape[0], point.shape[2]
    pointwise = np.zeros((M, Q * M))
    area, energy, pointwise_g = (_ModeGram(x, fx) for x in (
        area, energy if kappa else energy_modes, pointwise))
    # the defect's complex fields come as real arrays with (real, imaginary)
    # interleaved along x, where every mode takes each value twice
    defect = _ModeGram(defect, np.repeat(fx, 2, axis=1))
    for slab in g.slabs(_MODE_SLAB_WIDTH):
        fs = _ModeSlab(imm, slab, modes)
        if kappa:
            _energy_modes(fs, energy, kappa)
        else:
            _flat_energy_modes(fs, energy)
        _area_modes(fs, area)
        _pointwise_modes(fs, pointwise_g, kappa)
        _defect_modes(fs, defect)
    point += pointwise.reshape(M, Q, M).transpose(0, 2, 1)
