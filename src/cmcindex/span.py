"""The seeded span of a surface and the Gram matrices of the comparison
identity's three forms on it.

Every seeded variation (``variations.seeded_variation``) is P(sum_a w_a e_a):
P the tangent projection, e_a the ambient axes and each w_a a seeded scalar
field, which lies in a fixed space of M scalar modes phi_m.  On tori those
are the products of 1, cos(j t), sin(j t) (j <= m) in the two chart angles,
M = (2m + 1)^2; on spheres the polynomials of degree <= 2 in the ambient
coordinates, M = 1 + d + d(d + 1)/2.  P is pointwise linear, so every seeded
variation lies in the span of the N = d M fields phi_m P(e_a), numbered
a M + m, and its coefficients there are its rng draws (``coefficients``:
the draws of the d fields of each seed, a prefix of the seed's raw stream
``variations._raw_draws`` that every surface of a seed list shares,
scaled and converted for all seeds at once).  ``seeded_variation`` takes
the seed alone, so the degree and decay read back here are the only ones
any seeded field is drawn with.

``grams`` assembles the N x N Gram matrices of ``second_variation_area``,
``second_variation_energy`` and the chart defect 8 int |eta|^2 dx dy, so
that the comparison identity of any seeded variation is three quadratic
forms c^T G c (``identity_residuals``).  One engine builds them on any set
of chart points, in chunks (``_add_chunk``): it reads the stencil jets
(value, d/dx, d/dy) of the N span fields at the chunk's points, applies the
per-point algebra of the three per-field functions to them, and adds each
form as one weighted product sum_p w_p X_p^T Y_p.

The engine runs on one orbit representative.  Each periodic chart axis
(both on tori, x on spheres) is tested for a one-step chart shift that maps
the immersion onto itself by an ambient isometry (``_chart_shift``), and
the engine reads the block of points those shifts leave: index 0 along
every symmetric axis.  The Grams of the block are then summed over the
shift's orbit along each symmetric axis in turn (``_orbit_sum``).  The
Clifford torus is symmetric along both torus axes, so its block is one
chart point; the Delaunay tori along y alone, so theirs is the chart
column y = 0; the spheres along x, so theirs is the longitude x = 0.  An
immersion without any such symmetry is assembled over the whole chart,
the trivial orbit.
``cmcindex identity`` writes every row of every surface this way; it
imports this module on demand, and the other commands never compile it.
"""

from __future__ import annotations

import numpy as np

from .spectral import _SERIAL_BLAS, SHIFT_RTOL
from .surfaces import Immersion
# the seeded draws and the chart data they are evaluated on, shared with
# ``variations.random_scalar``
from .variations import (_VARIATION_DECAY, _chart_angles, _draw_scales, _raw_draws,
                         _torus_degree)

__all__ = ["coefficients", "grams", "identity_residuals"]

# chart points per chunk of the Gram engine.  At 16, 24 and 32 the Grams of
# the five default identity surfaces took 19.5, 18.6 and 18.4 ms
# (in-process, 2 vCPUs, best of 15), and the tracemalloc peak was 0.98,
# 1.42 and 1.86 MiB on sphere_s3 at 64x48 (its test allows 2 MiB) and 1.69,
# 2.35 and 2.95 MiB for the whole-chart Grams of the Clifford torus at
# 64x64 (4 MiB).  The Clifford torus's own block is one point: 0.78 MiB at
# any chunk size
_CHUNK = 16


def _trig_modes(t: np.ndarray, m: int) -> np.ndarray:
    """1, cos t, sin t, ..., cos m t, sin m t as rows."""
    jt = np.arange(1, m + 1)[:, None] * t
    return np.concatenate([np.ones((1, len(t))),
                           np.stack([np.cos(jt), np.sin(jt)], axis=1).reshape(2 * m, len(t))])


def _span_scalars(imm: Immersion, points: np.ndarray) -> np.ndarray:
    """The scalar modes at the chart points ``points``, flat indices
    x ny + y of the grid: (len(points), M)."""
    g = imm.grid
    if g.topology == "torus":
        m = _torus_degree(g, None)
        xi, eta = _chart_angles(g)
        i, j = np.divmod(points, g.ny)
        fx, fy = _trig_modes(xi[i], m), _trig_modes(eta[j], m)
        return (fx[:, None] * fy[None]).reshape(-1, len(points)).T
    p = imm.u.reshape(-1, imm.space.dim)[points]
    a, b = np.triu_indices(imm.space.dim)
    return np.concatenate([np.ones((len(p), 1)), p, p[:, a] * p[:, b]], axis=1)


# the raw draws of the last seed list: (seeds, {torus: (len(seeds), size)
# array}), one array per draw pattern.  An array is never mutated once
# stored, only replaced with the whole pair, so callers on several threads
# read consistent draws.
_streams: tuple = ((), {})


def _seed_streams(seeds: tuple, torus: bool, size: int) -> np.ndarray:
    """The first ``size`` raw draws (``variations._raw_draws``) of
    ``default_rng(s)`` for each seed s, read-only: (len(seeds), size).

    ``cmcindex identity`` reads the same seeds on every surface, and every
    surface's draws are a prefix of its pattern's stream (torus or sphere),
    so each seed's stream is drawn once per pattern and held for the last
    seed list only.  A longer request redraws the stream from the seeds and
    replaces the held array; in the CLI's surface order the longest
    request of each pattern comes first (Clifford's 108 draws per seed
    before Delaunay's 81, sphere_h3's 84 before sphere_r3's 39)."""
    global _streams
    held, arrays = _streams
    same = held == seeds
    out = arrays.get(torus) if same else None
    if out is None or out.shape[1] < size:
        out = np.empty((len(seeds), size))
        for row, seed in zip(out, seeds):
            row[:] = _raw_draws(np.random.default_rng(seed), torus, size)
        out.flags.writeable = False
        _streams = (seeds, {**arrays, torus: out} if same else {torus: out})
    return out[:, :size]


def coefficients(imm: Immersion, seeds) -> np.ndarray:
    """Coefficients (len(seeds), N) of ``seeded_variation(imm, s)`` for each
    seed s in the span basis: the same rng draws (d fields per seed, a
    prefix of the seed's stream ``_seed_streams``), scaled as
    ``variations._scalar_draws`` scales them and read as mode coefficients,
    for all seeds at once.  A row depends only on its own seed."""
    d, n = imm.space.dim, len(seeds)
    scales = _draw_scales(imm, None, _VARIATION_DECAY)
    raw = _seed_streams(tuple(seeds), imm.grid.topology == "torus", d * scales.size)
    draws = raw.reshape((n, d) + scales.shape) * scales
    if imm.grid.topology == "torus":
        m = _torus_degree(imm.grid, None)
        # term (j, k) is amp cos(j xi + phx) cos(k eta + phy), and
        # cos(j t + phase) = cos(phase) cos(j t) - sin(phase) sin(j t)
        amp, phx, phy = np.moveaxis(draws.reshape(n, d, m + 1, m + 1, 3), -1, 0)
        cx, cy = (np.stack([np.cos(ph), -np.sin(ph)], axis=-1) for ph in (phx, phy))
        terms = amp[..., None, None] * cx[..., :, None] * cy[..., None, :]
        # (j, cos) and (j, sin) are the rows 2j - 1 and 2j of ``_trig_modes``
        # (row 0 for j = 0, which has no sine)
        keep = np.r_[0, 2:2 * m + 2]
        out = terms.transpose(0, 1, 2, 4, 3, 5).reshape(n, d, 2 * m + 2, 2 * m + 2)
        return out[:, :, keep][:, :, :, keep].reshape(n, d * len(keep) ** 2)
    # constant, linear and quadratic (a <= b) coefficients, as in _span_scalars
    a, b = np.triu_indices(d)
    draws = draws.reshape(n * d, 1 + d + d * d)
    c0, c1, c2 = draws[:, 0], draws[:, 1:d + 1], draws[:, d + 1:].reshape(-1, d, d)
    quad = np.where(a == b, c2[:, a, b], c2[:, a, b] + c2[:, b, a])
    return np.concatenate([c0[:, None], c1, quad], axis=1).reshape(n, d * (1 + d + len(a)))


def _stencil_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(columns, weights) of the nonzero entries of each row, padded to the
    longest row with weight 0."""
    nonzero = rows != 0
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :nonzero.sum(1).max()]
    return cols, np.take_along_axis(rows, cols, axis=1)


def _stencils(g, points: np.ndarray) -> list:
    """The ``"diff"`` stencils of both chart axes at the chart points
    ``points``: per axis (the points read (T, S), their weights (T, S)).
    The y stencil's flip factor reads the antipodal longitude x + pi."""
    i, j = np.divmod(points, g.ny)
    cols, wx = _stencil_rows(g.axis_stencil(0, "diff")[0][i])
    P, Q = g.axis_stencil(1, "diff")
    rows, wy = _stencil_rows(np.concatenate([P[j], Q[j]], axis=1))
    flip = rows >= g.ny
    x = np.where(flip, (i[:, None] + g.nx // 2) % g.nx, i[:, None])
    return [(cols * g.ny + j[:, None], wx), (x * g.ny + rows % g.ny, wy)]


def _add_chunk(imm: Immersion, points: np.ndarray, area: np.ndarray, energy: np.ndarray,
               defect: np.ndarray) -> None:
    """Add the chart points ``points`` to the three Grams.

    The span fields are v = phi_m P(e_a) with P(e_a)_c = delta_ac -
    kappa sig_a p_a p_c.  Each stencil derivative is d(phi_m C) for a
    coefficient field C of (a, c) (``_coefficient_fields``): the stencil
    weights times phi_m at the points read form a (modes, points) matrix
    that meets C there, so the span scalars enter the stencil weights.
    Components against P(e_a) are lowered by the signature:
    <P(e_a), w> = sig_a w_a for w tangent to the model space.  Connection
    terms are added to nabla v only: those of s and of sigma^{0,1} lie
    along p, which is orthogonal to nu, u_z and u_zbar.

    Each form is sum over the points of X^T Y, for jets X and Y (rows, N)
    of the fields at each point (``_add_form``):

    * area, against e^{2lam} dx dy: e^{-2lam} |<nabla s, nu>|^2
      + (h^2 - |A|^2 - kappa |du|^2 e^{-2lam}) f^2 + h A(sigma, sigma)
      + 2 h (alpha <nabla_x s, nu> + beta <nabla_y s, nu>), with f = <v, nu>
      and (alpha, beta) the chart components of sigma;
    * energy, against dx dy: |nabla v|^2
      - kappa (|v|^2 |du|^2 - <v, u_x>^2 - <v, u_y>^2);
    * defect, against 8 dx dy: |eta|^2 with eta = 2 e^{-2lam}
      (<d_z sigma^{0,1}, u_zbar> u_z
      + (<d_z sigma^{0,1}, u_z> - f A(u_z, u_z)) u_zbar)."""
    g, sp, sf = imm.grid, imm.space, imm.second_form
    d, kappa, sig = sp.dim, sp.curvature, sp.signature
    stencils = _stencils(g, points)
    patch, inverse = np.unique(np.concatenate([points] + [s.ravel() for s, _ in stencils]),
                               return_inverse=True)
    phi, coef = _span_scalars(imm, patch), _coefficient_fields(imm, patch)
    T, here = len(points), inverse[:len(points)]
    phi_t = phi[here]
    # d_i(phi_m C) at the points, per field C as (T, c, a M + m)
    jets = []
    for (s, w), read in zip(stencils, np.split(inverse[len(points):], [stencils[0][0].size])):
        read = read.reshape(s.shape)
        jets.append(np.matmul(coef[read].transpose(0, 2, 1), w[:, :, None] * phi[read])
                    .reshape(T, -1, d, d * phi.shape[1]))

    def at(field):
        return field.reshape((-1,) + field.shape[2:])[points]

    def along(x):  # a pointwise (T, a) times phi_m: (T, a M + m)
        return (x[:, :, None] * phi_t[:, None]).reshape(T, -1)

    e2, ux, uy, nu, uz, uzb, p = (at(x) for x in (
        imm.e2lam, imm.ux, imm.uy, imm.nu, imm.uz, imm.uzbar, imm.u))
    h, cw, a_xx, a_xy, a_yy = (at(x)[:, None] for x in (
        sf.mean_scalar, imm.chart_weights, sf.a_xx, sf.a_xy, sf.a_yy))
    gsq = e2 + (sig * uy * uy).sum(1)
    f = along(sig * nu)
    al, be = (along(sig * x / e2[:, None]) for x in (ux, uy))
    # <nabla_i s, nu>: the derivatives of s = f nu contracted with sig_c nu_c
    px, py = (((sig * nu)[:, None] @ jet[:, 1])[:, 0] for jet in jets)
    X = np.stack([px, py, f, al, be], axis=1)
    Y = np.stack([px / e2[:, None] + h * al, py / e2[:, None] + h * be,
                  (h[:, 0] ** 2 - at(sf.norm_sq) - kappa * gsq / e2)[:, None] * f,
                  h * (a_xx * al + a_xy * be + px), h * (a_xy * al + a_yy * be + py)], axis=1)
    _add_form(area, X, (cw * e2[:, None])[..., None] * Y)
    # the rows of nabla_x v and nabla_y v, and on curved spaces, against the
    # curvature term, of v, <v, u_x> and <v, u_y>
    rows, w = [jet[:, 0] for jet in jets], np.tile(sig, (T, 2))
    if kappa:
        vu = [(e2[:, None] * x)[:, None] for x in (al, be)]  # <v, u_x>, <v, u_y>
        for row, x in zip(rows, vu):
            row += kappa * p[:, :, None] * x  # kappa <u_i, v> p
        proj = coef[here, :d * d].reshape(T, d, d)  # P(e_a)_c as (c, a)
        rows += [(proj[..., None] * phi_t[:, None, None]).reshape(T, d, -1)] + vu
        w = np.concatenate([w, -kappa * gsq[:, None] * sig, np.full((T, 2), kappa)], axis=1)
    X = np.concatenate(rows, axis=1)
    _add_form(energy, X, (cw * w)[..., None] * X)
    # d_z sigma^{0,1} = (d_x - i d_y) sigma^{0,1} / 2 from the real and
    # imaginary parts of sigma^{0,1}, then eta
    (_, _, rx, ix), (_, _, ry, iy) = (jet.transpose(1, 0, 2, 3) for jet in jets)
    dz = 0.5 * ((rx + iy) + 1j * (ix - ry))
    A = (sig * uzb)[:, None] @ dz
    B = (sig * uz)[:, None] @ dz - (f * at(sf.azz)[:, None])[:, None]
    eta = (2.0 / e2)[:, None, None] * (uz[:, :, None] * A + uzb[:, :, None] * B)
    X = np.concatenate([eta.real, eta.imag], axis=1)
    _add_form(defect, X, (8.0 * cw * np.tile(sig, 2))[..., None] * X)


def _coefficient_fields(imm: Immersion, points: np.ndarray) -> np.ndarray:
    """The coefficient fields C of (a, c) whose products with the span
    scalars are stenciled, at the chart points ``points``, each as (c, a):
    P(e_a)_c, the identity on flat spaces; sig_a nu_a nu_c, so that
    phi_m C is s = f nu; and the real and imaginary parts of
    2 e^{-2lam} sig_a u_z,a u_zbar,c, so that phi_m C is sigma^{0,1} =
    2 e^{-2lam} <sigma, u_z> u_zbar.  (len(points), 4 d^2)."""
    sp = imm.space
    sig = sp.signature
    p, nu, uz, uzb = (x.reshape(-1, sp.dim)[points] for x in (imm.u, imm.nu, imm.uz, imm.uzbar))
    inv2 = 2.0 / imm.e2lam.reshape(-1)[points]
    k = inv2[:, None, None] * uzb[:, :, None] * (sig * uz)[:, None]
    return np.stack([np.eye(sp.dim) - sp.curvature * p[:, :, None] * (sig * p)[:, None],
                     nu[:, :, None] * (sig * nu)[:, None], k.real, k.imag],
                    axis=1).reshape(len(points), -1)


def _add_form(gram: np.ndarray, X: np.ndarray, Y: np.ndarray) -> None:
    """gram += sum over points p and rows r of X[p, r]^T Y[p, r], for jets
    (points, rows, N): one product."""
    gram += X.reshape(-1, X.shape[-1]).T @ Y.reshape(-1, Y.shape[-1])


def _trig_shift(m: int, delta: float) -> np.ndarray:
    """S with f_k(t + delta) = sum_k' S[k', k] f_k'(t) for the rows f of
    ``_trig_modes(t, m)``: S maps the coefficients of a trigonometric
    polynomial to those of its shift by delta."""
    out = np.eye(2 * m + 1)
    for j in range(1, m + 1):
        c, s = np.cos(j * delta), np.sin(j * delta)
        out[2 * j - 1:2 * j + 1, 2 * j - 1:2 * j + 1] = [[c, s], [-s, c]]
    return out


def _polynomial_shift(R: np.ndarray) -> np.ndarray:
    """A with phi_m(R p) = sum_m' A[m', m] phi_m'(p) for the sphere span
    scalars phi = (1, p_a, p_a p_b for a <= b): A maps the coefficients of a
    polynomial of degree 2 to those of its composition with R.  p_a p_b
    becomes sum_ij R_ai R_bj p_i p_j, whose terms i and j > i meet at
    p_i p_j."""
    d = len(R)
    i, j = np.triu_indices(d)
    quad = R[i][:, i] * R[j][:, j] + np.where(i != j, R[i][:, j] * R[j][:, i], 0.0)
    out = np.zeros((1 + d + len(i),) * 2)
    out[0, 0] = 1.0
    out[1:d + 1, 1:d + 1] = R.T
    out[d + 1:, d + 1:] = quad.T
    return out


# chart points per block of lines that ``_chart_shift`` compares at once
_SHIFT_BLOCK = 1 << 12


def _periodic_axes(g) -> tuple:
    """The chart axes a shift runs along: both on tori, x on spheres (the
    y axis of a sphere ends at the poles)."""
    return (0, 1) if g.topology == "torus" else (0,)


def _chart_shift(imm: Immersion, axis: int | None = None) -> np.ndarray | None:
    """The ambient isometry R that a one-step chart shift along ``axis``
    applies, or None.  ``axis`` is a periodic chart axis
    (``_periodic_axes``), by default the last one: y on tori, x on spheres.

    The chart lines are the lines the shift moves into each other: the
    lines x = const for a shift along x (the longitudes on spheres), the
    chart columns y = const for one along y.  R is read from the
    orthonormal frames F and F' = (u_x / |u_x|, u_y / |u_y|, nu[, u]) of
    one point on lines 0 and 1: R = F' E F^T J, with J the
    signature and E = F^T J F = diag(+-1).  It is returned if it is an
    isometry and if u, its first and second chart partials and nu on every
    line, mapped by R, equal the next line to ``spectral.SHIFT_RTOL`` of
    each field's largest entry.  The lines are compared in blocks of about
    ``_SHIFT_BLOCK`` points, so no temporary spans the grid."""
    g, sig = imm.grid, imm.space.signature
    along = _periodic_axes(g)[-1] if axis is None else axis
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
        acc = [x + power.T @ (x @ power) for x in acc]
        power = power @ power
        if bit == "1":
            acc = [x + U.T @ (y @ U) for x, y in zip(grams, acc)]
            power = power @ U
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
    contraction of stencil derivatives (<nabla s, nu>, nabla v, eta).  The
    engine forms those quantities for all N fields at once on chunks of
    ``_CHUNK`` chart points (``_add_chunk``), from the points the stencils
    read around them (a few hundred at most), so no array spans the grid.
    Terms that vanish up to roundoff are left out: the connection terms
    along nu and u_z, <s, u_x> = f <nu, u_x>, and kappa <w, p> p in P(e_a)
    against tangent vectors w.

    The points are one orbit representative.  Where a one-step chart shift
    along a periodic axis maps the immersion onto itself by an ambient
    isometry R (``_chart_shift``, tested on every periodic axis), the forms
    are invariant under it: the points m steps along the axis from a set
    with Grams G contribute (U^m)^T G U^m, with U = R^-1 (x) A the shift's
    action on the coefficients.  On tori A is S (x) I for a shift along x
    and I (x) S for one along y, with S the shift of that axis's
    trigonometric modes (``_trig_shift``); on spheres A maps the
    coefficients of the polynomial modes under p -> R p
    (``_polynomial_shift``).  The engine assembles the block of points
    with index 0 along every symmetric axis: one point on the Clifford
    torus, the chart column y = 0 on the Delaunay tori and the longitude
    x = 0 on spheres.  The stencils read the points around it, the pole
    flip the antipodal longitude.  The block's Grams are summed over the
    orbit along x, then along y, each by doubling (``_orbit_sum``).
    Without any symmetry the block is the whole chart and the orbits
    trivial.  The products run with numpy's OpenBLAS on one thread
    (``spectral._SERIAL_BLAS``), so the Grams do not depend on the BLAS
    thread count.
    """
    periodic = _periodic_axes(imm.grid)
    return _grams(imm, tuple(_chart_shift(imm, axis) if axis in periodic else None
                             for axis in (0, 1)))


def _full_grams(imm: Immersion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``grams`` over the whole chart, as for an immersion without a shift
    symmetry: the trivial orbit."""
    return _grams(imm, (None, None))


@_SERIAL_BLAS
def _grams(imm: Immersion, shifts: tuple) -> tuple[np.ndarray, ...]:
    """``grams`` over the orbits of the ambient maps ``shifts``, one per
    chart axis (None for the trivial orbit along it)."""
    g, sp = imm.grid, imm.space
    d, sig = sp.dim, sp.signature
    # the block of points the shifts leave: index 0 along each symmetric axis
    xs, ys = (np.arange(n if R is None else 1) for R, n in zip(shifts, (g.nx, g.ny)))
    points = (xs[:, None] * g.ny + ys).ravel()
    N = d * _span_scalars(imm, points[:1]).shape[1]
    out = [np.zeros((N, N)) for _ in range(3)]
    for start in range(0, len(points), _CHUNK):
        _add_chunk(imm, points[start:start + _CHUNK], *out)
    # each symmetric axis in turn spreads the Grams of the points so far
    # over their orbit along it: the block, then its x orbit, then the grid
    for axis, (R, count) in enumerate(zip(shifts, (g.nx, g.ny))):
        if R is None:
            continue
        r_inv = sig[:, None] * R.T * sig  # R^-1 = J R^T J
        if g.topology == "sphere":
            out = _orbit_sum(out, np.kron(r_inv, _polynomial_shift(R)), count)
        else:
            # the Grams' indices (a, j, k, b, J, K) with the x modes j, J and
            # the y modes k, K: U acts on the pairs (a, mode along the axis)
            # alone, so the modes along the other axis go first
            n, mode = 2 * _torus_degree(g, None) + 1, 1 + axis
            axes = (3 - mode, 6 - mode, 0, mode, 3, mode + 3)
            out = [x.reshape(d, n, n, d, n, n).transpose(axes).reshape(n * n, d * n, d * n)
                   for x in out]
            U = np.kron(r_inv, _trig_shift(n // 2, 2.0 * np.pi / count))
            out = [x.reshape(n, n, d, n, d, n).transpose(np.argsort(axes)).reshape(N, N)
                   for x in _orbit_sum(out, U, count)]
    return tuple(0.5 * (x + x.T) for x in out)


@_SERIAL_BLAS
def identity_residuals(imm: Immersion, seeds) -> list[dict]:
    """``variations.comparison_identity_residual`` of
    ``seeded_variation(imm, s)`` for each seed s, up to roundoff, from the
    span Gram matrices (without its defect_surface): the rows of ``cmcindex
    identity``.  The Grams are built once (not at all for no seeds).  Each
    row sums over its own coefficients only, so it depends only on the
    surface and its seed, not on the other seeds.

    Each form c^T G c carries roundoff relative to the row's scale
    max(|d2A|, |d2E|, 1), the scale ``tests/test_reports.py`` compares rows
    at, not to its own size, so a form that cancels against that scale has
    no relative accuracy of its own.  Against
    ``comparison_identity_residual`` at the default grids (40 seeds) the
    forms differ by up to 5e-15 of the scale from the whole chart, 9e-15
    from the chart line of a sphere or the Delaunay torus, and 5.5e-14
    from the one chart point of the Clifford torus.  The orbit sums add
    roundoff that grows with the grid: the Clifford torus's largest
    residual_rel is 3.6e-13 at 512x512."""
    seeds = list(seeds)
    if not seeds:
        return []
    coefs = coefficients(imm, seeds)
    # one 1 x N product per row (a stack of BLAS calls), so a row never
    # mixes with the other rows' coefficients
    d2a, d2e, dfc = (((coefs[:, None, :] @ gram)[:, 0] * coefs).sum(-1)
                     for gram in grams(imm))
    rows = []
    for a, e, h in zip(d2a.tolist(), d2e.tolist(), dfc.tolist()):
        resid = abs(a - e + h)
        rows.append({"d2_area": a, "d2_energy": e, "defect_chart": h,
                     "residual_abs": resid,
                     "residual_rel": resid / max(abs(a), abs(e), 1.0)})
    return rows
