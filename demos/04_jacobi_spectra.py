"""Jacobi spectra, Morse index, nullity and the weak (volume-constrained) index.

The Jacobi operator of the constrained area functional is
L = -Delta - (|A|^2 + Ric_N(nu, nu)) acting on scalar normal speeds.  Its
negative eigenvalues count independent area-decreasing deformations; the
kernel carries the geometric symmetries.  Restricting to mean-zero speeds
(volume-preserving deformations) can drop the index by at most one.
"""

import numpy as np

from cmcindex import build_surface, spectral as sp

CASES = [
    ("sphere_r3", {"resolution": (64, 32)},
     "closed form (l(l+1) - 2)/rho^2: index 1 (l=0), nullity 3 (l=1)"),
    ("sphere_h3", {"radius": 0.8, "resolution": (64, 32)},
     "closed form (l(l+1) - 2)/sinh^2(rho): index + nullity = 4"),
    ("clifford_torus", {"resolution": (48, 48)},
     "lattice 2(j^2+k^2) - 4: index 5, nullity 4"),
    ("delaunay_t3", {"k": 2, "resolution": (64, 32)},
     "two-lobed Delaunay torus: index >= 2k - 2 = 2"),
]

for name, kw, blurb in CASES:
    imm = build_surface(name, **kw)
    op = sp.assemble_jacobi(imm)
    res = sp.eigensolve(op, 10, want_vectors=False)
    i, n = sp.index_nullity(res)
    iw = sp.weak_index(op)
    print(f"{imm.name}   [{blurb}]")
    print(f"  lowest eigenvalues: {np.array2string(res.eigenvalues, precision=5)}")
    print(f"  index {i}, nullity {n} (eps_null {res.eps_null:.2e}), "
          f"weak index {iw} in [{i - 1}, {i}]\n")

print("Scalar Laplace-Beltrami ground truth on the unit sphere (l(l+1)):")
imm = build_surface("sphere_r3", resolution=(64, 32))
lb = sp.eigensolve(sp.assemble_laplace(imm), 9, want_vectors=False)
print(f"  computed: {np.array2string(lb.eigenvalues, precision=6)}")
print(f"  exact:    [0, 2, 2, 2, 6, 6, 6, 6, 6]")
ht = sp.heat_trace(lb, 0.5)
# count at 9, between the l = 2 (6) and l = 3 (12) clusters: the discrete
# l = 2 cluster straddles 6 in its last digits, so a count at 6 is unstable
print(f"\nheat trace h(0.5) = {ht.value:.6f}; "
      f"#(lambda <= 9) = {sp.counting(lb, 9.0)} (exact 1 + 3 + 5 = 9) "
      f"<= e^(9t) h(t) = {np.exp(9 * 0.5) * ht.value:.2f}")
