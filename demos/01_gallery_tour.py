"""Tour of the analytic CMC gallery.

Builds each gallery member, then checks the sampled geometry against the
closed-form reference data: conformality of the chart, the declared constant
mean curvature, |A|^2, and the exact area.
"""

import numpy as np

from cmcindex import build_surface, surfaces as sf

MEMBERS = [
    ("sphere_r3", {"radius": 1.0}),
    ("sphere_s3", {"radius": 0.9}),
    ("sphere_h3", {"radius": 0.8}),
    ("clifford_torus", {}),
    ("delaunay_t3", {"k": 2, "neck": 0.55}),
]

print(f"{'surface':34s} {'conformality':>12s} {'cmc resid':>10s} "
      f"{'area':>12s} {'area exact':>12s} {'h':>9s}")
for name, params in MEMBERS:
    imm = build_surface(name, **params)
    a = sf.area(imm)
    exact = imm.reference.get("area_exact", float("nan"))
    print(f"{imm.name:34s} {sf.conformality_residual(imm):12.2e} "
          f"{sf.cmc_residual(imm):10.2e} {a:12.8f} {exact:12.8f} "
          f"{imm.cmc_value:9.4f}")

print()
print("Second fundamental form on the unit sphere in R^3 (umbilic):")
imm = build_surface("sphere_r3", radius=1.0)
sec = imm.second_form
print(f"  max |A(u_z,u_z)| = {np.abs(sec.azz).max():.2e}   (0 for umbilic)")
print(f"  |A|^2 = {sec.norm_sq.mean():.12f}               (exact 2)")
print(f"  tr A  = {sec.mean_scalar.mean():.12f}               (exact 2)")

print()
print("Gauss equation |A|^2 = |H|^2 + 2 kappa^N - 2 K^Sigma, pointwise residual:")
for name, params in MEMBERS[:4]:
    imm = build_surface(name, **params)
    K = sf.gauss_curvature(imm)
    resid = imm.second_form.norm_sq - (imm.second_form.mean_scalar ** 2
                                       + 2 * imm.space.curvature - 2 * K)
    print(f"  {imm.name:34s} {np.abs(resid).max():.2e}")
