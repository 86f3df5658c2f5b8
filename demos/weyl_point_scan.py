"""Detect and classify Weyl points of a three-parameter Hamiltonian.

A twofold degeneracy in a 3-parameter family is a Weyl point when the
effective map h: R^3 -> R^3 (the transverse coordinates of the degeneracy
manifold, pulled back through the family) has a full-rank Jacobian there.
Full rank makes the point isolated, stable under perturbations, and gives it
a topological charge: the sign of the Jacobian determinant.
"""

import numpy as np

from degengeo import (
    classify_point,
    effective_map,
    first_order_effective_map,
    jacobian,
    param_family,
    polynomial_family,
    scan_grid,
)
from degengeo.models import WEYL_EXAMPLE_TERMS, example_pr

# The model as polynomial coefficients {(a, b, c): C}, H = sum x^a y^b z^c C,
# so the scan builds each chunk of grid matrices in one broadcast. Once the
# grid has two or more chunks, this thread and one worker each build a chunk
# in turn and solve it while the other builds the next. An evaluator family
# (`param_family`) would be called the same way: on either thread, one call
# at a time, at the grid points in C order.
fam = polynomial_family(WEYL_EXAMPLE_TERMS)

print("model with H(0) = diag(0, 0, 1) and window block "
      "x sx + y sy + z sz:\n")
rep = classify_point(fam, np.zeros(3))
print(f"origin: {rep.classification}, charge {rep.charge:+d}, "
      f"Jacobian rank {rep.rank}")
jac = jacobian(first_order_effective_map(fam, np.zeros(3)), np.zeros(3))
print(f"first-order Jacobian (should be sqrt(2) * I):\n{np.round(jac, 8)}\n")

print("scanning the box [-0.5, 0.5]^3 at resolution 11 ...")
for rep in scan_grid(fam, [(-0.5, 0.5)] * 3, 11):
    print(f"  found {rep.classification} at {np.round(rep.p, 8)}, "
          f"charge {rep.charge:+d}")

print("\nperturb the family by a constant 0.05 * sx on the window: the")
print("point must survive and move, keeping its charge.")
k_mat = np.zeros((3, 3), dtype=complex)
k_mat[0, 1] = k_mat[1, 0] = 0.05
fam_pert = polynomial_family({
    **WEYL_EXAMPLE_TERMS, (0, 0, 0): WEYL_EXAMPLE_TERMS[(0, 0, 0)] + k_mat})
for rep in scan_grid(fam_pert, [(-0.5, 0.5)] * 3, 11):
    print(f"  found {rep.classification} at {np.round(rep.p, 6)}, "
          f"charge {rep.charge:+d}")

print("\ncounterexample: a degeneracy that is NOT a Weyl point. The")
print("two-parameter coupling family (embedded with an inert third axis)")
print("splits quadratically in every direction, so its Jacobian vanishes:")
fam_pr = param_family(lambda p: example_pr(p[0], p[1]), 3)
rep = classify_point(fam_pr, np.zeros(3))
print(f"  origin: {rep.classification}, rank {rep.rank}")
h = effective_map(fam_pr, np.zeros(3))
for radius in (0.1, 0.05, 0.025):
    print(f"  ||h|| at distance {radius:5.3f} along (1,1)/sqrt(2): "
          f"{np.linalg.norm(h(np.array([radius, radius, 0.0]) / np.sqrt(2))):.3e}")
print("  (quadratic shrinking: halving the radius quarters the norm)")
