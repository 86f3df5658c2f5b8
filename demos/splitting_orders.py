"""Orders of energy splitting: how fast a protected degeneracy breaks.

A perturbation t * H1 of a degenerate Hamiltonian splits the degenerate
level like t^r. The integer r is the same no matter which splitting measure
is fitted (standard deviation, any pairwise difference, deviation from the
mean, the extreme spread), and it equals the order at which the family
leaves the degeneracy manifold. Spin chains make the point concrete: the
dimerized hopping chain and the Ising chain both protect their twofold
degeneracy to order N, the five-qubit code Hamiltonian to its code
distance 3.
"""

import numpy as np

from degengeo import (
    estimate_all_orders,
    estimate_order,
    family,
    signed_stddev,
)
from degengeo.models import (
    five_qubit_code,
    ising,
    one_local,
    ssh,
    ssh_hopping_disorder,
    transverse_perturbation,
)

rng = np.random.default_rng(1)

# --- hopping chain, middle window ------------------------------------------
n_cells = 4
h0 = ssh(n_cells, 0.0, 1.0)
amps = rng.standard_normal(7) + 1j * rng.standard_normal(7)
fam_ssh = family(lambda t: h0 + t * ssh_hopping_disorder(n_cells, amps), 2,
                 offset=n_cells - 1)
print(f"dimerized chain, {n_cells} cells, random hopping disorder:")
estimates, agree = estimate_all_orders(fam_ssh)
for name, est in estimates.items():
    print(f"  {name:9s} slope {est.slope:6.3f} -> r = {est.r}")
print(f"  all five agree: {agree} (expected r = number of cells)\n")

# --- Ising chain with a transverse field ------------------------------------
n_q = 3
fam_ising = family(
    lambda t: ising(n_q) + t * transverse_perturbation(
        n_q, xs=np.array([0.9, -1.1, 0.4]), ys=np.array([0.2, 0.5, -0.7])),
    2,
)
est = estimate_order(fam_ising)
print(f"Ising chain of {n_q} qubits, transverse field: "
      f"slope {est.slope:.3f} -> r = {est.r}\n")

# --- five-qubit code ---------------------------------------------------------
fam_code = family(
    lambda t: five_qubit_code() + t * one_local(5, rng.standard_normal(15)),
    2,
)
est = estimate_order(fam_code)
print(f"five-qubit code Hamiltonian, single-qubit noise: "
      f"slope {est.slope:.3f} -> r = {est.r} (code distance 3)\n")

# --- what the raw samples look like -----------------------------------------
print("raw splitting samples of the Ising family (stddev of the window):")
ts = np.array([2.0 ** -e for e in range(3, 9)])[::-1]
heff = estimate_order(fam_ising, "heff", ts)
# sgn(t)^0 = 1: the plain standard deviations, in ascending t as the fit
# keeps its (t, ||H_eff||) pairs.
stds = signed_stddev(fam_ising, 0, np.sort(ts))
for std, (t, norm) in zip(stds, heff.samples):
    print(f"  t = {t:9.6f}  stddev = {std:.3e}  "
          f"sqrt(2)*stddev = {np.sqrt(2) * std:.3e}  "
          f"||H_eff|| = {norm:.3e}")

# --- the signed splitting is smooth through t = 0 ---------------------------
ts = np.array([-0.02, -0.01, -0.005, 0.005, 0.01, 0.02])
signed = signed_stddev(fam_ising, est.r, ts)
print("\nsigned splitting sgn(t)^r * stddev near 0 "
      "(odd r: antisymmetric, no kink):")
for t, v in zip(ts, signed):
    print(f"  t = {t:+.3f}  {v:+.3e}")
