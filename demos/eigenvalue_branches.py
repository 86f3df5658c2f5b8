"""Eigenvalue branches through a degeneracy: the cascade.

Sorted eigenvalues of a Hermitian family are continuous but kink where
branches cross. Re-indexing the negative side with the right permutation
turns them into analytic functions. The cascade finds that permutation, and
along the way the order at which every pair of branches separates, by
repeatedly dividing the effective block by t: each division makes the
branches one order less degenerate.
"""

import numpy as np

from degengeo import cascade, family, linear_family
from degengeo.models import example_pr, ising, transverse_perturbation

# --- a plain linear crossing -------------------------------------------------
h0 = np.diag([0.0, 0.0, 2.0, 3.0]).astype(complex)
h1 = np.zeros((4, 4), dtype=complex)
h1[0, 0], h1[1, 1] = 1.0, -1.0
fam = linear_family(h0, h1, 2)
res = cascade(fam)
print("window eigenvalues +-t crossing at 0:")
print(f"  pair separation levels: {res.pair_levels}")
print(f"  negative-side permutation: {res.negative_permutation} "
      "(the branches swap)\n")

print("sorted vs reassembled branches:")
print(f"  {'t':>6s} {'sorted':>18s} {'analytic':>18s}")
for t in (-0.2, -0.1, 0.1, 0.2):
    win = np.linalg.eigvalsh(fam(t))[:2]
    analytic = win[[p - 1 for p in res.negative_permutation]] if t < 0 else win
    print(f"  {t:6.2f} {str(np.round(win, 3)):>18s} "
          f"{str(np.round(analytic, 3)):>18s}")
print()

# --- quadratic touching: no swap --------------------------------------------
fam_pr = family(lambda t: example_pr(t, 0.0), 2)
res = cascade(fam_pr, t_probe=2.0 ** -5)
print("coupling family with quadratic splitting:")
print(f"  pair separation levels: {res.pair_levels} "
      "(needed two divisions by t)")
print(f"  negative-side permutation: {res.negative_permutation} "
      "(even branches, no swap)\n")

# --- a deeper cascade: the Ising ground pair ---------------------------------
rng = np.random.default_rng(3)
field = transverse_perturbation(3, rng.standard_normal(3),
                                rng.standard_normal(3))
fam_ising = family(lambda t: ising(3) + t * field, 2)
res = cascade(fam_ising, t_probe=2.0 ** -5)
print("Ising(3) ground pair under a transverse field:")
print(f"  pair separation levels: {res.pair_levels} "
      "(three divisions: order 3 protection)")
print(f"  negative-side permutation: {res.negative_permutation}")
