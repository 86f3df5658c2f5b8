"""degengeo: the geometry of eigenvalue degeneracy in Hermitian matrix space.

The package computes, for dense Hermitian matrices:

- the exact block decomposition H = e^{iS} (H0 + B + T + H_eff) e^{-iS}
  relative to a degenerate base point, through the direct rotation between
  eigenprojectors, together with the local chart it induces;
- the closest point of the k-fold degeneracy manifold and the distance
  formula sqrt(k) * stddev(window eigenvalues) = ||H - H_Sigma|| = ||H_eff||;
- orders of energy splitting of one-parameter families, equal across five
  splitting measures, with the cascade that resolves eigenvalue branches and
  their analytic continuation through t = 0;
- Weyl-point detection for three-parameter families: effective maps,
  Jacobian rank, topological charge, and refined grid scans;
- the spin-model and closed-form example Hamiltonians used as oracles
  (`degengeo.models`, not re-exported here).

The public names of the package are those of each layer module's
`__all__`, re-exported here unchanged; a module's `__all__` is the one
place that decides what is public.
"""

from .errors import *
from .hermitian import *
from .matrixio import *
from .projection import *
from .spectra import *
from .splitting import *
from .swtransform import *
from .weyl import *

__version__ = "0.1.0"
