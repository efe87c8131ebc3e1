"""Exact-arithmetic toolkit for generalized (N-fold) reflection structures
over classical Yang-Baxter r-matrices, the non skew-symmetric r-matrices
they induce, and the resulting Gaudin-type integrable models."""

from .linalg import Matrix, commutator, embed_pair, partial_trace, permutation_operator, swap_pair
from .ratfun import Poly, RatFun
from .reflection import (
    KSolution,
    MobiusMap,
    WeightFamily,
    build_rbar,
    case_by_label,
    catalog,
    equivalence_residual,
    n_unitarity,
    nre_residual,
    symmetry_relation_residual,
)
from .rmatrix import RMatrixFun, cybe_residual, rational_r, skew_residual, trig_r
from .scalars import Cyclotomic, Rational, cyclotomic_polynomial, scalar_from_str, scalar_to_str, to_complex, zeta
from .spinalg import SpinPoly, casimir, poisson_bracket, s_minus, s_plus, s_z
from .gaudin import GaudinModel, hamiltonian_explicit, hamiltonian_residue, model_from_config, sampled_residual
from .dynamics import PhaseState, rk4_simulate, spectral_scan

__version__ = "0.1.0"
