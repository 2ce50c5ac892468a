"""Truncated-Fock-space spectral toolkit for the fiber Hamiltonian of a
semi-relativistic spin-1/2 charge minimally coupled to the quantized Maxwell
field.

The package constructs H(P) = gamma sqrt((sigma.(P - P_f + A(0)))^2 + M^2)
+ H_f on (spin) x (truncated Fock space), computes its low-lying spectrum,
and verifies the spectral facts that hold for it at desk scale: the
enumeration oracle of the free theory, the Clifford and Pauli algebra
identities, two-sided operator sandwiches with explicit constants, min-max
eigenvalue counting, the one-photon gap function, and exact two-fold Kramers
degeneracy of the ground level.
"""

from . import blas  # noqa: F401  (first: it imports numpy on one BLAS thread)
from .modes import (
    CouplingNorms,
    FormFactorTable,
    ModeSet,
    ModelParams,
    build_mode_set,
    coupling_norms,
    dispersion,
    dreibein,
    form_factors,
    grid_rotations,
)
from .fock import FockBasis, annihilator, enumerate_basis, field_sum
from .hamiltonian import (
    FiberModel,
    HBlock,
    build_A0,
    build_B0,
    build_D,
    build_H,
    build_H_SL,
    build_T,
    build_T_expanded,
    build_model,
    build_v,
    interaction_norm,
    kinetic_root,
    op_sqrt_eig,
    op_sqrt_quad,
    sigma_dot_v,
)
from .spectral import (
    EnergyCache,
    FiberSolve,
    SpectrumReport,
    cluster_degeneracy,
    convergence_study,
    delta_gap,
    ground_data,
    low_spectrum,
    solve_fiber,
)
from .bounds import (
    BoundConstants,
    bound_constants,
    build_L_minus,
    build_L_plus,
    corollary_energy_bounds,
    count_below,
    sqrt_monotone_test,
    theorem_gap_report,
)
from .kramers import (
    apply_theta,
    check_reality_relations,
    check_theta_commutes,
    check_theta_commutes_related,
    kramers_certificate,
)
from .config import RunConfig, default_config, load_config
from .verify import run_verify

__version__ = "0.1.0"
