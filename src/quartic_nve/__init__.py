"""Exact classification of invariant-plane Hamiltonians with quartic
polynomial normal variational equations, with machine-checkable
incompatibility certificates and a numeric validation layer."""

from .mpoly import MPoly, poly_gcd, resultant
from .jets import (EnkTable, DiffCondition, conditions_vanish, enk_table,
                   generate_conditions, lie_derivative)
from .odes import (Branch, LinearODE, NonlinearODE, SolutionBasis,
                   center_and_reduce, degeneration_branches, rational_basis,
                   rational_kernel, residual, specialize_quartic)
from .certify import (Certificate, QuadraticForm, build_Q, conic_incompatibility,
                      extract_forms, verify_quartic_theorem)
from .potential import Potential, parse_potential
from .dynamics import (NumericPotential, Trajectory, integrate_hamilton,
                       nve_coefficient_samples, polynomial_degree_test,
                       variational_consistency)

__version__ = "0.1.0"
