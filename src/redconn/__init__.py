"""Reduction of invariant symplectic connections on T*G to coadjoint orbits.

The phase space is the left-trivialized cotangent bundle G x g*.  The library
builds the canonical symplectic structure and momentum maps, constructs a
right-invariant symplectic connection by projecting the bi-invariant baseline,
performs the reduction at a momentum level with reductive stabilizer, and
cross-validates the reduced connection and its curvature against independent
oracles.
"""

from .errors import (AssumptionTwoFailure, ConfigError, DegeneratePairing, NonReductiveStabilizer,
                     NotTangent, PointOffConstraint, RankLoss, ReductionError, SingularProjection,
                     ZeroDimensionalBase)
from .liealg import (LieAlgebra, abelian, algebra_from_json, coadjoint_matrix, group_exp,
                     heis3, named_algebra, reductive_complement, se2, sl2r, so3,
                     stabilizer_algebra, su2)
from .phasespace import (ConstraintSplit, constraint_split, omega_gram, right_generator,
                         symplectic_form)
from .connections import (baseline_coefficients, connection_to_json, nabla_omega_defect,
                          pullback_coefficients, symplectized_coefficients, torsion_defect)
from .orbits import KKS_MATCH_SIGN, OrbitChart, orbit_chart, orbit_tangent_frame
from .reduction import (ReductionContext, SigmaGeometry, autoparallel_check, build_context,
                        default_chart, isotropic_correction_gram, reduced_form,
                        totally_geodesic_defect)
from .curvature import (convergence_factor, curvature_battery, curvature_exact,
                        curvature_routes)
from .pipeline import CaseConfig, run_pipeline, verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
