"""Exception types shared across the library."""


class ReductionError(Exception):
    """Base class for domain-specific failures."""


class ConfigError(ReductionError):
    """Malformed configuration input."""


class NonReductiveStabilizer(ReductionError):
    """The stabilizer subalgebra admits no ad-stable complement."""


class DegeneratePairing(ReductionError):
    """The symplectic pairing between the raw complement and the radical is degenerate."""


class AssumptionTwoFailure(ReductionError):
    """A supplied transverse complement is not a complement or not stabilizer-stable."""


class PointOffConstraint(ReductionError):
    """A sample point does not lie on the momentum level set."""


class SingularProjection(ReductionError):
    """The quotient differential restricted to the horizontal space is singular."""


class NotTangent(ReductionError):
    """A vector is not tangent to the coadjoint orbit at the given point."""


class RankLoss(ReductionError):
    """A chart or frame lost rank at the requested point."""


class ZeroDimensionalBase(ReductionError):
    """The reduced manifold is a point; the requested operation is vacuous."""
