"""Exception hierarchy.

Every failure mode of the library raises a named subclass of
:class:`SliceStarError` so callers can distinguish geometric obstructions
(hitting a singular locus, losing a branch) from plain usage errors.
"""


class SliceStarError(Exception):
    """Base class for all library errors."""


class RealAxis(SliceStarError):
    """Operation undefined on the real axis (vector part vanishes)."""


class OnVinf(SliceStarError):
    """Point lies on the locus n(z) = 0, where the double cover degenerates."""


class OnW(SliceStarError):
    """Point lies on the cone w0^2 + w1^2 = 0, outside the covering image."""


class BadStart(SliceStarError):
    """Lift start point does not sit on the fiber over the path start."""


class PathTooWild(SliceStarError):
    """Adaptive refinement exhausted while continuing along a path."""


class NotALoop(SliceStarError):
    """Loop monodromy did not come out (close to) integral, or endpoints differ."""


class BadOrder(SliceStarError):
    """Root order must be an integer >= 2."""


class NotDeck(SliceStarError):
    """Translation violates the parity condition for deck transformations."""


class OutOfDomain(SliceStarError):
    """Evaluation point falls outside the declared domain."""


class DegenerateUnits(SliceStarError):
    """The two imaginary units of the representation formula coincide."""


class DomainMismatch(SliceStarError):
    """Binary operation on slice functions with different domains."""


class NearBoundary(SliceStarError):
    """Quadrature point too close to the domain boundary."""


class VanishingVectorPart(SliceStarError):
    """f_v^s vanishes (identically or at the requested point)."""


class NonIsolatedZero(SliceStarError):
    """No isolated-zero circle could be found for a Cauchy extension."""


class HitsVLocus(SliceStarError):
    """Function values meet V_-1 or V_inf, so no logarithm branch exists."""


class JNotDefined(SliceStarError):
    """Branch index requires the unit-vector function on a domain meeting R."""


class BranchIndexTooLarge(SliceStarError):
    """Branch index so large that 2 pi i h swamps the logarithm in floats."""


class BranchObstruction(SliceStarError):
    """Continuous square-root branch lost (value crossed zero)."""


class NotExponential(SliceStarError):
    """The product of the two *-exponentials is not a *-exponential."""


class BadExampleInput(SliceStarError):
    """Input violates the hypotheses of the vanishing-partner construction."""
