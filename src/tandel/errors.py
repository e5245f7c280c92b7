"""Exception types shared across the package."""


class TandelError(Exception):
    """Base class for all errors raised by this package."""


# ---- simplex geometry ----

class DegenerateSimplex(TandelError):
    """The simplex is affinely degenerate at tolerance; the requested
    center/radius is not defined."""


class NegativeSquaredRadius(TandelError):
    """A weighted center solve produced a negative squared radius,
    i.e. the supplied weight is inconsistent with the simplex."""


class DimensionMismatch(TandelError):
    """Subspace angle queried with dim(U) > dim(V)."""


# ---- manifolds / charts ----

class MedialAxisProximity(TandelError):
    """The query point is too close to the medial axis for a unique
    closest-point projection."""


class PointNotOnManifold(TandelError):
    """A point that was required to lie on the manifold does not."""


class OutOfChart(TandelError):
    """Tangent coordinates outside the valid radius of the chart."""


class NoConvergence(TandelError):
    """An iterative solve did not reach tolerance within its budget."""


class EmptyInput(TandelError):
    """An operation that needs at least one point received none."""


class DisconnectedGraph(TandelError):
    """The geodesic graph does not connect the queried nodes."""


# ---- stars / complexes ----

class NeighborhoodTooSparse(TandelError):
    """No full-dimensional simplex exists in a vertex star; the sample is
    too sparse around the base point for the claimed sampling radius."""


class SingularSystem(TandelError):
    """A tangent-plane system is numerically singular: the equidistance
    system for a center (condition estimate above threshold), or a power
    cell whose base nearly coincides with a site."""


# ---- refinement ----

class AttemptBudgetExhausted(TandelError):
    """Rejection sampling in the picking region ran out of attempts."""


class SparsityViolation(TandelError):
    """Two sample points are too close: an insertion would land closer
    than the sparsity floor to an existing sample point, two points of an
    input net lie within that floor, or two points of a sample coincide
    (a repeated point has no power cell).  This breaks the termination
    invariant and is always a hard error."""


class IterationCap(TandelError):
    """The refinement loop ran ``refine.ITERATION_CAP`` iterations."""


class HypothesesFailed(TandelError):
    """Strict mode refused to run because a required hypothesis fails."""


class PickAuditFailed(TandelError):
    """An accepted picked point failed its distance audits in strict mode."""


# ---- verification ----

class TooLarge(TandelError):
    """Input exceeds the size the brute-force oracle is willing to handle."""


class DenseSampleTooCoarse(TandelError):
    """The witness sample is too coarse for a meaningful scan."""


class UnsupportedDim(TandelError):
    """A check or a complex requested for an unsupported intrinsic
    dimension."""
