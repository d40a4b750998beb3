"""Exception hierarchy for the zipfold pipeline."""


class ZipfoldError(Exception):
    """Base class for all structured failures raised by this package."""


class MalformedPolygonError(ZipfoldError):
    """Input polygon is structurally unusable (odd n, n too small, repeats)."""


class ConfigError(ZipfoldError, ValueError):
    """A run setting is out of range: a tolerance, height bound or
    development cap below its least value."""


class SamplingBudgetError(ZipfoldError):
    """Rejection sampler ran out of attempts."""

    def __init__(self, attempts, message=None):
        self.attempts = attempts
        super().__init__(message or f"sampling budget exhausted after {attempts} attempts")


class GluingError(ZipfoldError):
    """Perimeter-halving gluing could not be built or is inconsistent."""


class GaussBonnetError(GluingError):
    """Total curvature of a gluing deviates from 4*pi beyond tolerance."""


class GeodesicError(ZipfoldError):
    """Geodesic engine failure (budget exhaustion treated separately)."""


class GeodesicNotFoundError(GeodesicError):
    """A required distance query produced no geodesic within budget.

    `status` distinguishes a conclusive miss ("not_found") from search
    budget exhaustion ("inconclusive").
    """

    def __init__(self, message, status="not_found"):
        self.status = status
        super().__init__(message)


class MetricError(ZipfoldError):
    """Distance data is not realizable as the requested simplex."""


class NetError(ZipfoldError):
    """Unfolding produced no usable planar net."""
