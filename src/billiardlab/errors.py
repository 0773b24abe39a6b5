"""Exception types shared across the package."""


class BilliardError(Exception):
    """Base class for all package errors."""


class NotOnBoundary(BilliardError):
    """A point expected on the table boundary is not within hit tolerance."""


class DegenerateStart(BilliardError):
    """Ray starts on the boundary pointing strictly outward."""


class Trapped(BilliardError):
    """No boundary hit found within the length cap; trapping candidate."""

    def __init__(self, l_max, message=None):
        self.l_max = l_max
        super().__init__(message or f"no boundary hit within l_max={l_max:g}")


class AmbiguousGeodesic(BilliardError):
    """Endpoints do not determine a unique geodesic (antipodal on a sphere)."""


class BodyTooSmall(BilliardError):
    """Enclosing body fails the double transversal crossing test."""


class DegenerateSet(BilliardError):
    """A phase-space test set has empirical measure zero."""


class TooManyTrapped(BilliardError):
    """Excluded (trapped or grazing) sample fraction exceeds the budget."""


class EmptySequence(BilliardError):
    """An input sequence that must be nonempty is empty."""


class ConfigError(BilliardError):
    """Table or experiment configuration failed validation."""
