"""Exception types shared across the package."""


class BilliardError(Exception):
    """Base class for all package errors."""


class NotOnBoundary(BilliardError):
    """A point expected on the table boundary is not within hit tolerance."""


class DegenerateStart(BilliardError):
    """Ray starts on the boundary pointing strictly outward."""


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
