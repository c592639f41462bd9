"""Exception types raised across the package."""


class PolyflowError(Exception):
    """Base class for all polyflow errors."""


class DegeneratePoint(PolyflowError):
    """Ambient point cannot be projected onto the model manifold."""


class InvalidSpec(PolyflowError):
    """Grid specification violates its invariants."""


class DegenerateImmersion(PolyflowError):
    """Map fails to immerse: induced metric is singular somewhere."""


class DegenerateMetric(PolyflowError):
    """Metric field is not positive definite at some node."""


class NotIsometric(PolyflowError):
    """The frame's metric deviates too far from the pullback metric."""


class RadiusTooLarge(PolyflowError):
    """Cut-off radius exceeds the injectivity scale of the domain."""


class NotTriharmonic(PolyflowError):
    """Audit precondition on the tritension field (or curvature sign) fails."""


class UnknownExample(PolyflowError):
    """No built-in map with the requested name."""


class BadParams(PolyflowError):
    """Built-in map parameters are missing or inconsistent."""


class ConfigError(PolyflowError):
    """Experiment configuration is malformed."""
