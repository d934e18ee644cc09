"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class InvalidParams(SimError):
    pass


# Structural faults of a graph are bad input, so they exit like any other.
class DanglingEndpoint(InvalidParams):
    pass


class DuplicateEdge(InvalidParams):
    pass


class NegativeWeight(InvalidParams):
    pass


class Unreachable(SimError):
    pass


class UnitMismatch(SimError):
    pass


class DimensionMismatch(SimError):
    pass


class EmptyDataset(SimError):
    pass


class NonFiniteLoss(SimError):
    pass


class InvalidSpec(SimError):
    pass


class EmptyHrn(SimError):
    pass


class CollisionDetected(SimError):
    pass


class LocatorLimitExceeded(SimError):
    pass


class NotFound(SimError):
    pass


class IndirectLoop(SimError):
    pass


class Unresolvable(SimError):
    pass


class NoRoute(SimError):
    pass


class EmptyLog(SimError):
    pass


class ZeroDenominator(SimError):
    pass


class DegenerateDistribution(SimError):
    pass


class ConfigError(SimError):
    """Bad configuration file or CLI usage."""
