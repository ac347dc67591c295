"""Exception types shared across the package."""


class OrbitSiegeError(Exception):
    """Base class for all package errors."""


class ParseError(OrbitSiegeError):
    """Input file or text is structurally malformed."""


class ValidationError(OrbitSiegeError):
    """Parsed input violates a model invariant. Message names the field."""


class IoError(OrbitSiegeError):
    """Filesystem read or write failed."""


class OutOfHorizon(OrbitSiegeError):
    """Timestamp or slot index falls outside the scenario time grid."""


class StaleElements(OrbitSiegeError):
    """Orbital elements are too old for the propagation model."""


class AttackFail(OrbitSiegeError):
    """Planner exhausted its moves; the attack goal is unreachable.

    Raised as a legitimate negative result, not an operational error.
    The CLI maps it to exit code 1.
    """
