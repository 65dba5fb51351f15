"""Shared exception types."""


class PrecisionLoss(Exception):
    """A series computation cannot certify enough correct terms."""


class NotASquare(Exception):
    """A square root was requested of something that has none here."""


class Unsupported(Exception):
    """The requested computation is outside the supported shapes."""


class SearchExhausted(Exception):
    """A bounded search ended without a hit."""


class RamifiedAtInfinity(Exception):
    """The algebra is ramified at the place at infinity."""


class NotCertified(Exception):
    """The standard order could not be certified maximal."""


class StabilizerAnomalousOrder(Exception):
    """A vertex stabilizer had an order other than q-1 or q^2-1."""


class InvariantViolation(Exception):
    """An internal consistency check failed: a computed object contradicts
    a property the construction guarantees."""


class NonterminationGuard(Exception):
    """The quotient search grew past the formula-predicted size."""


class NonIntegral(Exception):
    """A counting formula produced a non-integer."""


class InvalidProfile(Exception):
    """A ramification profile is malformed or unrealizable."""
