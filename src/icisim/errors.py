"""Exception types shared across the package."""


class IcisimError(Exception):
    """Base class for all package-specific errors."""


class RankError(IcisimError):
    """Flow balance matrix does not have rank n - 1."""


class TopologyError(IcisimError):
    """A turning ratio references a street pair that does not meet head-to-tail."""


class SingularError(IcisimError):
    """The reduced flow system is numerically singular for the chosen street."""


class OverlapError(IcisimError):
    """Coverage cells claim more of a street than its total length."""


class DisconnectedError(IcisimError):
    """A base station has no supplying generator."""


class InfeasibleError(IcisimError):
    """A strategy violates the feasibility constraints of its stealth level."""


class FormatError(IcisimError):
    """A scenario or config file is malformed."""
