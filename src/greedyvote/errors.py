"""Exception hierarchy shared by all greedyvote modules."""


class GreedyVoteError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(GreedyVoteError, ValueError):
    """An argument violates a precondition (bad weights, bad k, bad split...)."""


class ResourceLimitError(GreedyVoteError):
    """An exact computation would exceed its cell budget, or could not reach
    the requested accuracy.

    The message names the count or bound that was exceeded, so callers can
    tell which input to shrink (or switch to Monte Carlo estimation instead).
    """


class UnsupportedConfigurationError(GreedyVoteError):
    """A combination of options is outside what the implementation supports,
    e.g. coupled sampling with a non-identity sampling weight function."""


class DegenerateSampleError(GreedyVoteError):
    """A sampled quorum carries no usable opinion mass (zero denominator)."""


class SamplingError(GreedyVoteError):
    """A sampler produced runs that break one of its own invariants."""
