"""Exception hierarchy shared by all greedyvote modules."""


class GreedyVoteError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(GreedyVoteError, ValueError):
    """An argument, or a combination of them, violates a precondition (bad
    weights, bad k, bad split, coupled sampling under a non-identity f...)."""


class ResourceLimitError(GreedyVoteError):
    """An exact computation would exceed its cell budget, or could not reach
    the requested accuracy.

    The message names the count or bound that was exceeded, so callers can
    tell which input to shrink (or switch to Monte Carlo estimation instead).
    """


class DegenerateSampleError(GreedyVoteError):
    """A sampled quorum carries no usable opinion mass (zero denominator)."""


class SamplingError(GreedyVoteError):
    """A sampler produced runs that break one of its own invariants."""
