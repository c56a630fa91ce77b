"""Exception types for groenewold_lab.

Every failure mode that callers are expected to handle has its own class,
whose `exit_code` and `label` the CLI reports it by: `<label>: <message>`.
"""


class GroenewoldLabError(Exception):
    """Base class for all groenewold_lab errors."""

    exit_code = 1
    label = "error"


class ConfigError(GroenewoldLabError):
    """Experiment configuration is malformed.

    Raised for unknown keys, missing required keys, type mismatches, or
    out-of-range values. The message carries the dotted path of the
    offending key so the CLI can report it precisely.
    """


class ValidationFailed(GroenewoldLabError):
    """A structural self-check (residual) exceeded its tolerance."""

    exit_code = 2
    label = "validation failed"


class TailMassExceeded(GroenewoldLabError):
    """Truncated state carries too much weight near the basis edge.

    The occupation of the last few number states exceeds the configured
    tail tolerance, so results at this truncation are untrustworthy.
    """

    exit_code = 3
    label = "truncation failure"


class QuadratureNotConverged(GroenewoldLabError):
    """A numerical integral failed its refinement check, or a quadrature rule its self-check."""

    exit_code = 3
    label = "truncation failure"
