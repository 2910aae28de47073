"""Exception hierarchy shared across the package."""


class CavlabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(CavlabError):
    """A network or config specification violates its invariants."""


class CapacityExceeded(CavlabError):
    """Requested vehicles cannot fit on the track with positive gaps."""


class DegenerateGap(CavlabError):
    """Car-following law queried with a non-positive gap."""


class UnknownVehicle(CavlabError):
    """Vehicle id not present in the simulation state."""


class NoAgents(CavlabError):
    """An operation requiring at least one CAV found none."""


class ShapeMismatch(CavlabError):
    """Tensor or matrix shapes are inconsistent."""


class NonFiniteValue(CavlabError):
    """A forward pass produced NaN or Inf."""


class NonFiniteAction(NonFiniteValue):
    """A rollout's action mean was NaN or Inf; the message names the step
    and, out of `train`, the master seed and the episode."""


class NanGradient(CavlabError):
    """A backward pass or parameter update produced NaN/Inf."""


class IncompatibleCheckpoint(CavlabError):
    """Checkpoint architecture does not match the requested network."""


class ParseError(CavlabError):
    """Run-config file could not be parsed (bad syntax or unknown key)."""


class ValidationError(CavlabError):
    """Run-config parsed but violates a module precondition."""
