"""Exception types shared across the package."""

from __future__ import annotations


class CareNetsError(Exception):
    """Base class for everything raised deliberately by this package."""


class ValidationError(CareNetsError):
    """A model, matrix, or scenario violates a structural requirement.

    ``check`` names the validation category so reports can group failures.
    """

    def __init__(self, message: str, check: str = "structure"):
        super().__init__(message)
        self.check = check


class NotEnabledError(CareNetsError):
    """A firing was requested that the current marking cannot support."""


class CapacityError(CareNetsError):
    """A transition was asked to serve more tokens than its declared capacity."""


class InfeasibleCareActionError(CareNetsError):
    """A transformation fired but none of its mapped health events is enabled."""


class AmbiguousHealthEventError(CareNetsError):
    """A transformation maps to several simultaneously enabled health events."""


class SimulationError(CareNetsError):
    """An event could not be applied. From the co-simulation kernel,
    ``time``, ``net`` (``delivery`` or ``health:<id>``), ``label`` and
    ``individual`` name the event; the message carries them too."""

    def __init__(self, message: str, time: float | None = None,
                 net: str | None = None, label: str | None = None,
                 individual: str | None = None):
        super().__init__(message)
        self.time = time
        self.net = net
        self.label = label
        self.individual = individual


class ScenarioError(CareNetsError):
    """A scenario document failed to load. Collects every failure found
    and, in ``skipped``, the checks an earlier failure kept from running."""

    def __init__(self, failures, skipped=()):
        self.failures = list(failures)
        self.skipped = tuple(skipped)
        lines = [f"[{check}] {message}" for check, message in self.failures]
        super().__init__("scenario failed validation:\n" + "\n".join(lines))
