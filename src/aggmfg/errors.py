"""Exception types and the field-rule check shared across the package."""

from __future__ import annotations


def check_fields(obj) -> None:
    """Raise one ValueError naming every field of obj, with its value, that
    fails its rule in type(obj).RULES, a dict of field name to predicate."""
    bad = [f"{name}={getattr(obj, name)!r}" for name, rule in type(obj).RULES.items()
           if not rule(getattr(obj, name))]
    if bad:
        raise ValueError(f"invalid {type(obj).__name__}: " + ", ".join(bad))


class ConfigError(Exception):
    """Invalid configuration. Carries the offending key paths."""

    def __init__(self, keys, message: str | None = None):
        self.keys = list(keys)
        if message is None:
            message = "invalid configuration keys: " + ", ".join(self.keys)
        super().__init__(message)

    def __reduce__(self):  # keep keys and message across sweep worker processes
        return ConfigError, (self.keys, str(self))


class SolverError(Exception):
    """A linear march could not be carried out (e.g. time step too large)."""


class PositivityError(SolverError):
    """A quantity that must stay positive crossed zero."""


class SchemeViolationError(SolverError):
    """A discrete invariant (nonnegativity, mass) was violated beyond roundoff."""

