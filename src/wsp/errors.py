"""Exception hierarchy shared by all modules, and the JSON config builder that maps bad values onto it."""

import dataclasses
import math
import numbers


class WspError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(WspError):
    """Tensor extents incompatible with the requested operation."""


class DomainError(WspError):
    """Input value outside the mathematical domain of the operation."""


class ConfigError(WspError):
    """Invalid configuration value."""


class ContractError(WspError):
    """A documented precondition was violated by the caller."""


class DegenerateInputError(WspError):
    """Input is structurally valid but degenerate (e.g. a zero row)."""


class FormatError(WspError):
    """On-disk data malformed; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NonFiniteError(WspError):
    """A NaN or infinity appeared where a finite number is required."""


class FallbackRequired(WspError):
    """Strict one-slice-per-patient sampling is infeasible for this cohort;
    the caller should switch to the balanced fallback sampler."""


def is_int(value) -> bool:
    """True for an integer; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is a non-negative integer."""
    if not is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


# What a JSON value must be for a field annotated with each scalar type, keyed
# by the annotation's name (a string under ``from __future__ import annotations``).
_FIELD_TYPES = {
    "int": ("an integer", is_int),
    "float": ("a finite number", lambda value: is_int(value) or (isinstance(value, float) and math.isfinite(value))),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
}


def build_config(cls, body: dict, error: type[WspError]):
    """Construct the config dataclass ``cls`` from a parsed JSON object.

    Unknown keys, values of a field annotated ``int``, ``float`` or ``bool``
    that are not of that type (a float must be finite; an int is one), and
    values that ``cls`` rejects (including wrong types, which surface as
    TypeError or ValueError) are raised as ``error``.
    """
    unknown = set(body) - set(cls.__dataclass_fields__)
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    for field in dataclasses.fields(cls):
        kind, valid = _FIELD_TYPES.get(getattr(field.type, "__name__", field.type), (None, None))
        if kind and field.name in body and not valid(body[field.name]):
            raise error(f"invalid {cls.__name__}: {field.name} must be {kind}, got {body[field.name]!r}")
    try:
        return cls(**body)
    except (TypeError, ValueError, ConfigError) as exc:
        raise error(f"invalid {cls.__name__}: {exc}") from exc
