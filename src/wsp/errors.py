"""Exception hierarchy shared by all modules, and the JSON config builder that maps bad values onto it."""

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


def check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is a non-negative integer (bool is not one)."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def build_config(cls, body: dict, error: type[WspError]):
    """Construct the config dataclass ``cls`` from a parsed JSON object.

    Unknown keys, and values that ``cls`` rejects (including wrong types,
    which surface as TypeError or ValueError), are raised as ``error``.
    """
    unknown = set(body) - set(cls.__dataclass_fields__)
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**body)
    except (TypeError, ValueError, ConfigError) as exc:
        raise error(f"invalid {cls.__name__}: {exc}") from exc
