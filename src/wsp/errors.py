"""Exception hierarchy shared by all modules, the one check of every config field, and the JSON config builder."""

import functools
import math
import numbers
import typing


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


def _is_finite_real(value) -> bool:
    """True for a real number (not a bool) whose float is finite; an int too large for a float is not."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


# What a value must be for each annotated type, whether it comes from JSON, a
# checkpoint header or a Python caller.
_KINDS = {
    int: ("an integer", lambda value: isinstance(value, numbers.Integral) and not isinstance(value, bool)),
    float: ("a finite number", _is_finite_real),
    bool: ("true or false", lambda value: isinstance(value, bool)),
    str: ("a string", lambda value: isinstance(value, str)),
}

_field_types = functools.cache(typing.get_type_hints)


def check_value(name: str, value, kind: type, rule=None) -> None:
    """Raise ConfigError unless ``value`` is of ``kind`` (a key of ``_KINDS``) and obeys ``rule``.

    ``rule`` is None, a tuple of allowed values, or an interval string such as
    ``"[0, 1)"`` or ``"(0, inf)"``: a bracket includes its bound, a parenthesis excludes it.
    """
    what, valid = _KINDS[kind]
    if not valid(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if isinstance(rule, tuple):
        if value not in rule:
            raise ConfigError(f"{name} must be one of {rule}, got {value!r}")
    elif rule is not None:
        lo, hi = map(float, rule[1:-1].split(","))
        if not ((lo <= value if rule[0] == "[" else lo < value) and (value <= hi if rule[-1] == "]" else value < hi)):
            raise ConfigError(f"{name} must lie in {rule}, got {value!r}")


def check_fields(cfg, **rules) -> None:
    """Check every field of the config dataclass ``cfg`` against its annotation and its rule.

    A field annotated ``int``, ``float``, ``bool`` or ``str`` must hold that
    kind (see ``_KINDS``). ``tuple[T, ...]`` is a list or tuple of T of any
    length and ``tuple[T, T]`` one of exactly two; the field is stored as a
    tuple and each entry obeys the rule. ``rules`` maps field names to rules
    (see ``check_value``); ``seed`` defaults to ``"[0, inf)"``. A field
    annotated with another class (a nested config, which checks itself) must
    hold an instance of it. Raises ConfigError for a bad value, and
    ContractError when a rule names no field or an ``int``/``float`` field has
    no rule, so that no field can be added without one.
    """
    hints = _field_types(type(cfg))
    unknown = set(rules) - set(hints)
    if unknown:
        raise ContractError(f"rules for unknown {type(cfg).__name__} fields: {sorted(unknown)}")
    rules.setdefault("seed", "[0, inf)")
    for name, hint in hints.items():
        value = getattr(cfg, name)
        if typing.get_origin(hint) is tuple:
            kind, *rest = typing.get_args(hint)
            length = None if rest == [Ellipsis] else 1 + len(rest)
            if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
                raise ConfigError(f"{name} must be a list of {length or 'any number of'} values, got {value!r}")
            entries, label = tuple(value), f"{name} entries"
            object.__setattr__(cfg, name, entries)
        elif hint in _KINDS:
            kind, entries, label = hint, (value,), name
        elif not isinstance(value, hint):
            raise ConfigError(f"{name} must be a {hint.__name__}, got {value!r}")
        else:
            continue
        if name not in rules and kind in (int, float):
            raise ContractError(f"{type(cfg).__name__}.{name} has no declared range")
        for entry in entries:
            check_value(label, entry, kind, rules.get(name))


def build_config(cls, body: dict, error: type[WspError]):
    """Construct the config dataclass ``cls`` from a parsed JSON object.

    Unknown keys and values that ``cls`` rejects (see ``check_fields``) are
    raised as ``error``.
    """
    unknown = set(body) - set(cls.__dataclass_fields__)
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**body)
    except ConfigError as exc:
        raise error(f"invalid {cls.__name__}: {exc}") from exc
