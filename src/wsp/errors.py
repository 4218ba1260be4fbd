"""Exceptions, the one check of every config field, the config builder, and one reader or writer per file kind."""

import contextlib
import functools
import json
import math
import numbers
import operator
import os
import stat
import struct
import typing

import numpy as np


class WspError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(WspError):
    """Invalid configuration value."""


class ContractError(WspError):
    """A documented precondition was violated by the caller (e.g. mismatched extents, a zero row)."""


class FormatError(WspError):
    """On-disk data malformed; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NonFiniteError(WspError):
    """A NaN or infinity appeared where a finite number is required."""


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

# A config class's field names and annotations, each with its ``Annotated`` rule (see ``check_fields``).
field_types = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))

U32_MAX = 2**32 - 1  # the largest extent or count the file formats store


def size_rule(least: int) -> str:
    """The rule of an integer size: at least ``least`` and at most ``U32_MAX``."""
    return f"[{least}, {U32_MAX}]"


def check_value(name: str, value, kind: type, rule=None, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is of ``kind`` (a key of ``_KINDS``) and obeys ``rule``.

    ``rule`` is None, a tuple of allowed values, or an interval string such as
    ``"[0, 1)"`` or ``"(0, inf)"``: a bracket includes its bound, a parenthesis excludes it.
    ``error`` builds the exception from its message (FormatError for file contents).
    """
    what, valid = _KINDS[kind]
    if not valid(value):
        raise error(f"{name} must be {what}, got {value!r}")
    if isinstance(rule, tuple):
        if value not in rule:
            raise error(f"{name} must be one of {rule}, got {value!r}")
    elif rule is not None:
        lo, hi = map(float, rule[1:-1].split(","))
        if not ((lo <= value if rule[0] == "[" else lo < value) and (value <= hi if rule[-1] == "]" else value < hi)):
            raise error(f"{name} must lie in {rule}, got {value!r}")


def check_fields(cfg) -> None:
    """Check every field of the config dataclass ``cfg`` against its annotation and the rule declared on it.

    A field annotated ``int``, ``float``, ``bool`` or ``str`` must hold that
    kind (see ``_KINDS``). ``tuple[T, ...]`` is a list or tuple of T of any
    length and ``tuple[T, T]`` one of exactly two; the field is stored as a
    tuple and each entry obeys the rule. A field's rule (see ``check_value``)
    is the metadata of its annotation: ``Annotated[float, "(0, inf)"]``. A
    field annotated with another class (a nested config, which checks itself)
    must hold an instance of it. Raises ConfigError for a bad value, and
    ContractError when an ``int``/``float`` field has no rule, so that no
    field can be added without one.
    """
    for name, hint in field_types(type(cfg)).items():
        hint, rule = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint, None)
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
        if rule is None and kind in (int, float):
            raise ContractError(f"{type(cfg).__name__}.{name} has no declared range")
        for entry in entries:
            check_value(label, entry, kind, rule)


def build_config(cls, body: dict, error: type[WspError]):
    """Construct the config dataclass ``cls`` from a parsed JSON object.

    Unknown keys and values that ``cls`` rejects (see ``check_fields``) are
    raised as ``error``.
    """
    unknown = set(body) - set(field_types(cls))
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**body)
    except ConfigError as exc:
        raise error(f"invalid {cls.__name__}: {exc}") from exc


def parse_json(raw: bytes, what: str, error) -> dict:
    """The JSON object in ``raw``, the one decode of every JSON input; anything else is raised as ``error``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise error(f"{what} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object")
    return doc


class ByteReader:
    """Bounds-checked reader of a framed binary file (magic, u16 version, fields); raises FormatError with offsets."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as fh:
            self.raw = fh.read()
        self.off, self.what = 0, what
        if self.take(len(magic), "magic") != magic:
            raise FormatError(f"bad {what} magic in {path}", offset=0)
        (found,) = self.unpack("<H", "version")
        if found != version:
            raise FormatError(f"unsupported {what} version {found}", offset=len(magic))

    def take(self, n: int, field: str) -> bytes:
        if self.off + n > len(self.raw):
            raise FormatError(f"truncated {self.what} while reading {field}", offset=self.off)
        self.off += n
        return self.raw[self.off - n : self.off]

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def array(self, dtype: str, count: int, field: str, rule: str, valid) -> np.ndarray:
        """``count`` values of ``dtype``; FormatError at the first one where ``valid(values)`` is False."""
        values = np.frombuffer(self.take(np.dtype(dtype).itemsize * count, field), dtype=dtype)
        ok = valid(values)
        if not ok.all():
            bad = int(np.argmin(ok))  # the first False
            at = self.off - values.nbytes + bad * values.itemsize
            raise FormatError(f"{self.what} {field} must be {rule}, got {values[bad]}", offset=at)
        return values

    def finish(self) -> None:
        if self.off != len(self.raw):
            raise FormatError(f"trailing bytes after the last field of the {self.what}", offset=self.off)


def check_array(name: str, values: np.ndarray, rule: str, valid) -> None:
    """A writer's side of ``ByteReader.array``: the first value that ``valid`` rejects is a NonFiniteError if it is
    not finite, else a ContractError."""
    ok = valid(values)
    if not ok.all():
        bad = values.flat[int(np.argmin(ok))]
        raise (ContractError if np.isfinite(bad) else NonFiniteError)(f"{name} must be {rule}, got {bad}")


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """A file to write ``path``'s new contents to; ``path`` gets them whole when the block exits, and keeps its old
    contents (or stays absent) when the block raises.

    The file is a temporary sibling of ``path`` that ``os.replace`` moves onto it, so a failed or interrupted write
    leaves no part of the new contents at ``path``; on an exception the temporary is removed. A symbolic link is
    followed, and an existing target that is not a regular file (a device, a pipe) is written in place.
    """
    target = os.path.realpath(path)
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(target) and not stat.S_ISREG(os.stat(target).st_mode):
        with open(target, mode, encoding=encoding) as fh:
            yield fh
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return str(int(value)) if isinstance(value, numbers.Integral) else repr(float(value))


def write_csv(path, header, rows, comment=None) -> None:
    """Write every output table: an optional ``# comment`` row, the header, then ``rows``.

    Strings are written as they are, integers (numpy's too) as integers, other numbers as ``repr(float(v))``.
    """
    with replacing(path) as fh:
        if comment is not None:
            fh.write("# " + ",".join(map(_csv_cell, comment)) + "\n")
        for row in (header, *rows):
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def encode_json(doc, compact: bool = False) -> str:
    """The text of every JSON file (``indent=1``, final newline) or ``compact`` header this package writes: keys
    sorted, numpy integers as integers. A writer encodes before it opens its first file, so a value that JSON cannot
    hold is a ContractError."""
    layout = {"separators": (",", ":")} if compact else {"indent": 1}
    try:
        text = json.dumps(doc, sort_keys=True, default=operator.index, **layout)
    except (TypeError, ValueError) as exc:  # ValueError: a circular reference
        raise ContractError(f"cannot write a value as JSON: {exc}") from exc
    return text if compact else text + "\n"


def write_json(path, doc) -> None:
    text = encode_json(doc)
    with replacing(path) as fh:
        fh.write(text)
