"""Every file format the package reads or writes: JSON documents and CSV tables.

No other module opens a file for writing. ``write_json`` writes sorted
keys, two-space indents and one final newline, and refuses NaN and
infinity; ``write_csv`` writes each number as ``repr``, so a float reads
back bit for bit.

``load_json`` builds a frozen dataclass from a document. A class's fields
give the allowed keys, the required keys (no default) and each value's
type: bool, int, float, str, object (any value), list (any array),
X | None, tuple[X, ...], tuple[X, Y], dict[str, X], or a nested dataclass
or NamedTuple. ``int`` rejects booleans and floats, ``float`` takes finite
numbers only, and every failure is a ``ConfigError`` reading
``<file>.<field path>: <reason>``. Each class calls ``check_kinds`` first
in ``__post_init__``, so the rule holds in Python too; semantic checks follow.

``load_csv`` reads a header line and rows of numbers in one pass: each data
line's cell count is checked as the lines stream into one ``np.loadtxt``,
and only a failure reads the file again, to name the fault. Every failure
is a ``ValueError`` reading ``<file>, line <n>: <reason>``, or
``<file>: <reason>`` when no single line is at fault. Both loaders read
UTF-8 with universal newlines and skip a leading byte-order mark.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import types
import typing

import numpy as np

from .exceptions import ConfigError

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}  # bools aside

_hints = functools.cache(typing.get_type_hints)  # class: {field name: type}


class _PathError(ConfigError):
    """A ConfigError whose message starts with a field path, which the caller extends."""


def load_json(path, cls):
    """Parse the JSON file at ``path`` into a ``cls`` instance; skips a byte-order mark, rejects a repeated key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # not utf-8-sig: one decode of the whole file counts a bad byte's offset from its first byte
            raw = json.loads(fh.read().removeprefix("\ufeff"), object_pairs_hook=_object)
        except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return from_document(cls, raw, str(path))


def _object(pairs) -> dict:
    """A JSON object's dict; a key it repeats is a ValueError, not a value silently dropped."""
    if len(doc := dict(pairs)) < len(pairs):
        seen = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))  # set.add returns None
        raise ValueError(f"repeated key {json.dumps(repeated)}")
    return doc


def write_json(path, doc) -> None:
    """Write ``doc`` with sorted keys, two-space indents and one final newline; NaN or infinity is a ValueError."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # raised before the file is opened
        raise ValueError(f"{path}: JSON cannot hold NaN or infinity") from None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows) -> None:
    """Write the ``header`` cells, then each row of Python numbers (as ``tolist()`` gives them) as ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def load_csv(path, rows: str) -> tuple[list[str], np.ndarray]:
    """The header cells and an (n, columns) float array of the CSV file at ``path``.

    The data lines stream once through a cell count check into one
    ``np.loadtxt``. On any failure the file is read again to name the fault.
    ``rows`` names the data rows in the message for a file that has none.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = fh.readline().removesuffix("\n").split(",")
            data = np.loadtxt(_checked(fh, len(header)), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(_fault(path, rows, exc)) from None
    return header, data


def _checked(lines, width: int):
    """``lines``; a ValueError at the first without ``width`` cells, or at the end if all are blank.

    loadtxt skips a blank line, and would warn of no data if every line were blank.
    """
    blank = True
    for line in lines:
        if line.count(",") != width - 1:
            raise ValueError("wrong cell count")
        blank = blank and line == "\n"
        yield line
    if blank:
        raise ValueError("no data line")


def _fault(path, rows: str, exc: ValueError) -> str:
    """The message for the first fault in the CSV file at ``path``, whose load raised ``exc``.

    Bytes that are not UTF-8 come first, then a file with no data row, then a
    wrong cell count anywhere, then the first cell numpy rejects.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")  # not utf-8-sig, so the offset counts a byte-order mark
    except UnicodeDecodeError as bad:
        return f"{path}: not UTF-8 text: {bad.reason} at byte {bad.start}"
    # the lines text mode reads: universal newlines, no byte-order mark
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    # one column of blank lines is no rows either: loadtxt would skip them and warn
    if len(lines) < 2 or "," not in lines[0] and not any(lines[1:]):
        return f"{path}: no {rows} after the header"
    width = lines[0].count(",") + 1
    for number, line in enumerate(lines[1:], start=2):
        if line.count(",") != width - 1:
            return f"{path}, line {number}: {line.count(',') + 1} cells, header has {width}"
    for number, line in enumerate(lines[1:], start=2):
        try:
            if line:  # alone, a blank line would make loadtxt warn of no data
                np.loadtxt([line], delimiter=",", comments=None)
        except ValueError as line_exc:
            reason = str(line_exc).replace(" at row 0, column ", " in column ")
            return f"{path}, line {number}: {reason}"
    return f"{path}: {exc}"


def from_document(cls, raw, where: str):
    """Build ``cls`` from the JSON object ``raw`` after a check of its keys; ``where`` prefixes errors."""
    if not isinstance(raw, dict):
        raise _PathError(f"{where}: expected an object, got {_show(raw)}")
    unknown = sorted(set(raw) - set(_hints(cls)))
    if unknown:
        raise _PathError(f"{where}.{_key(unknown[0])}: unknown key")
    for param in inspect.signature(cls).parameters.values():
        if param.default is param.empty and param.name not in raw:
            raise _PathError(f"{where}.{param.name}: missing")
    try:
        return cls(**raw)
    except ValueError as exc:  # check_kinds' (led by a field path), a semantic check's or numpy's
        raise _PathError(f"{where}{'.' if isinstance(exc, _PathError) else ': '}{exc}") from None


def check_kinds(obj) -> None:
    """Hold each field of the dataclass ``obj`` to its type, storing what ``check_value`` returns."""
    for name, tp in _hints(type(obj)).items():
        object.__setattr__(obj, name, check_value(tp, getattr(obj, name), name))


def check_value(tp, value, where: str):
    """``value`` as a field of type ``tp`` stores it; a ``ConfigError`` starts with ``where``."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise _PathError(f"{where}: expected a finite number, got {_show(value)}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp) or hasattr(tp, "_fields"):  # a dataclass or a NamedTuple
        if isinstance(value, dict):
            value = from_document(tp, value, where)
        elif not isinstance(value, tp):
            raise _PathError(f"{where}: expected an object, got {_show(value)}")
        if not dataclasses.is_dataclass(tp):  # a dataclass checked itself when built
            for name, item in _hints(tp).items():
                check_value(item, getattr(value, name), f"{where}.{name}")
        return value
    if origin in (typing.Union, types.UnionType):  # X | None
        (arm,) = [arm for arm in args if arm is not type(None)]
        return None if value is None else check_value(arm, value, where)
    if tp is object:
        return value
    if tp in _KINDS:
        if isinstance(value, _NUMBERS.get(tp, tp)) and (tp is bool or not isinstance(value, bool)):
            if tp is not float or abs(value) <= sys.float_info.max:  # an int a float can hold
                return tp(value)
        raise _PathError(f"{where}: expected {_KINDS[tp]}, got {_show(value)}")
    if origin is dict:
        if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
            raise _PathError(f"{where}: expected an object, got {_show(value)}")
        return {k: check_value(args[1], v, f"{where}.{_key(k)}") for k, v in value.items()}
    if not isinstance(value, (list, tuple)):
        raise _PathError(f"{where}: expected an array, got {_show(value)}")
    if tp is list:
        return value
    if args[-1] is not Ellipsis and len(args) != len(value):
        raise _PathError(f"{where}: expected {len(args)} items, got {len(value)}")
    items = args[:1] * len(value) if args[-1] is Ellipsis else args
    return tuple(check_value(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))


def _key(key: str) -> str:
    """A key as it reads in a field path: bare when it is an identifier."""
    return key if key.isidentifier() else json.dumps(key)


def _show(value) -> str:
    """The JSON text of ``value``, or its repr, shortened to fit an error line."""
    try:
        text = json.dumps(value)  # NaN and Infinity print as in the file
    except TypeError:  # no JSON value: a numpy scalar, a dict with tuple keys
        text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."
