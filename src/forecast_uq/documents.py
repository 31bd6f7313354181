"""Strict loading of JSON documents into frozen dataclasses, and of CSV tables into arrays.

A class's fields give the allowed keys, the required keys (no default) and
each value's type: bool, int, float, str, object (any value), list (any
array), X | None, tuple[X, ...], tuple[X, Y], dict[str, X], or a nested
dataclass or NamedTuple. ``int`` rejects booleans and floats, ``float``
takes finite numbers only, and every failure is a ``ConfigError`` reading
``<file>.<field path>: <reason>``. Each class calls ``check_kinds`` first
in ``__post_init__``, so the rule holds in Python too; semantic checks follow.

``load_csv`` reads a header line and rows of numbers; every failure is a
``ValueError`` reading ``<file>, line <n>: <reason>``, or ``<file>: <reason>``
when no single line is at fault.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
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
    """Parse the JSON file at ``path`` into a ``cls`` instance."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return from_document(cls, raw, str(path))


# bytes read at a time when counting a CSV file's lines
_COUNT_BLOCK = 1 << 20


def load_csv(path, rows: str) -> tuple[list[str], np.ndarray]:
    """The header cells and an (n, columns) float array of the CSV file at ``path``.

    ``rows`` names the data rows in the message for a file that has none.
    """
    parsed = _load_whole_file(path)
    return parsed if parsed is not None else _scan_lines(path, rows)


def _load_whole_file(path) -> tuple[list[str], np.ndarray] | None:
    """``load_csv``'s result from one ``np.loadtxt`` over the open file, or None.

    loadtxt skips blank lines and needs one cell count on every row, so an
    array with the header's column count and one row per data line is the
    array ``_scan_lines`` would return. Anything else is left to the scan
    (None): a decode or parse error, no data line, a blank first data line
    (loadtxt would warn of no data), or a carriage return, where the text
    reader splits lines that the newline count misses.
    """
    newlines, last, carriage_return = 0, b"", False
    with open(path, "rb") as fh:
        while block := fh.read(_COUNT_BLOCK):
            newlines += block.count(b"\n")
            carriage_return = carriage_return or b"\r" in block
            last = block[-1:]
    data_lines = newlines + (last not in (b"", b"\n")) - 1  # the last line may lack its newline
    if carriage_return or data_lines < 1:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().removesuffix("\n").split(",")
            first = fh.readline()
            if first == "\n":
                return None
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    return (header, data) if data.shape == (data_lines, len(header)) else None


def _scan_lines(path, rows: str) -> tuple[list[str], np.ndarray]:
    """``load_csv`` line by line: the array, or the message that names the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if lines[-1] == "":
        lines.pop()
    # one column of blank lines is no rows either: loadtxt would skip them and warn
    if len(lines) < 2 or "," not in lines[0] and not any(lines[1:]):
        raise ValueError(f"{path}: no {rows} after the header")
    header = lines[0].split(",")
    for number, line in enumerate(lines[1:], start=2):
        if line.count(",") != len(header) - 1:
            raise ValueError(f"{path}, line {number}: {line.count(',') + 1} cells, header has {len(header)}")
    try:
        return header, np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # parse line by line to find the first bad one, with numpy's reason
        for number, line in enumerate(lines[1:], start=2):
            try:
                if line:  # loadtxt skips a blank line, and warns of no data when it is alone
                    np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as line_exc:
                reason = str(line_exc).replace(" at row 0, column ", " in column ")
                raise ValueError(f"{path}, line {number}: {reason}") from None
        raise ValueError(f"{path}: {exc}") from None


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
