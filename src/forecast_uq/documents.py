"""Strict loading of JSON documents into frozen dataclasses, and of CSV tables into arrays.

A class's fields give the allowed keys, the required keys (no default) and
each value's type: bool, int, float, str, object (any value), list (any
array), X | None, tuple[X, ...], tuple[X, Y], dict[str, X], or a nested
dataclass or NamedTuple. ``int`` rejects booleans and floats, ``float``
takes finite numbers only, and every failure is a ``ConfigError`` reading
``<file>.<field path>: <reason>``. Semantic checks stay in ``__post_init__``.

``load_csv`` reads a header line and rows of numbers; every failure is a
``ValueError`` reading ``<file>, line <n>: <reason>``, or ``<file>: <reason>``
when no single line is at fault.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys
import types
import typing

import numpy as np

from .exceptions import ConfigError

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def load_json(path, cls):
    """Parse the JSON file at ``path`` into a ``cls`` instance."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return from_document(cls, raw, str(path))


def load_csv(path, rows: str) -> tuple[list[str], np.ndarray]:
    """The header cells and an (n, columns) float array of the CSV file at ``path``.

    ``rows`` names the data rows in the message for a file that has none.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
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
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as line_exc:
                reason = str(line_exc).replace(" at row 0, column ", " in column ")
                raise ValueError(f"{path}, line {number}: {reason}") from None
        raise ValueError(f"{path}: {exc}") from None


def from_document(cls, raw, where: str):
    """Build ``cls`` from the JSON object ``raw``; ``where`` prefixes error messages."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {_show(raw)}")
    hints = typing.get_type_hints(cls)  # field name: type
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ConfigError(f"{where}.{_key(unknown[0])}: unknown key")
    for param in inspect.signature(cls).parameters.values():
        if param.default is param.empty and param.name not in raw:
            raise ConfigError(f"{where}.{param.name}: missing")
    kwargs = {name: _convert(hints[name], value, f"{where}.{name}") for name, value in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a ConfigError from __post_init__, or numpy's
        raise ConfigError(f"{where}: {exc}") from None


def _convert(tp, value, where: str):
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {_show(value)}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp) or hasattr(tp, "_fields"):  # a dataclass or a NamedTuple
        return from_document(tp, value, where)
    if origin in (typing.Union, types.UnionType):  # X | None
        (arm,) = [arm for arm in args if arm is not type(None)]
        return None if value is None else _convert(arm, value, where)
    if tp is object:
        return value
    if tp in _KINDS:
        number = tp is float and isinstance(value, (int, float))
        if (number or isinstance(value, tp)) and (tp is bool or not isinstance(value, bool)):
            if not number:
                return value
            if abs(value) <= sys.float_info.max:  # an int a float can hold
                return float(value)
        raise ConfigError(f"{where}: expected {_KINDS[tp]}, got {_show(value)}")
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {_show(value)}")
        return {k: _convert(args[1], v, f"{where}.{_key(k)}") for k, v in value.items()}
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected an array, got {_show(value)}")
    if tp is list:
        return value
    if args[-1] is not Ellipsis and len(args) != len(value):
        raise ConfigError(f"{where}: expected {len(args)} items, got {len(value)}")
    items = args[:1] * len(value) if args[-1] is Ellipsis else args
    return tuple(_convert(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))


def _key(key: str) -> str:
    """A key as it reads in a field path: bare when it is an identifier."""
    return key if key.isidentifier() else json.dumps(key)


def _show(value) -> str:
    """The JSON text of ``value``, shortened to fit an error line."""
    text = json.dumps(value)  # NaN and Infinity print as in the file
    return text if len(text) <= 40 else text[:37] + "..."
