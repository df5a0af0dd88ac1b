"""The file formats packedflow reads and writes, decided in one place.

``read_bytes`` reads every input file, ``decode_json`` decodes every JSON input, and ``_read`` reads
every JSON object of leaf values (a config section, a model header's ``spec``, ``scaler.json``) into its
dataclass, never coercing a value.  Report CSVs are written by ``write_csv``, JSON by ``write_json``.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import MISSING, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = ["ConfigError", "decode_json", "is_file_name", "read_bytes", "read_json", "write_csv", "write_json"]


class ConfigError(ValueError):
    """Every input fault: an unreadable input path (see ``read_bytes``), a malformed config, simulation
    CSV or manifest, model file or scaler, or an unscorable split.  The CLI exits 2 on it alone."""


def is_file_name(name: str) -> bool:
    """Whether ``name`` is one file-name component: not empty, ``.`` or ``..``, and no ``/``, ``\\`` or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def decode_json(data: bytes, source) -> dict:
    """The JSON object in the UTF-8 bytes ``data``, no object repeating a key; anything
    else is a ConfigError naming ``source`` (a file, or a model header and its offset)."""
    try:
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError and a repeated key
        raise ConfigError(f"{source}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    return obj


def read_bytes(path) -> bytes:
    """The bytes of the input file ``path``; an ``OSError`` or a NUL byte is a ConfigError naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except ValueError as exc:
        raise ConfigError(f"{exc}: {str(path)!r}") from None


def read_json(path) -> dict:
    """The JSON object in the file ``path``, read by :func:`read_bytes`, decoded by :func:`decode_json`."""
    return decode_json(read_bytes(path), path)


def _check_keys(obj: dict, where: str, required, optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _read(cls, obj: dict, where: str, **given):
    """A ``cls`` built from the JSON object ``obj``, or a ConfigError naming ``where``.

    The keys of ``obj`` are the fields of ``cls`` other than those in
    ``given``: a field with a default may be left out, one without must be set.
    Each value must have exactly its field's JSON type (see ``_value``); a dataclass field must be given.
    """
    settable = [f for f in fields(cls) if f.name not in given]
    required = [f.name for f in settable if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(obj, where, required, [f.name for f in settable])
    kinds = get_type_hints(cls)
    values = {name: _value(kinds[name], value, f"{where}: {name!r}") for name, value in obj.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(kind, value, where: str):
    """``value`` checked against the field annotation ``kind``, never coerced.

    ``kind`` is a leaf, never a dataclass: a nested section is read by its own ``_read`` call.
    ``tuple[T, ...]`` takes a list of ``T`` and ``tuple[T, T]`` a list of two; ``np.ndarray``
    takes a list of finite numbers, returned as a float64 array.  A float field takes any
    finite JSON number and returns it as a float.
    """
    if kind is np.ndarray:
        return np.array(_value(tuple[float, ...], value, where), dtype=np.float64)
    if get_origin(kind) is tuple:
        items = get_args(kind)
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {json.dumps(value)}")
        if items[1:] == (Ellipsis,):
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigError(f"{where}: expected a list of {len(items)}, got {json.dumps(value)}")
        return tuple(_value(item, v, f"{where}[{i}]") for i, (item, v) in enumerate(zip(items, value)))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    valid, expected = {
        bool: (isinstance(value, bool), "true or false"),
        int: (number and isinstance(value, int), "an integer"),
        float: (number and abs(value) <= sys.float_info.max, "a finite number"),
        str: (isinstance(value, str), "a string"),
    }[kind]
    if not valid:
        raise ConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def write_csv(path, header, rows) -> None:
    """Write a report CSV in the ``csv`` default dialect: CRLF line ends, floats
    as ``repr``, booleans as ``True``/``False`` and ``None`` as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """Write ``obj`` as strict JSON indented by 2, keys sorted, with a final newline.

    A NaN or an infinity raises ``ValueError`` before the file is opened.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
