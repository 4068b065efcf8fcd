"""Deterministic file formats: JSON configs and reports, RFC 4180 CSV
tables, and a binary grid container.  All writers go through a
write-temp-rename step so partial files never appear under the final
name, and none of the formats embeds wall-clock data.

``canonical_json`` is the one JSON-plaining rule: beyond what ``json``
writes, numpy scalars and arrays become ``tolist()``, enums their value
and dataclasses a dict of their fields (``init=False`` ones too); any
other type raises ``TypeError``, and a NaN or infinity ``ValueError``.

``check_config`` is the one config checker: every config object, from a
command document down to a field's modulus, is a key table checked by it."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import json
import math
import os
import struct
import sys
import tempfile
from enum import Enum
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .solver import DiscreteSolution, PolarGrid

__all__ = [
    "REQUIRED",
    "SCHEMA_VERSION",
    "ConfigError",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "check_config",
    "config_hash",
    "load_config",
    "read_grid",
    "write_csv",
    "write_grid",
    "write_json",
]

SCHEMA_VERSION = 1

# binary grid container, little-endian:
#   bytes 0..3    magic "FLGR"
#   uint32        format version (1)
#   uint32        grid kind, 0 (a disk: the only kind read or written)
#   uint32        n_r
#   uint32        n_theta
#   float64[n_r]  ring radii, ascending
#   float64[n]    nodal values, ring-major, then the origin node
_GRID_MAGIC = b"FLGR"
_GRID_VERSION = 1
_GRID_DISK = 0


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write into the target directory under a temporary name and
    rename over the destination."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path: str, text: str) -> str:
    return atomic_write_bytes(path, text.encode("utf-8"))


def _plain(obj: Any) -> Any:
    """``json``'s fallback, applied again to what it returns."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def canonical_json(obj: Any) -> str:
    """Stable rendering used both for files and for hashing."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
                      allow_nan=False, default=_plain) + "\n"


def config_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path: str, obj: Any) -> str:
    return atomic_write_text(path, canonical_json(obj))


def load_config(path: str) -> dict:
    """Parse a JSON run configuration and check its schema version.
    Parse failures report the line and column; NaN, infinities and
    float literals beyond the float range (``1e400``) are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror}") from err

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: number {literal} is not finite")
        return value

    try:
        doc = json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    schema = doc.get("schema")
    if schema is None:
        raise ConfigError(f"{path}: missing required field 'schema'")
    if _fault(schema, "int") or schema != SCHEMA_VERSION:  # true == 1.0 == 1
        raise ConfigError(
            f"{path}: field 'schema' is {schema!r}; this tool reads "
            f"schema {SCHEMA_VERSION}")
    return doc


REQUIRED = "required"  # the default of a key that must be given
_TYPES = {"int": (int, "an integer"), "number": ((int, float), "a number"),
          "float": ((int, float), "a number"), "str": (str, "a string"),
          "bool": (bool, "true or false"), "object": (dict, "an object")}
# a list type's item type, or a pair's two
_ITEMS = {"floats": "float", "objects": "object", "terms": "term",
          "term": ("int", "float")}


def _fault(value: Any, kind: str) -> Optional[str]:
    """Why ``value`` is not of type ``kind``; None when it is."""
    if kind in _ITEMS:
        pair = isinstance(_ITEMS[kind], tuple)
        if not isinstance(value, (list, tuple)) or not value or (
                pair and len(value) != 2):
            want = "an [int, float] pair" if pair else "a nonempty list"
            return f"expected {want}, got {value!r}"
        kinds = _ITEMS[kind] if pair else [_ITEMS[kind]] * len(value)
        return next(filter(None, map(_fault, value, kinds)), None)
    types, want = _TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) != (
            kind == "bool"):
        return f"expected {want}, got {value!r}"
    if kind == "float" and abs(value) > sys.float_info.max:
        return f"{value!r} is too large for a float"
    return None


def check_config(doc: Any, table: dict, path: str = "",
                 error: type = ConfigError) -> dict:
    """``doc`` checked against ``table``, each absent key set to its
    default; raises ``error`` naming the key's path at the first fault.

    A table maps a key to ``(type, default[, range])``.  The type is a
    nested table or a name: ``int``, ``number`` (of any size), ``float``
    (within the float range; no bool is a number), ``str``, ``bool``,
    ``object``, or a nonempty list of float, object or [int, float]
    (``floats``, ``objects``, ``terms``); a ``?`` suffix also takes null.
    A range such as ``"(0, 1]"`` bounds a value or each item of a list.
    A key mapped to a dict of tables, as ``{"kind": {"linear": {},
    ...}}``, picks by its value the table for the rest of the object.
    Values come back as given, so an integer stays exact."""
    if not isinstance(doc, dict):
        raise error(f"{path or 'config'}: expected an object, got {doc!r}")
    prefix, table = f"{path}." if path else "", dict(table)
    for key, entry in list(table.items()):
        if isinstance(entry, dict):
            choice = doc.get(key)
            if not isinstance(choice, str) or choice not in entry:
                noun = path.rsplit(".", 1)[-1].removesuffix("_spec")
                raise error(f"{prefix}{key}: unknown {noun} {key} "
                            f"{choice!r}; expected {', '.join(entry)}")
            table.update({key: ("str", REQUIRED)}, **entry[choice])
    unknown = [prefix + key for key in doc if key not in table]
    if unknown:
        raise error(f"unknown config keys: {', '.join(unknown)}; expected "
                    f"{', '.join(sorted(table))}")
    out = {}
    for key, (kind, default, *bounds) in table.items():
        value = out[key] = doc.get(key, default)
        if key not in doc and default == REQUIRED:
            raise error(f"{prefix}{key}: missing required key")
        if isinstance(kind, dict):
            out[key] = check_config(value, kind, prefix + key, error)
        elif key in doc and not (value is None and kind.endswith("?")):
            fault = _fault(value, kind.rstrip("?"))
            items = value if kind in _ITEMS else [value]
            if not fault and bounds and not all(
                    _within(v, bounds[0]) for v in items):
                fault = f"{value!r} is not in {bounds[0]}"
            if fault:
                raise error(f"{prefix}{key}: {fault}")
    return out


def _within(value: Any, bounds: str) -> bool:
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    return ((lo < value if bounds[0] == "(" else lo <= value)
            and (value < hi if bounds[-1] == ")" else value <= hi))


def _cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> str:
    """RFC 4180 table: CRLF line endings, minimal quoting, floats
    rendered with full round-trip precision."""
    buf = _io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL,
                        lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return atomic_write_text(path, buf.getvalue())


def write_grid(path: str, solution: DiscreteSolution) -> str:
    grid = solution.grid
    values = np.asarray(solution.values, dtype="<f8")
    if values.size != grid.node_count:
        raise ValueError(
            f"value count {values.size} does not match the grid's "
            f"{grid.node_count} nodes")
    head = _GRID_MAGIC + struct.pack(
        "<IIII", _GRID_VERSION, _GRID_DISK, grid.n_r, grid.n_theta)
    body = grid.radii.astype("<f8").tobytes() + values.tobytes()
    return atomic_write_bytes(path, head + body)


def read_grid(path: str) -> tuple[PolarGrid, np.ndarray]:
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != _GRID_MAGIC:
        raise ConfigError(f"{path}: not a grid file (bad magic)")
    version, kind_code, n_r, n_theta = struct.unpack_from("<IIII", blob, 4)
    if version != _GRID_VERSION:
        raise ConfigError(f"{path}: unsupported grid format {version}")
    if kind_code != _GRID_DISK:
        raise ConfigError(f"{path}: unknown grid kind code {kind_code}")
    offset = 4 + 16
    radii = np.frombuffer(blob, dtype="<f8", count=n_r, offset=offset)
    grid = PolarGrid(radii.copy(), n_theta)
    offset += 8 * n_r
    values = np.frombuffer(blob, dtype="<f8", count=grid.node_count,
                           offset=offset)
    if offset + 8 * grid.node_count != len(blob):
        raise ConfigError(f"{path}: trailing bytes after grid payload")
    return grid, values.copy()
