"""File formats: every rule for writing and reading anchorpriv's files.

Floats carry 17 significant digits, enough to round-trip float64, so a
rerun reproduces each file byte for byte. JSON files use indent 1, sorted
keys and a trailing newline. The mechanism file and the instance bundle
are one JSON document each, with a format name and a version, and share
the partition and outputs blocks; their checked readers raise ValueError
naming a missing or mistyped field.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .apo import OutputDomain
from .geometry import Partition

__all__ = [
    "float_text", "write_text", "write_json", "read_json", "csv_text", "read_float_csv",
    "check_header", "field", "optional_number", "read_array", "partition_block",
    "read_partition", "outputs_block", "read_outputs",
]


def float_text(value) -> str:
    """``value`` as a float with 17 significant digits (exact round trip)."""
    return format(float(value), ".17g")


def write_text(path, text: str):
    """Write ``text`` to ``path``, creating its parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_json(path, payload: dict):
    """Write ``payload`` as JSON: indent 1, sorted keys, trailing newline."""
    write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cell(value) -> str:
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return float_text(value)


def csv_text(header, rows) -> str:
    """CSV text of ``rows`` under ``header``.

    A float cell is written with 17 significant digits, an int in
    decimal, None as an empty cell and a str as it is.
    """
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def read_float_csv(path) -> np.ndarray:
    """(rows, columns) array of a CSV file whose cells below the header are all floats."""
    header, *lines = Path(path).read_text().splitlines() or [""]
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines if line]
        return np.array(rows, dtype=float).reshape(len(rows), len(header.split(",")))
    except ValueError as exc:
        raise ValueError(f"malformed CSV {path}: {exc}") from exc


def field(d: dict, path: str, what: str):
    """Value at the dotted ``path`` of the ``what`` dict; ValueError naming it if absent."""
    value = d
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{what} lacks field {path!r}")
        value = value[key]
    return value


def check_header(d, kind: str, version: int):
    """ValueError unless ``d`` is an ``anchorpriv-<kind>`` document at ``version``."""
    if not isinstance(d, dict) or d.get("format") != f"anchorpriv-{kind}":
        raise ValueError(f"not an anchorpriv {kind} (format is not 'anchorpriv-{kind}')")
    found = field(d, "version", kind)
    if type(found) is not int or found != version:
        raise ValueError(f"{kind} file version {found!r} is not supported; "
                         f"this release reads version {version}")


def read_array(d: dict, path: str, what: str, ndim: int) -> np.ndarray:
    """Float array of the numbers at ``path`` of the ``what`` dict.

    The array must have ``ndim`` axes (unless it is empty) and finite
    entries; a missing field, a ragged array, a non-number or a
    non-finite entry raises ValueError naming ``path``.
    """
    try:
        values = np.asarray(field(d, path, what))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} field {path!r}: {exc}") from exc
    if values.dtype.kind not in "iuf" or (values.size and values.ndim != ndim):
        raise ValueError(f"{what} field {path!r} must be a {ndim}-D array of numbers")
    values = values.astype(float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} field {path!r} must hold finite numbers")
    return values


def optional_number(d: dict, key: str, what: str):
    """Optional numeric field ``key`` of the ``what`` dict (None when null or absent)."""
    value = d.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{what} field {key!r} must be a number or null, got {value!r}")
    return value


def partition_block(partition: Partition) -> dict:
    lo, hi = partition.bounds
    return {
        "lower": [float(v) for v in lo],
        "upper": [float(v) for v in hi],
        "counts": [int(c) for c in partition.counts],
    }


def read_partition(d: dict, what: str) -> Partition:
    """The partition of the ``what`` dict's ``partition`` block."""
    return Partition(*(read_array(d, f"partition.{key}", what, 1)
                       for key in ("lower", "upper", "counts")))


def outputs_block(outputs: OutputDomain) -> dict:
    return {
        "points": [[float(v) for v in pt] for pt in outputs.points],
        "labels": list(outputs.labels),
    }


def read_outputs(d: dict, what: str) -> OutputDomain:
    """The output candidates of the ``what`` dict's ``outputs`` block."""
    points = read_array(d, "outputs.points", what, 2)
    labels = field(d, "outputs.labels", what)
    try:
        return OutputDomain(points=points, labels=tuple(labels))
    except TypeError as exc:
        raise ValueError(f"malformed {what} outputs: {exc}") from exc
