"""Readers for the on-disk formats the CLI accepts.

Structural problems raise SchemaError (exit code 2 at the CLI); values that
parse but violate mathematical invariants raise ValueError from the library
types (exit code 3).
"""

from __future__ import annotations

import json

import numpy as np

from .functionals import as_count
from .gpt import ConvexModel
from .quantum import DensityOperator


class SchemaError(Exception):
    """Input parsed as text but does not match the expected structure."""


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text; other bytes raise OSError naming the path (exit code 1)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise OSError(f"{path}: not UTF-8 text") from None


def _all_numbers(values) -> bool:
    """Whether every item is a JSON number; true, false, strings and null are not."""
    # bool is a subclass of int, so it is excluded by name.
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def _number_array(text: str, where: str) -> np.ndarray:
    """A non-empty JSON array of numbers; JSON true, false and strings are not numbers."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a non-empty JSON array")
    if not _all_numbers(data):
        raise SchemaError(f"{where}: array entries must be numbers")
    try:
        return np.array(data, dtype=float)
    except OverflowError:
        raise SchemaError(f"{where}: array entry out of float range") from None


def read_vector(path: str) -> np.ndarray:
    """A JSON array of numbers, or a CSV file with one number per line."""
    text = _read_text(path)
    stripped = text.strip()
    if not stripped:
        raise SchemaError(f"{path}: empty input")
    if stripped.startswith("["):
        return _number_array(stripped, path)
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "," in line:
            raise SchemaError(f"{path}:{lineno}: expected a single column")
        try:
            values.append(float(line))
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: not a number: {line!r}") from None
    if not values:
        raise SchemaError(f"{path}: no numeric rows found")
    return np.array(values, dtype=float)


def _json_object(path: str, required: tuple) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key in required:
        if key not in data:
            raise SchemaError(f"{path}: missing required key {key!r}")
    return data


def _number_rows(path: str, data, key: str) -> np.ndarray:
    """A JSON list of equal-length lists of numbers, as a 2-d float array."""
    if not (isinstance(data, list) and all(isinstance(row, list) and _all_numbers(row) for row in data)):
        raise SchemaError(f"{path}: {key!r} must be a list of rows of numbers")
    try:
        return np.array(data, dtype=float)
    except ValueError:
        raise SchemaError(f"{path}: {key!r} rows must have equal lengths") from None
    except OverflowError:
        raise SchemaError(f"{path}: {key!r} entry out of float range") from None


def _square_matrix(path: str, data, key: str, dim: int) -> np.ndarray:
    m = _number_rows(path, data, key)
    if m.shape != (dim, dim):
        raise SchemaError(f"{path}: {key!r} must be {dim} x {dim}, got {m.shape}")
    return m


def _dim(path: str, data: dict) -> int:
    """The positive integer under 'dim', read by as_count: 2.0 counts, 1.9, true and "2" do not."""
    try:
        dim = as_count(data["dim"], "'dim'")
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if dim < 1:
        raise SchemaError(f"{path}: 'dim' must be positive")
    return dim


def _complex_matrix(path: str) -> np.ndarray:
    """JSON object with keys dim, re, im (im optional, defaults to zero)."""
    data = _json_object(path, required=("dim", "re"))
    dim = _dim(path, data)
    re = _square_matrix(path, data["re"], "re", dim)
    im = (
        _square_matrix(path, data["im"], "im", dim)
        if "im" in data
        else np.zeros((dim, dim))
    )
    return re + 1j * im


def read_density(path: str) -> DensityOperator:
    """JSON object with keys dim, re, im (im optional, defaults to zero)."""
    return DensityOperator(_complex_matrix(path))


def read_basis(path: str) -> np.ndarray:
    """Same shape as a density file; columns are the basis vectors."""
    return _complex_matrix(path)


def read_model(path: str) -> ConvexModel:
    """JSON object with keys dim and vertices (list of length-dim points)."""
    data = _json_object(path, required=("dim", "vertices"))
    dim = _dim(path, data)
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise SchemaError(f"{path}: 'vertices' must be a non-empty list")
    V = _number_rows(path, vertices, "vertices")
    if V.shape[1] != dim:
        raise SchemaError(f"{path}: vertices must each have {dim} coordinates")
    return ConvexModel(V)


def parse_state(text: str) -> np.ndarray:
    """A state given inline as a JSON array of numbers."""
    return _number_array(text, "state")
