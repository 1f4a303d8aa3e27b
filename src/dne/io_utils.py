"""CSV/JSON serialization with atomic writes."""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from typing import Iterable

import numpy as np

from .meshing import DiscreteField, Mesh

VERTEX_TOL = 1e-12  # largest coordinate mismatch of a field file and the mesh


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the strings `chunks` in order via a temporary file in the same
    directory, then rename.  A single text is passed as `[text]`: a bare str
    would be written one character at a time."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def field_to_csv(field: DiscreteField) -> str:
    cols = "x,value" if field.mesh.dimension == 1 else "x,y,value"
    values = map(repr, field.values.tolist())
    rows = map(str.__add__, field.mesh.coordinate_text, values)
    return "\n".join([f"# columns: {cols}", *rows]) + "\n"


def write_field_csv(field: DiscreteField, path: str) -> None:
    atomic_write_text(path, [field_to_csv(field)])


def read_field_csv(path: str, points: np.ndarray, where: str) -> np.ndarray:
    """The value column of the field file at `path`, one row per point of
    `points` (the mesh's `where`), whose coordinate columns must be those
    points to VERTEX_TOL.  An unreadable file raises OSError, a malformed or
    mismatched one ValueError."""
    table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if len(table) != len(points):
        raise ValueError(f"file {path} has {len(table)} values for "
                         f"{len(points)} {where}")
    coords = table[:, :-1]
    # negated, so that a nan coordinate is a mismatch too
    if coords.shape != points.shape or not np.abs(coords - points).max() <= VERTEX_TOL:
        raise ValueError(f"file {path} does not match the {where}")
    return table[:, -1].copy()


def field_from_csv(mesh: Mesh, path: str) -> DiscreteField:
    return DiscreteField(mesh, read_field_csv(path, mesh.vertices, "mesh vertices"))


JSON_BATCH = 512  # encoder chunks joined into one write (a few KB of text)


def write_json(payload, path: str) -> None:
    """`json.dumps(payload, indent=2, sort_keys=True)` and a newline, written
    as the encoder produces it, JSON_BATCH chunks joined at a time: the whole
    text is never held, and `writelines` gets few strings, not one per key,
    value and separator."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    batches = ("".join(batch) for batch in
               iter(lambda: list(itertools.islice(chunks, JSON_BATCH)), []))
    atomic_write_text(path, itertools.chain(batches, ["\n"]))
