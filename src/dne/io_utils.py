"""CSV/JSON serialization with atomic writes."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

from .meshing import DiscreteField

VERTEX_TOL = 1e-12  # largest coordinate mismatch of a field file and the mesh


@contextlib.contextmanager
def atomic_open(path: str):
    """A text handle on a temporary file in the directory of `path`: the file
    replaces `path` when the block ends, and is removed if the block raises,
    leaving an existing `path` as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
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


def write_json(payload, path: str) -> None:
    """`json.dumps(payload, indent=2, sort_keys=True)` and a newline, written
    as the encoder produces it: the whole text is never held."""
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
