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


def read_field_csv(path: str):
    """Returns (coords array, values array) from a field CSV."""
    coords, values = [], []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [float(p) for p in line.split(",")]
                coords.append(parts[:-1])
                values.append(parts[-1])
    except OSError as exc:
        raise OSError(f"cannot read field file {path}: {exc}") from exc
    return np.asarray(coords), np.asarray(values)


def field_from_csv(mesh: Mesh, path: str) -> DiscreteField:
    coords, values = read_field_csv(path)
    if (coords.shape != mesh.vertices.shape
            or np.max(np.abs(coords - mesh.vertices)) > VERTEX_TOL):
        raise ValueError(f"field file {path} does not match the mesh vertices")
    return DiscreteField(mesh, values)


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
