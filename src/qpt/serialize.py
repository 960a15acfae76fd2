"""Record serialization for the command-line front end.

All complex numbers are written as two-element ``[re, im]`` arrays; real
matrices are flattened row-major.  Floats go through Python's shortest
round-trip ``repr`` (at most 17 significant digits), so every emitted value
re-parses to the exact in-memory double.
"""

from __future__ import annotations

import json

import numpy as np


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_pairs(v) -> list[list[float]]:
    return [complex_pair(z) for z in np.asarray(v, dtype=complex)]


def real_matrix_row_major(m) -> list[float]:
    return [float(x) for x in np.asarray(m, dtype=float).reshape(-1)]


def dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(", ", ": "), sort_keys=False)


def write_jsonl(stream, objects) -> None:
    for obj in objects:
        stream.write(dump_line(obj))
        stream.write("\n")


def read_jsonl(path: str):
    """The objects of a jsonl file, parsed one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
