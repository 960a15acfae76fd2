"""Record serialization for the command-line front end.

All complex numbers are written as two-element ``[re, im]`` arrays; real
matrices are flattened row-major.  Floats go through Python's shortest
round-trip ``repr`` (at most 17 significant digits), so every emitted value
re-parses to the exact in-memory double.

Records are written from column stacks by :func:`write_records`: each field
is a ``(P, ...)`` float array, and every line is filled from one ``%r``
template built once from the column shapes.  The records go out in chunks of
:data:`CHUNK_RECORDS`.  When there is more than one chunk and more than one
CPU, one forked process encodes the odd chunks while this one encodes the
even chunks, and this process writes all of them in order.  The bytes are
those of :func:`dump_line` on each record's dict (JSON spells the
non-finite floats ``NaN``, ``Infinity`` and ``-Infinity``) or of
``csv.writer`` on each record's row, whichever path writes them.
"""

from __future__ import annotations

import json
import os
import signal
import traceback

import numpy as np

# Records per chunk.  A chunk is one ``tolist`` and one ``%`` format, and
# each process holds about one encoded chunk (some 1.3 MB of group records).
CHUNK_RECORDS = 4096

_LENGTH_BYTES = 8  # the length prefix of each chunk the child sends


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


class _JsonFloat(float):
    """A float whose ``repr`` is its JSON spelling, ``Infinity`` for ``inf``."""

    def __repr__(self):
        return json.dumps(float(self))


def _nested(shape) -> str:
    """The ``%r`` template of one value of ``shape``, as nested JSON lists."""
    if not shape:
        return "%r"
    return "[" + ", ".join([_nested(shape[1:])] * shape[0]) + "]"


def _line_template(columns: dict, fmt: str) -> str:
    if fmt == "csv":
        width = sum(col[0].size for col in columns.values())
        return ",".join(["%r"] * width) + "\r\n"
    fields = ['"kind": "record"'] + [
        f"{json.dumps(name).replace('%', '%%')}: {_nested(col.shape[1:])}"
        for name, col in columns.items()
    ]
    return "{" + ", ".join(fields) + "}\n"


def write_records(stream, columns: dict, fmt: str = "jsonl") -> None:
    """Write one line per record from ``columns``, field name -> ``(P, ...)``
    float stack, in key order.  A ``jsonl`` line is ``dump_line`` of
    ``{"kind": "record", name: value.tolist(), ...}``; a ``csv`` line is the
    record's values, flattened row-major, as ``csv.writer`` writes them.

    The child process, if any, leaves only through ``os._exit`` and is
    reaped before this returns or raises.  A child that fails or sends a
    short chunk raises :class:`RuntimeError`, so no truncated output passes
    for a finished one.
    """
    columns = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
    stacks = list(columns.values())
    count = len(stacks[0])
    line = _line_template(columns, fmt)

    def encode(lo: int, hi: int) -> str:
        block = np.concatenate([s[lo:hi].reshape(hi - lo, -1) for s in stacks], axis=1)
        values = block.ravel().tolist()
        if fmt == "jsonl" and not np.isfinite(block).all():
            values = [_JsonFloat(x) for x in values]
        return (line * (hi - lo)) % tuple(values)

    chunks = [(lo, min(lo + CHUNK_RECORDS, count)) for lo in range(0, count, CHUNK_RECORDS)]
    pid, pipe = _fork_encoder(encode, chunks[1::2]) if _second_worker(len(chunks)) else (0, None)
    workers = 2 if pid else 1
    status = 0
    try:
        for i, (lo, hi) in enumerate(chunks):
            stream.write(encode(lo, hi) if i % workers == 0 else _receive(pipe))
    except BaseException:
        if pid:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:
            pipe.close()
            status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"record encoder process failed (wait status {status})")


def _second_worker(n_chunks: int) -> bool:
    """Whether a second process should encode: more than one chunk, and
    ``os.fork`` and more than one CPU available to this process."""
    if n_chunks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) > 1


def _fork_encoder(encode, chunks):
    """Fork one process that encodes ``chunks`` in order and writes each to a
    pipe, length first; returns its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: this one encodes every chunk
        os.close(read_fd)
        os.close(write_fd)
        return 0, None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                for lo, hi in chunks:
                    data = encode(lo, hi).encode()
                    pipe.write(len(data).to_bytes(_LENGTH_BYTES, "little"))
                    pipe.write(data)
            status = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)  # never return into the caller, nor flush its buffers
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _receive(pipe) -> str:
    """The next chunk the child sent; a short read raises RuntimeError."""
    prefix = pipe.read(_LENGTH_BYTES)
    size = int.from_bytes(prefix, "little")
    data = pipe.read(size)
    if len(prefix) < _LENGTH_BYTES or len(data) < size:
        raise RuntimeError("record encoder process ended before sending every chunk")
    return data.decode()


def read_jsonl(path: str):
    """The objects of a jsonl file, parsed one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
