"""Record serialization for the command-line front end.

All complex numbers are written as two-element ``[re, im]`` arrays; real
matrices are flattened row-major.  Floats go through Python's shortest
round-trip ``repr`` (at most 17 significant digits), so every emitted value
re-parses to the exact in-memory double.

Records are evaluated and written by :func:`write_records`.  A command hands
it its ``(P, m)`` point stack and its column function, which maps a slice of
the points and the slice's start in the grid to field name -> ``(n, ...)``
float stack.  The grid is cut into chunks of :data:`CHUNK_RECORDS` (1024)
records, and every line of a chunk is filled from one ``%s`` template built
from the column shapes.  Each process spells each distinct float bit pattern
once, into a memo that holds at most one chunk's values and is cleared when
a chunk's fresh values would overflow it, so a grid whose records repeat
their values pays ``repr`` for the distinct values only.  Chunks are written
in grid order as each is finished.  With more than one chunk and more than
one CPU, one forked worker evaluates and encodes the odd chunks and sends
each through a pipe, while this process does the even ones; otherwise this
process takes every chunk.  The worker runs on a CPU of its own, the highest
of this process's mask, and this process on the rest, until the worker is
reaped and this process's mask is restored (see :func:`_fork`).  The worker
only speeds the run up: a chunk it does not deliver whole is evaluated here,
together with every later chunk, so the first failure in grid order raises
and a refusal names its index in the whole grid.  The bytes are those of
:func:`dump_line` on each record's dict (JSON spells the non-finite floats
``NaN``, ``Infinity`` and ``-Infinity``) or of ``csv.writer`` on each
record's row, whichever process encodes them.

:func:`read_pair` runs the same kind of worker, placed the same way, for
``compare``: it reads the second file while this process reads the first.
"""

from __future__ import annotations

import io
import json
import os
import signal

import numpy as np

# Records per chunk.  A chunk is one evaluation, one ``repr`` of each of its
# values not yet spelled, and one ``%`` format.  Each process holds about one
# chunk's columns and encoded lines (some 330 kB of group records) and a memo
# of at most one chunk's spelled values.
CHUNK_RECORDS = 1024

_LENGTH_BYTES = 8  # the length prefix of each message a worker sends


def dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(", ", ": "), sort_keys=False)


def _nested(shape) -> str:
    """The ``%s`` template of one value of ``shape``, as nested JSON lists."""
    if not shape:
        return "%s"
    return "[" + ", ".join([_nested(shape[1:])] * shape[0]) + "]"


def _line_template(columns: dict, fmt: str) -> str:
    if fmt == "csv":
        width = sum(col[0].size for col in columns.values())
        return ",".join(["%s"] * width) + "\r\n"
    fields = ['"kind": "record"'] + [
        f"{json.dumps(name).replace('%', '%%')}: {_nested(col.shape[1:])}"
        for name, col in columns.items()
    ]
    return "{" + ", ".join(fields) + "}\n"


def write_records(stream, points, columns, fmt: str = "jsonl") -> None:
    """Evaluate ``columns`` on ``points`` and write one line per record, in
    grid order, to the binary ``stream``, each chunk as soon as it is
    finished.

    ``columns(points[lo:hi], lo)`` gives the fields of the ``(n, m)`` slice
    of the ``(P, m)`` stack that starts at row ``lo``, name -> ``(n, ...)``
    float stack, in key order.  A ``jsonl`` line is ``dump_line`` of
    ``{"kind": "record", name: value.tolist(), ...}``; a ``csv`` line is the
    record's values, flattened row-major, as ``csv.writer`` writes them.

    ``columns`` sees at most :data:`CHUNK_RECORDS` points per call, on every
    path.  The worker, if any, is reaped before this returns or raises.  If
    it ends before it has sent a chunk whole, this process evaluates that
    chunk and every later one, so a failure raises as in one process, after
    every earlier chunk is written.
    """
    bounds = [(lo, min(lo + CHUNK_RECORDS, len(points))) for lo in range(0, len(points), CHUNK_RECORDS)]
    spelled = {}  # the worker spells into its own copy

    def chunk(lo: int, hi: int) -> bytes:
        return _encode(columns(points[lo:hi], lo), fmt, spelled).encode()

    worker = None
    if _second_worker(len(bounds)):
        worker = _fork(lambda send: [send(chunk(lo, hi)) for lo, hi in bounds[1::2]])
    try:
        for i, (lo, hi) in enumerate(bounds):
            data = worker.receive() if worker and i % 2 else None
            if data is None:
                if worker and i % 2:  # the worker stopped short: this process takes the rest
                    worker.close(kill=True)
                    worker = None
                data = chunk(lo, hi)
            stream.write(data)
    except BaseException:
        if worker:
            worker.close(kill=True)
        raise
    if worker:
        worker.close()  # every chunk came whole, whatever the worker did after


def _encode(columns: dict, fmt: str, spelled: dict) -> str:
    """The lines of one chunk of records, field name -> ``(n, ...)`` stack.

    ``spelled`` maps the bit pattern of each float spelled so far to its
    text, so each distinct value is spelled once; the bits keep ``-0.0``
    apart from ``0.0``.  It is emptied first when this chunk's fresh values
    would take it past the chunk's value count."""
    columns = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
    count = len(next(iter(columns.values())))
    block = np.concatenate([col.reshape(count, -1) for col in columns.values()], axis=1)
    keys, inverse = np.unique(block.ravel().view(np.uint64), return_inverse=True)
    keys = keys.tolist()
    fresh = [key for key in keys if key not in spelled]
    if len(spelled) + len(fresh) > block.size:
        spelled.clear()
        fresh = keys
    values = np.array(fresh, dtype=np.uint64).view(float)
    spell = json.dumps if fmt == "jsonl" and not np.isfinite(values).all() else repr
    spelled.update(zip(fresh, map(spell, values.tolist())))
    words = np.array([spelled[key] for key in keys], dtype=object)
    return (_line_template(columns, fmt) * count) % tuple(words[inverse].tolist())


def read_pair(read, first, second) -> tuple:
    """``(read(first), read(second))``, where ``read`` returns a tuple of
    arrays.  With more than one CPU a forked worker runs ``read(second)``
    while this process runs ``read(first)``, and the worker's arrays come
    back through the pipe in ``.npy`` format.  If the worker fails, this
    process runs ``read(second)`` itself, so it raises what one process
    would."""
    worker = _fork(lambda send: [send(_npy(array)) for array in read(second)]) if _second_worker(2) else None
    if worker is None:
        return read(first), read(second)
    try:
        result = read(first)
        other = tuple(np.load(io.BytesIO(data), allow_pickle=False) for data in iter(worker.receive, None))
    except BaseException:
        worker.close(kill=True)
        raise
    if worker.close():  # the worker failed, maybe in the middle of a message
        other = read(second)
    return result, other


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _second_worker(n_chunks: int) -> bool:
    """Whether a second process should work: more than one chunk, and
    ``os.fork`` and more than one CPU available to this process."""
    if n_chunks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) > 1


class _Worker:
    """A forked process and the read end of the pipe it sends messages to."""

    def __init__(self, pid: int, pipe, restore=None):
        self.pid = pid
        self.pipe = pipe
        self.restore = restore  # this process's CPU mask before the fork, if it was narrowed

    def receive(self) -> bytes | None:
        """The next message, or None at the end of the stream or if the
        stream ends in the middle of a message."""
        prefix = self.pipe.read(_LENGTH_BYTES)
        if len(prefix) < _LENGTH_BYTES:
            return None
        size = int.from_bytes(prefix, "little")
        data = self.pipe.read(size)
        return data if len(data) == size else None

    def close(self, kill: bool = False) -> int:
        """Kill the process if asked, close the pipe and reap the process:
        its wait status.  This process gets back the CPU mask it had before
        the fork, however the reaping ends."""
        try:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.pipe.close()
            return os.waitpid(self.pid, 0)[1]
        finally:
            _bind(self.restore)


def _bind(cpus) -> bool:
    """Bind this thread to the set ``cpus``, if given: whether it was."""
    if not cpus:
        return False
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _fork(produce):
    """Fork one worker that runs ``produce(send)``, where ``send(data)``
    writes one message, length first, to the pipe the returned
    :class:`_Worker` reads; None if no process can be forked.  The worker
    leaves only through ``os._exit``, and fails silently, because its caller
    then does the work itself.

    With two or more CPUs in this thread's mask, the worker binds itself to
    the highest of them and this thread to the others, so the two never
    queue for one CPU; :meth:`_Worker.close` gives this thread its mask
    back.  A one-CPU mask, or a platform or call that refuses the binding,
    leaves that process unbound."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    own = {max(cpus)} if len(cpus) > 1 else None  # the worker's CPU
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller does all the work
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            _bind(own)
            os.close(read_fd)
            pipe = os.fdopen(write_fd, "wb")

            def send(data: bytes) -> None:
                pipe.write(len(data).to_bytes(_LENGTH_BYTES, "little"))
                pipe.write(data)
                pipe.flush()

            produce(send)
            pipe.close()
            status = 0
        finally:
            os._exit(status)  # never return into the caller, nor flush its buffers
    os.close(write_fd)
    restore = cpus if own and _bind(cpus - own) else None
    return _Worker(pid, os.fdopen(read_fd, "rb"), restore)


def read_jsonl(path: str):
    """The objects of a jsonl file, parsed one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
