"""Record serialization for the command-line front end.

All complex numbers are written as two-element ``[re, im]`` arrays; real
matrices are flattened row-major.  Floats go through Python's shortest
round-trip ``repr`` (at most 17 significant digits), so every emitted value
re-parses to the exact in-memory double.

Records are evaluated and written by :func:`write_records`.  A command hands
it its ``(P, m)`` point stack and its column function, which maps a slice of
the points to field name -> ``(n, ...)`` float stack.  The grid is cut into
chunks of :data:`CHUNK_RECORDS` (1024) records, and every line of a chunk is
filled from one ``%s`` template built from the column shapes.  Each process
spells each distinct float bit pattern once, into a memo that holds at most
one chunk's values and is cleared when a chunk's fresh values would overflow
it, so a grid whose records repeat their values pays ``repr`` for the
distinct values only.  When there is more than one chunk and more than one
CPU, one forked worker evaluates and encodes the odd chunks while this
process evaluates and encodes the even chunks.  Each process evaluates all of
its chunks first.  The worker then reports ready, and only then is the output
opened, its header written and the chunks written in order.  If either
process fails before the worker is ready, the worker is killed and reaped
and this process evaluates the whole grid at once, as it does without a
worker: a refusal keeps its message and its index in the whole grid, and no
output file is left.  A worker that fails or stops short after it is ready
raises :class:`RuntimeError`.  The bytes are those of :func:`dump_line` on
each record's dict (JSON spells the non-finite floats ``NaN``, ``Infinity``
and ``-Infinity``) or of ``csv.writer`` on each record's row, whichever
process encodes them.

:func:`read_pair` runs the same kind of worker for ``compare``: it reads
the second file while this process reads the first.
"""

from __future__ import annotations

import io
import json
import os
import signal
import traceback

import numpy as np

# Records per chunk.  A chunk is one evaluation, one ``repr`` of each of its
# values not yet spelled, and one ``%`` format.  Each process holds about one
# encoded chunk (some 330 kB of group records) and a memo of at most one
# chunk's spelled values next to the columns of its half of the grid.
CHUNK_RECORDS = 1024

_LENGTH_BYTES = 8  # the length prefix of each message a worker sends
_READY = b"ready"  # the record worker's first message: its chunks are evaluated


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


def write_records(open_output, points, columns, fmt: str = "jsonl") -> None:
    """Evaluate ``columns`` on ``points`` and write one line per record, in
    order, to the stream that ``open_output()`` opens: a context manager,
    entered only once every record is evaluated, so a run that fails in
    evaluation leaves no output.

    ``columns`` maps a ``(n, m)`` slice of the ``(P, m)`` stack ``points``
    to its fields, name -> ``(n, ...)`` float stack, in key order.  A
    ``jsonl`` line is ``dump_line`` of ``{"kind": "record", name:
    value.tolist(), ...}``; a ``csv`` line is the record's values, flattened
    row-major, as ``csv.writer`` writes them.

    The worker process, if any, leaves only through ``os._exit`` and is
    reaped before this returns or raises.  A failure of either process
    before the worker is ready is not an error of its own: the whole grid is
    evaluated again here, so it raises what one process would.  A worker
    that fails or stops short after that raises :class:`RuntimeError`, so
    no truncated output passes for a finished one.
    """
    bounds = [(lo, min(lo + CHUNK_RECORDS, len(points))) for lo in range(0, len(points), CHUNK_RECORDS)]
    worker, spelled = None, {}  # the worker spells into its own copy
    if _second_worker(len(bounds)):
        worker = _fork(lambda send: _evaluate_and_send(send, points, columns, bounds[1::2], fmt, spelled))
    try:
        parts = None
        if worker:
            try:
                parts = [columns(points[lo:hi]) for lo, hi in bounds[::2]]
                if worker.receive() != _READY:
                    parts = None
            except Exception:  # evaluated again below, where it raises for the whole grid
                parts = None
            if parts is None:
                worker.close(kill=True)
                worker = None
        if worker is None:
            whole = columns(points)
            parts = [{name: col[lo:hi] for name, col in whole.items()} for lo, hi in bounds]
        step = 2 if worker else 1
        with open_output() as stream:
            for i in range(len(bounds)):
                stream.write(_encode(parts[i // step], fmt, spelled) if i % step == 0 else _chunk_from(worker))
    except BaseException:
        if worker:
            worker.close(kill=True)
        raise
    status = worker.close() if worker else 0
    if status:
        raise RuntimeError(f"record worker process failed (wait status {status})")


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


def _evaluate_and_send(send, points, columns, bounds, fmt: str, spelled: dict) -> None:
    """The worker's half: evaluate every chunk of ``bounds``, report ready,
    then send each chunk's lines in order."""
    parts = [columns(points[lo:hi]) for lo, hi in bounds]
    send(_READY)
    for part in parts:
        send(_encode(part, fmt, spelled).encode())


def _chunk_from(worker) -> str:
    data = worker.receive()
    if data is None:
        raise RuntimeError("record worker process ended before sending every chunk")
    return data.decode()


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
        try:
            other = tuple(np.load(io.BytesIO(data), allow_pickle=False)
                          for data in iter(worker.receive, None))
        except RuntimeError:  # a message cut short: the worker failed
            other = None
    except BaseException:
        worker.close(kill=True)
        raise
    if worker.close() or other is None:
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

    def __init__(self, pid: int, pipe):
        self.pid = pid
        self.pipe = pipe

    def receive(self) -> bytes | None:
        """The next message, or None at the end of the stream; a message
        cut short raises :class:`RuntimeError`."""
        prefix = self.pipe.read(_LENGTH_BYTES)
        if not prefix:
            return None
        size = int.from_bytes(prefix, "little")
        data = self.pipe.read(size)
        if len(prefix) < _LENGTH_BYTES or len(data) < size:
            raise RuntimeError("worker process ended in the middle of a message")
        return data

    def close(self, kill: bool = False) -> int:
        """Kill the process if asked, close the pipe and reap the process:
        its wait status."""
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        self.pipe.close()
        return os.waitpid(self.pid, 0)[1]


def _fork(produce):
    """Fork one worker that runs ``produce(send)``, where ``send(data)``
    writes one message, length first, to the pipe the returned
    :class:`_Worker` reads; None if no process can be forked.  The worker
    leaves only through ``os._exit``.  A failure before its first message is
    silent, because its caller then does the work itself; a later one
    prints its traceback."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller does all the work
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status, sent = 1, False
        try:
            os.close(read_fd)
            pipe = os.fdopen(write_fd, "wb")

            def send(data: bytes) -> None:
                nonlocal sent
                pipe.write(len(data).to_bytes(_LENGTH_BYTES, "little"))
                pipe.write(data)
                pipe.flush()
                sent = True

            produce(send)
            pipe.close()
            status = 0
        except BaseException:
            # Reported while the pipe is still open: once it closes, the
            # parent may kill this process before a traceback is written.
            if sent:
                os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)  # never return into the caller, nor flush its buffers
    os.close(write_fd)
    return _Worker(pid, os.fdopen(read_fd, "rb"))


def read_jsonl(path: str):
    """The objects of a jsonl file, parsed one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
