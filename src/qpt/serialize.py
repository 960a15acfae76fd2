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
their values pays ``repr`` for the distinct values only.  The bytes are
those of :func:`dump_line` on each record's dict (JSON spells the non-finite
floats ``NaN``, ``Infinity`` and ``-Infinity``) or of ``csv.writer`` on each
record's row, whichever process encodes them.

With more than one chunk and more than one CPU, the grid is cut in two
halves (see :func:`_beside`).  This process writes the first half of the
chunks to the stream in grid order, each as it is finished, while one forked
worker writes the second half into an unnamed temporary file, which is
appended to the stream once the worker has exited 0.  If the worker fails,
this process evaluates the second half itself, so the first failure in grid
order raises and a refusal names its index in the whole grid.  A failure in
the second half is thus seen only after the first half is done, and then
takes one-CPU time.  The worker's half (about half the record bytes) sits in
``TMPDIR`` until it is appended.

:func:`read_pair` shares its work the same way for ``compare``: the worker
reads the second file and saves its stacks with ``np.savez`` into its file,
while this process reads the first.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import tempfile

import numpy as np

# Records per chunk.  A chunk is one evaluation, one ``repr`` of each of its
# values not yet spelled, and one ``%`` format.  Each process holds about one
# chunk's columns and encoded lines (some 330 kB of group records) and a memo
# of at most one chunk's spelled values.
CHUNK_RECORDS = 1024


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
    grid order, to the binary ``stream``.

    ``columns(points[lo:hi], lo)`` gives the fields of the ``(n, m)`` slice
    of the ``(P, m)`` stack that starts at row ``lo``, name -> ``(n, ...)``
    float stack, in key order.  A ``jsonl`` line is ``dump_line`` of
    ``{"kind": "record", name: value.tolist(), ...}``; a ``csv`` line is the
    record's values, flattened row-major, as ``csv.writer`` writes them.

    ``columns`` sees at most :data:`CHUNK_RECORDS` points per call, on every
    path.  This process writes the first half of the chunks, each as soon as
    it is finished; a worker, if any, writes the second half into its file,
    checking before each chunk that the process it was forked from still
    lives.  If the worker fails, this process evaluates the second half
    itself, so a failure raises as in one process, after every earlier chunk
    is written.
    """
    bounds = [(lo, min(lo + CHUNK_RECORDS, len(points))) for lo in range(0, len(points), CHUNK_RECORDS)]
    cut = (len(bounds) + 1) // 2
    spelled = {}  # the worker spells into its own copy
    parent = os.getpid()

    def write(out, part, worker=False) -> None:
        for lo, hi in part:
            if worker and os.getppid() != parent:
                raise ChildProcessError("the process this worker was forked from is gone")
            out.write(_encode(columns(points[lo:hi], lo), fmt, spelled).encode())

    with _beside(lambda: write(stream, bounds[:cut]), lambda file: write(file, bounds[cut:], True),
                 len(bounds)) as (_, rest):
        if rest is None:
            write(stream, bounds[cut:])
        else:
            shutil.copyfileobj(rest, stream)


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
    and ``np.savez``es the arrays into its file while this process runs
    ``read(first)``.  If the worker fails, this process runs
    ``read(second)`` itself, so it raises what one process would."""
    with _beside(lambda: read(first), lambda file: np.savez(file, *read(second))) as (result, file):
        if file is None:
            return result, read(second)
        with np.load(file, allow_pickle=False) as arrays:
            return result, tuple(arrays[name] for name in arrays.files)


def _second_worker(n_chunks: int) -> bool:
    """Whether a second process should work: more than one chunk, and
    ``os.fork`` and more than one CPU available to this process."""
    if n_chunks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) > 1


def _bind(cpus) -> bool:
    """Bind this thread to the set ``cpus``, if given: whether it was."""
    if not cpus:
        return False
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


@contextlib.contextmanager
def _beside(here, there, n_chunks: int = 2):
    """Run ``here()`` in this process and ``there(file)`` in one forked
    worker, and yield ``(here(), file)``.  ``file`` is an unnamed
    ``tempfile.TemporaryFile()`` opened before the fork, at offset 0, if the
    worker exited 0.  It is None with no second worker (see
    :func:`_second_worker`), when ``os.fork`` fails or when the worker
    failed; the caller then does ``there``'s work itself.  The worker exits
    0 only once ``there`` has returned and the file is flushed; it leaves
    only through ``os._exit``, silently.  The file is closed when the block
    ends.  If this process raises first, the worker is killed and reaped.

    The worker binds itself to the highest CPU of this thread's mask and
    this thread to the others, so the two never queue for one CPU; this
    thread gets its mask back once the worker is reaped, on every path.  A
    one-CPU mask, or a platform or call that refuses the binding, leaves
    that process unbound."""
    if not _second_worker(n_chunks):
        yield here(), None
        return
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    own = {max(cpus)} if len(cpus) > 1 else None  # the worker's CPU
    with tempfile.TemporaryFile() as file:
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the caller does all the work
            yield here(), None
            return
        if pid == 0:
            status = 1
            try:
                _bind(own)
                there(file)
                file.flush()
                status = 0
            finally:
                os._exit(status)  # never return into the caller, nor flush its buffers
        restore = cpus if own and _bind(cpus - own) else None
        try:
            result = here()
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            _bind(restore)
        file.seek(0)
        yield result, None if status else file


def read_jsonl(path: str):
    """The objects of a jsonl file, parsed one line at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
