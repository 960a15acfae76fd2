"""Record serialization for the command-line front end.

All complex numbers are written as two-element ``[re, im]`` arrays; real
matrices are flattened row-major.  Floats go through Python's shortest
round-trip ``repr`` (at most 17 significant digits), so every emitted value
re-parses to the exact in-memory double.

Records are evaluated and written by :func:`write_records`.  A command hands
it its ``(P, m)`` point stack and its column function, which maps a slice of
the points and the slice's start in the grid to field name -> ``(n, ...)``
float stack.  The grid is cut into chunks of :data:`CHUNK_RECORDS` (1024)
records.  A record's first field is its point, the later fields its tensor
part.  Each process keeps one memo from the bytes of each tensor part to its
text, so a grid whose records repeat their tensors spells and formats the
distinct ones only: the left-frame ``group`` tensors do not depend on α, so
they recur once per α slice of #β·#γ rows.  The memo holds at most four
chunks of rows, enough for the 2,500-row slice of a 50 × 50 grid.  It
stores a chunk that finds no row in it only while it holds less than a
chunk, or once a chunk has found a row since it was last emptied, so
records that never repeat (``qgt``) keep it at one chunk.  A chunk whose
fresh rows would take it past its bound empties it and is stored whole.
Grids with a longer period fall back to a per-chunk dedupe: within a chunk,
one ``np.unique`` spells the point values and the fresh rows' values once
each.  Every line of a chunk is filled from one ``%s`` template, with the
point's slots and one slot for the tensor part's text.  The bytes are
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

# Records per chunk.  A chunk is one evaluation, one ``np.unique`` and
# ``repr`` of the values not yet spelled, and one ``%`` format.  Each process
# holds about one chunk's columns and encoded lines (some 330 kB of group
# records) and a memo of at most ``_MEMO_CHUNKS`` chunks of spelled tensor
# parts: four, as left-frame group records recur once per α slice of #β·#γ
# rows (2,500 on a 50 × 50 grid), past a one-chunk memo.
CHUNK_RECORDS = 1024
_MEMO_CHUNKS = 4


def dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(", ", ": "), sort_keys=False)


def _nested(shape) -> str:
    """The ``%s`` template of one value of ``shape``, as nested JSON lists."""
    if not shape:
        return "%s"
    return "[" + ", ".join([_nested(shape[1:])] * shape[0]) + "]"


def _templates(columns: dict, fmt: str) -> tuple:
    """The ``%s`` templates of one record's tensor part (every field after
    the first, with its leading separator) and of its line, whose last slot
    takes the tensor part's text."""
    if fmt == "csv":
        first, *rest = (col[0].size for col in columns.values())
        return ",%s" * sum(rest), ",".join(["%s"] * first) + "%s\r\n"
    first, *rest = (f"{json.dumps(name).replace('%', '%%')}: {_nested(col.shape[1:])}"
                    for name, col in columns.items())
    return "".join(", " + field for field in rest), '{"kind": "record", ' + first + "%s}\n"


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
    memo = _RowMemo()  # the worker spells into its own copy
    parent = os.getpid()

    def write(out, part, worker=False) -> None:
        for lo, hi in part:
            if worker and os.getppid() != parent:
                raise ChildProcessError("the process this worker was forked from is gone")
            out.write(_encode(columns(points[lo:hi], lo), fmt, memo).encode())

    with _beside(lambda: write(stream, bounds[:cut]), lambda file: write(file, bounds[cut:], True),
                 len(bounds)) as (_, rest):
        if rest is None:
            write(stream, bounds[cut:])
        else:
            shutil.copyfileobj(rest, stream)


class _RowMemo(dict):
    """The bytes of each record's tensor part spelled so far -> its text;
    the bytes keep ``-0.0`` apart from ``0.0``.  ``hit`` tells whether a
    chunk has found a row in it since it was last emptied."""

    hit = False


def _encode(columns: dict, fmt: str, memo: _RowMemo) -> str:
    """The lines of one chunk of records, field name -> ``(n, ...)`` stack.

    A record's tensor part is every field after the first; each distinct
    one not in ``memo`` is spelled once, and one ``np.unique`` spells the
    first field's values and the fresh rows' values once each.  The chunk's
    rows are stored if it or an earlier chunk found a row in the memo since
    the memo was last emptied, or if the memo holds less than
    :data:`CHUNK_RECORDS` rows.  A chunk whose fresh rows would take the
    memo past ``_MEMO_CHUNKS`` chunks empties it first and is stored whole."""
    columns = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
    first, *rest = columns
    count = len(columns[first])
    head = columns[first].reshape(count, -1)
    tensors = np.concatenate([np.empty((count, 0))] + [columns[name].reshape(count, -1) for name in rest], axis=1)
    width = tensors.itemsize * tensors.shape[1]
    keys = tensors.view(f"V{width}").ravel().tolist() if width else [b""] * count
    missing = [row for row, key in enumerate(keys) if key not in memo]
    memo.hit |= len(missing) < count
    store = memo.hit or len(memo) < CHUNK_RECORDS
    fresh = {keys[row]: row for row in missing}  # each distinct fresh tensor part -> a row holding it
    if store and len(memo) + len(fresh) > _MEMO_CHUNKS * CHUNK_RECORDS:
        memo.clear()
        memo.hit = False
        fresh = dict(zip(keys, range(count)))
    values = np.concatenate([head.ravel(), tensors[list(fresh.values())].ravel()])
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = distinct.view(float)
    spell = json.dumps if fmt == "jsonl" and not np.isfinite(distinct).all() else repr
    words = np.array(list(map(spell, distinct.tolist())), dtype=object)[inverse]
    row_template, line_template = _templates(columns, fmt)
    texts = dict(zip(fresh, ("\0".join([row_template] * len(fresh)) % tuple(words[head.size:].tolist())).split("\0")))
    if store:
        memo.update(texts)
        texts = memo
    cells = np.empty((count, head.shape[1] + 1), dtype=object)
    cells[:, :-1] = words[:head.size].reshape(head.shape)
    cells[:, -1] = list(map(texts.__getitem__, keys))
    return (line_template * count) % tuple(cells.ravel().tolist())


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
