"""Run one ``qpt`` command in-process with timers around its cross-module calls.

Usage: ``python3 perfbench/trace_cli.py RESULT.json -- <qpt arguments>``

The timers wrap the public functions that ``cli``, ``qgt``, ``weyl`` and
``checks`` call in other modules, at the module attribute each caller looks
the function up by; no file of the package changes.  Time is charged to the
innermost wrapped call, so the layers' self times partition the time spent
in ``qpt.cli.main``: whatever no wrapped call covers is ``cli`` self time.
``qgt.tensor`` also keeps its inclusive time.  RESULT.json receives the
import time, each layer's self time, inclusive times, call counts per wrapped
function, the bytes ``read_jsonl`` read and the exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# layer -> counter -> [(module under qpt, attribute)]
WRAPS = {
    "liegroup.rep_build": {
        "liegroup.rep_build": [
            ("cli", "rep_from_spec"),
            ("liegroup", "rep_from_spec"),  # ham_from_spec imports it at call time
            ("weyl", "heisenberg_rep"),
        ],
        "liegroup.closure": [("liegroup.LieAlgebraRep", "closure_residual")],
    },
    "liegroup.coframe": {
        "liegroup.coframe": [("cli", "su2_coframe"), ("qgt", "su2_coframe"), ("checks", "su2_coframe")],
    },
    "liegroup.group_element": {
        "liegroup.group_element": [("qgt", "group_element"), ("checks", "group_element")],
    },
    "pullback.evaluate": {
        "pullback.evaluate": [("cli", "evaluate_at"), ("qgt", "evaluate_at"), ("checks", "evaluate_at")],
    },
    "pullback.covariance": {
        "pullback.covariance": [
            ("cli", "covariance_matrix"),
            ("qgt", "covariance_matrix"),
            ("weyl", "covariance_matrix"),
            ("checks", "covariance_matrix"),
        ],
    },
    "qgt.tensor": {
        "qgt.tensor": [("cli", "qgt_tensor"), ("checks", "qgt_tensor")],
    },
    "weyl.build": {
        "weyl.build": [("cli", "build_weyl"), ("weyl", "build_weyl")],
    },
    "weyl.covariance": {
        "weyl.covariance": [("cli", "gaussian_covariance"), ("weyl", "gaussian_covariance")],
    },
    "weyl.displacement": {
        "weyl.displacement": [("weyl", "displacement")],
    },
    "checks": {
        "checks": [
            ("checks", name)
            for name in (
                "weyl_checks", "group_checks", "qgt_checks",
                "bloch_closed_form_checks", "landau_zener_checks", "conventions",
            )
        ],
    },
    "serialize.record": {
        "serialize.record": [
            ("serialize", name)
            for name in ("complex_pair", "vector_pairs", "matrix_pairs_row_major", "real_matrix_row_major")
        ],
    },
    "serialize.encode": {
        "serialize.encode": [("serialize", "dump_line"), ("serialize", "write_jsonl")],
    },
    "serialize.read": {
        "serialize.read": [
            ("serialize", name)
            for name in (
                "read_jsonl", "pair_to_complex", "pairs_to_vector",
                "row_major_pairs_to_matrix", "row_major_to_matrix",
            )
        ],
    },
}


class Tracer:
    """Self time per layer from a stack of wrapped calls on one thread."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bytes_in = 0
        self.missing: list[str] = []
        self.foreign_thread_calls = 0
        self._stack: list[str] = []
        self._mark = 0.0
        self._thread = threading.get_ident()

    def call(self, layer: str, counter: str, fn, *args, **kwargs):
        if threading.get_ident() != self._thread:
            self.foreign_thread_calls += 1
            return fn(*args, **kwargs)
        start = time.perf_counter()
        if self._stack:
            self.self_s[self._stack[-1]] += start - self._mark
        outermost = layer not in self._stack
        self._stack.append(layer)
        self._mark = start
        self.calls[counter] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.self_s[layer] += end - self._mark
            self._stack.pop()
            if outermost:
                self.inclusive_s[layer] += end - start
            self._mark = end

    def install(self, package) -> None:
        for layer, counters in WRAPS.items():
            for counter, sites in counters.items():
                for owner_path, attr in sites:
                    owner = package
                    for part in owner_path.split("."):
                        owner = getattr(owner, part, None)
                    fn = getattr(owner, attr, None)
                    if fn is None:
                        self.missing.append(f"{owner_path}.{attr}")
                        continue
                    setattr(owner, attr, self._wrap(layer, counter, fn, attr == "read_jsonl"))

    def _wrap(self, layer, counter, fn, counts_bytes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_bytes:
                self.bytes_in += os.path.getsize(args[0])
            return self.call(layer, counter, fn, *args, **kwargs)

        return traced


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit("usage: trace_cli.py RESULT.json -- <qpt arguments>")
    result_path, argv = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    import qpt
    import qpt.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(qpt)
    code = tracer.call("cli", "cli.main", qpt.cli.main, argv)
    result = {
        "import_s": import_s,
        "code": code,
        "self_s": tracer.self_s,
        "inclusive_s": tracer.inclusive_s,
        "calls": tracer.calls,
        "bytes_in": tracer.bytes_in,
        "missing": tracer.missing,
        "foreign_thread_calls": tracer.foreign_thread_calls,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
