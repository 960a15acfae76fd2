"""Benchmark of the ``qpt`` command line on three fixed workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --self-test

Run from the root of a checkout; ``qpt`` is taken from ``src/``.  Every
``qpt`` process runs on one thread (see ``PINS``).  With
``--trace 0`` the run repeats whole rounds of the workload's commands until
``S`` seconds have passed, times set-up in fresh processes before and after
the rounds, checks every output against closed forms and reports the
end-to-end metrics, with times scaled to the reference speed of
``calibration.py``.  With ``--trace 1`` it runs one untraced reference round
and then the same commands in-process under ``trace_cli.py``, and reports
the per-layer metrics.  The last line of standard output is the result
object; the line before it records the machine, the library versions, the
thread settings the ``qpt`` processes saw, the raw times and the
calibration passes.  ``--tiny`` shrinks every workload to seconds;
``--self-test`` runs the tiny workloads and confirms that the checks reject
corrupted outputs.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One thread everywhere: on a two-core machine the benchmark keeps one core
# busy and measures the program, not the scheduler.  This process runs the
# calibration loops, so it takes the same pins before numpy is imported.
PINS = {
    "QPT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINS)

import calibration  # noqa: E402
import closed_forms  # noqa: E402
from workloads import WORKLOADS, qpt_argv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 170.0
CALIBRATION_PASSES = 4
ACCOUNTING_RTOL = 1e-6

# Prints what a ``qpt`` process sees; argv names the thread variables.
ENV_PROBE = """
import json, os, sys
import numpy, scipy, qpt

def blas(module):
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"

print(json.dumps({
    "nproc": os.cpu_count(),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numpy_blas": blas(numpy),
    "scipy_blas": blas(scipy),
    "qpt": qpt.__version__,
    "qpt_path": os.path.dirname(qpt.__file__),
    "threads": {name: os.environ.get(name) for name in sys.argv[1:]},
}))
"""

# Per-layer metric -> the trace layer whose self time it reports.
LAYER_SELF_S = {
    "liegroup.rep_build_s": "liegroup.rep_build",
    "liegroup.coframe_s": "liegroup.coframe",
    "liegroup.group_element_s": "liegroup.group_element",
    "pullback.evaluate_s": "pullback.evaluate",
    "pullback.covariance_s": "pullback.covariance",
    "qgt.self_s": "qgt.tensor",
    "weyl.build_s": "weyl.build",
    "weyl.covariance_s": "weyl.covariance",
    "weyl.displacement_s": "weyl.displacement",
    "checks.self_s": "checks",
    "serialize.record_s": "serialize.record",
    "serialize.encode_s": "serialize.encode",
    "serialize.read_s": "serialize.read",
    "cli.self_s": "cli",
}
# Per-layer metric -> the wrapped-function counter it reports.
CALL_COUNTS = {
    "liegroup.closure_calls": "liegroup.closure",
    "liegroup.coframe_calls": "liegroup.coframe",
    "liegroup.group_element_calls": "liegroup.group_element",
    "pullback.evaluate_calls": "pullback.evaluate",
    "qgt.tensor_calls": "qgt.tensor",
    "weyl.covariance_calls": "weyl.covariance",
    "weyl.displacement_calls": "weyl.displacement",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv, env, log: Path) -> tuple[float, float, int]:
    """Run one process to its end: (wall seconds, peak RSS in MiB, exit code)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def probe_environment(env) -> dict:
    """Versions and the thread settings a ``qpt`` process sees; refuses unpinned runs."""
    if not (ROOT / "src" / "qpt" / "cli.py").is_file():
        raise BenchError(f"no qpt sources under {ROOT / 'src'}; run from a checkout root")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", ENV_PROBE, *PINS], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing qpt timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"importing qpt failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if info["threads"] != PINS:
        raise BenchError(f"thread pins missing: qpt saw {info['threads']}, need {PINS}")
    if Path(info["qpt_path"]).resolve() != (ROOT / "src" / "qpt").resolve():
        raise BenchError(f"imported qpt from {info['qpt_path']}, not from this checkout")
    return info


def check_command(command) -> list[str]:
    try:
        objects = closed_forms.read_jsonl(command.out)
    except (OSError, ValueError) as exc:
        return [f"unreadable output {command.out.name}: {exc}"]
    return command.check(objects)


class Tally:
    """Operations attempted and failed; an operation is one ``qpt`` command."""

    def __init__(self, log: Path):
        self.log = log
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}; stderr ends:\n{_tail(self.log)}"] + problems
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems[:5]), file=sys.stderr)


def _tail(log: Path, lines: int = 20) -> str:
    try:
        return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def run_round(commands, env, work: Path, tally: Tally, before=lambda: None) -> tuple[float, float]:
    """Run each command once, then check its output: (wall seconds, peak RSS MiB)."""
    wall = 0.0
    peak = 0.0
    for command in commands:
        before()
        seconds, rss, code = run_child(qpt_argv(command), env, work / "stderr.log")
        wall += seconds
        peak = max(peak, rss)
        tally.record(command.argv[0], code, check_command(command) if code == 0 else [])
    return wall, peak


def measure(workload, seed: int, seconds: float, tiny: bool, env, work: Path, tally: Tally):
    # The host's speed drifts (see calibration.py), so the workload's
    # calibration loop runs CALIBRATION_PASSES times before every process the
    # run starts and at its end.  The median pass gives the machine's speed
    # during the run: other tenants' bursts lengthen single passes, while a
    # slow or fast phase of the host moves them all.
    passes = []

    def calibrate():
        passes.extend(calibration.sample(workload.calibration) for _ in range(CALIBRATION_PASSES))

    # Half the set-up processes run before the rounds and half after, so that
    # their median samples more than one phase of the machine's speed drift.
    def set_up(count):
        runs = []
        for _ in range(count):
            calibrate()
            runs.append(run_child([sys.executable, "-c", workload.setup(tiny)], env, work / "stderr.log"))
        if any(code != 0 for _, _, code in runs):
            raise BenchError(f"set-up of {workload.name} failed:\n{_tail(work / 'stderr.log')}")
        return [s for s, _, _ in runs]

    setup_s = set_up((workload.setup_repeats + 1) // 2)
    commands = workload.commands(work, seed, tiny)
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        rounds.append(run_round(commands, env, work, tally, before=calibrate))
    setup_s += set_up(workload.setup_repeats // 2)
    calibrate()
    _, reference_s = calibration.LOOPS[workload.calibration]
    scale = reference_s / statistics.median(passes)
    metrics = {
        "wall_s": (scale * statistics.median(w for w, _ in rounds), "s"),
        "peak_rss_mb": (statistics.median(p for _, p in rounds), "MiB"),
        "setup_s": (scale * statistics.median(setup_s), "s"),
    }
    detail = {"round_wall_s": [w for w, _ in rounds], "setup_runs_s": setup_s,
              "calibration_s": passes, "scale": scale}
    return metrics, detail


def trace(workload, seed: int, tiny: bool, env, work: Path, tally: Tally):
    """Per-layer metrics from one traced pass, next to one untraced reference round."""
    plain = workload.commands(work, seed, tiny)
    wall, _ = run_round(plain, env, work, tally)
    traced_dir = work / "traced"
    traced_dir.mkdir()
    traced = workload.commands(traced_dir, seed, tiny)
    self_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    import_s = 0.0
    bytes_in = 0
    for index, (reference, command) in enumerate(zip(plain, traced)):
        result_path = traced_dir / f"trace{index}.json"
        argv = [sys.executable, str(HERE / "trace_cli.py"), str(result_path), "--", *command.argv]
        _, _, code = run_child(argv, env, work / "stderr.log")
        problems = []
        if code == 0:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            code = result["code"]
            if result["missing"]:
                print(f"note: not traced, absent in qpt: {result['missing']}", file=sys.stderr)
            if result["foreign_thread_calls"]:
                problems.append(f"{result['foreign_thread_calls']} traced calls off the main thread")
            import_s += result["import_s"]
            bytes_in += result["bytes_in"]
            for into, part in ((self_s, result["self_s"]), (inclusive_s, result["inclusive_s"]),
                               (calls, result["calls"])):
                for key, value in part.items():
                    into[key] = into.get(key, 0) + value
        if code == 0:
            problems += check_command(command)
            problems += closed_forms.same_output(
                closed_forms.read_jsonl(command.out), closed_forms.read_jsonl(reference.out)
            )
        tally.record(f"traced {command.argv[0]}", code, problems)

    metrics = {"import_s": (import_s, "s")}
    for name, layer in LAYER_SELF_S.items():
        metrics[name] = (self_s.get(layer, 0.0), "s")
    metrics["qgt.tensor_s"] = (inclusive_s.get("qgt.tensor", 0.0), "s")
    for name, counter in CALL_COUNTS.items():
        metrics[name] = (calls.get(counter, 0), "count")
    metrics["serialize.bytes_out"] = (sum(c.out.stat().st_size for c in traced if c.out.exists()), "bytes")
    metrics["serialize.bytes_in"] = (bytes_in, "bytes")
    traced_total = import_s + inclusive_s.get("cli", 0.0)
    accounted = import_s + sum(metrics[name][0] for name in LAYER_SELF_S)
    metrics["trace.overhead_s"] = (traced_total - wall, "s")
    unmapped = sorted(set(self_s) - set(LAYER_SELF_S.values()))
    balanced = abs(accounted - traced_total) <= ACCOUNTING_RTOL * max(traced_total, 1.0)
    tally.record("trace accounting", 0, [] if balanced and not unmapped else [
        f"layers account for {accounted:.6f} s of {traced_total:.6f} s; unmapped {unmapped}"
    ])
    detail = {"untraced_wall_s": wall, "traced_total_s": traced_total}
    return metrics, detail


def run(workload_name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    workload = WORKLOADS[workload_name]
    env = child_env()
    info = probe_environment(env)
    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tally = Tally(work / "stderr.log")
        if traced:
            metrics, detail = trace(workload, seed, tiny, env, work, tally)
        else:
            metrics, detail = measure(workload, seed, seconds, tiny, env, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": info, "workload": workload_name, "seed": seed,
                      "tiny": tiny, **detail}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# Each corruption changes one record, or the report, of a parsed output.
def _nudge(field: str):
    def corrupt(objs):
        record = [o for o in objs if o["kind"] == "record"][-1]
        entry = record[field]
        if isinstance(entry[1], list):
            entry[1][1] += 1e-9
        else:
            entry[1] += 1e-9
    return f"nudge {field} by 1e-9", corrupt


def _swap_records(objs):
    objs[1], objs[2] = objs[2], objs[1]


def _drop_record(objs):
    objs.pop(-1)


def _fail_compare(objs):
    objs[-1]["per_record_max"][0] = 1e-6


def _drop_weyl_check(objs):
    objs[-1]["checks"].pop(3)


CORRUPTIONS = {
    "group": [_nudge("metric"), _nudge("two_form"), ("swap two records", _swap_records),
              ("drop the last record", _drop_record)],
    "qgt": [_nudge("h"), ("swap two records", _swap_records), ("drop the last record", _drop_record)],
    "compare": [("raise one deviation to 1e-6", _fail_compare)],
    "weyl": [_nudge("metric"), _nudge("two_form"), ("drop one named check", _drop_weyl_check)],
}


def self_test() -> int:
    """Tiny workloads must pass; every corrupted output must fail its check."""
    ok = True
    for name, workload in WORKLOADS.items():
        result = run(name, seed=0, seconds=0, traced=True, tiny=True)
        print(f"{name}: tiny traced run correct={result['correct']}")
        ok &= result["correct"]
        work = WORK / "self-test"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            env = child_env()
            for command in workload.commands(work, 0, True):
                _, _, code = run_child(qpt_argv(command), env, work / "stderr.log")
                clean = closed_forms.read_jsonl(command.out)
                passes = code == 0 and not command.check(clean)
                ok &= passes
                print(f"{name} {command.argv[0]}: clean output {'passes' if passes else 'FAILS'}")
                for label, corrupt in CORRUPTIONS[command.argv[0]]:
                    objs = copy.deepcopy(clean)
                    corrupt(objs)
                    problems = command.check(objs)
                    ok &= bool(problems)
                    verdict = f"rejected ({problems[0]})" if problems else "NOT REJECTED"
                    print(f"  {label}: {verdict}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload to seconds")
    parser.add_argument("--self-test", action="store_true", help="check that the checks reject corruption")
    args = parser.parse_args()
    # Turn a termination request into an exception, so the running child is
    # killed and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
