#!/usr/bin/env python3
"""Run the end-to-end benchmark.

    python bench/run.py [--workload NAME]... [--seed S] [--seconds N]
                        [--trace [0|1]] [--out DIR]
    python bench/run.py --regen-expected

Each workload runs in its own fresh ``python`` subprocess, one after
another, so set-up time and peak RSS belong to that workload alone.  A
run sets the workload up once (``setup_s``), runs one untimed warm-up
round whose outputs are the reference, then repeats its round of fixed
work until ``--seconds`` have passed (``run_s`` is the median round),
then checks every round's outputs.  Times are rescaled to a nominal
machine speed measured beside them (``speed.py``).  Every metric is
printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when a check fails.

``--trace`` (or ``--trace 1``) is the separate traced run: it sets up
with the program's layers wrapped (``trace.py``), runs the warm-up, one
untraced and then one traced round, and reports the per-layer metrics
instead.  Spans go to ``DIR/trace-<workload>.jsonl``; every run appends
its record to ``DIR/results.jsonl``, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import speed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOAD_NAMES = ("attack-link", "sweep-cached", "city-columnar")
DEFAULT_SECONDS = 12
#: A workload subprocess that has not finished by then is killed.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics (untraced run) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "requests": "count",
    "sim_h": "h",
}
#: Round-log details that ``expected.json`` pins for seed 0.
EXPECTED_DETAILS = ("effort", "students_linked", "message_failures", "rankings")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all three)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run, reporting per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the harness tests' small worlds",
    )
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument(
        "--in-process", action="store_true",
        help="run the single workload in this process (the per-workload subprocess)",
    )
    return parser.parse_args(argv)


def load_expected() -> Dict[str, Any]:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _timed_round(workload: Any, log: Any) -> Tuple[Any, speed.SpeedProbe]:
    """One round; its output digest is taken after the clock stops.

    Callers collect garbage first, so every round starts from the same
    collector state.
    """
    with speed.SpeedProbe() as probe:
        workload.run_round(log)
    log.seal()
    return log, probe


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    scale: str = "full",
    out_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns its full record."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, workloads.SCALES[scale])
    reference = workloads.RoundLog()
    tracer = None
    if trace:
        import trace as layertrace

        tracer = layertrace.Tracer()
    try:
        gc.collect()
        if tracer is not None:
            tracer.install()
        with speed.SpeedProbe() as set_up:
            workload.setup()
        if tracer is not None:
            tracer.uninstall()
        gc.collect()
        workload.warm_up(reference)
        reference.seal()
        rounds = []
        if tracer is not None:
            # The untraced round runs first, while no round spans are
            # held in memory; the difference is the tracing overhead.
            gc.collect()
            rounds.append(_timed_round(workload, workloads.RoundLog()))
            gc.collect()
            tracer.start_round()
            tracer.install()
            traced, traced_probe = _timed_round(workload, workloads.RoundLog())
            logs = [traced, rounds[0][0]]
        else:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                gc.collect()
                rounds.append(_timed_round(workload, workloads.RoundLog()))
            logs = [log for log, _ in rounds]
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems, found = check_rounds(workload, reference, logs, seed, scale)
    run_s = statistics.median(probe.scaled_s for _, probe in rounds)
    if tracer is not None:
        for target in tracer.missing:
            print(f"{name}: wrap target missing, skipped: {target}", file=sys.stderr)
        metrics = layertrace.layer_metrics(
            tracer, traced_probe.elapsed_s, traced_probe.scaled_s / run_s - 1, traced.detail
        )
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(out_dir / f"trace-{name}.jsonl")
    else:
        values = {
            "setup_s": set_up.scaled_s,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "requests": reference.requests,
            "sim_h": reference.sim_s / 3600,
        }
        metrics = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in values.items()
        }
    every_log = [reference, *logs]
    attempted = sum(log.attempted for log in every_log)
    failed = sum(log.failed for log in every_log)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_wall_s": set_up.wall_s,
        "setup_speed": set_up.speed,
        "round_s": [probe.scaled_s for _, probe in rounds],
        "round_wall_s": [probe.wall_s for _, probe in rounds],
        "round_speed": [probe.speed for _, probe in rounds],
        "digests": [log.digest for log in logs],
        "problems": problems,
        "errors": [error for log in every_log for error in log.errors][:20],
        "expected": found,
    }


def check_rounds(
    workload: Any, reference: Any, logs: List[Any], seed: int, scale: str
) -> Tuple[List[str], Dict[str, Any]]:
    """Compare every round with the reference; mark wrong rounds failed.

    The reference is the warm-up round (for the sweep, run with its
    cache detached).  For seed 0 at full scale, it must also match
    ``expected.json``.  When any check fails, every operation of every
    round counts as failed.  Returns the problems and the reference's
    ``expected.json`` entry.
    """
    problems = workload.check([reference, *logs])
    found = {
        "digest": reference.digest,
        **{key: reference.detail[key] for key in EXPECTED_DETAILS if key in reference.detail},
    }
    expected = load_expected().get(workload.name) if seed == 0 and scale == "full" else None
    if expected:
        problems += [
            f"{key}: expected {expected[key]!r}, got {found.get(key)!r}"
            for key in expected
            if found.get(key) != expected[key]
        ]
    for index, log in enumerate(logs):
        if log.digest != reference.digest:
            problems.append(
                f"round {index}: output digest {log.digest[:16]} != {reference.digest[:16]}"
            )
    if problems:
        for log in [reference, *logs]:
            log.failed = log.attempted
    return problems, found


def in_process(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    (name,) = args.workload
    record = run_workload(
        name, args.seed, args.seconds, bool(args.trace), args.scale, args.out
    )
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "results.jsonl", "a") as results:
        results.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# The parent: one subprocess per workload
# ----------------------------------------------------------------------
def spawn(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; a crash is a failed run."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--in-process",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--out", str(args.out),
    ]
    try:
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    lines = child.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: exited {child.returncode} without a result", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOAD_NAMES)
    results = {name: spawn(name, args) for name in names}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        print(f"{name} error_rate {result['failed'] / result['attempted']!r} ratio")
        print(f"{name} correct {result['correct']} bool")
    metrics = (
        results[names[0]]["metrics"] if len(names) == 1 else {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    )
    summary = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def regen_expected(args: argparse.Namespace) -> int:
    """Rewrite ``expected.json`` from one round of every workload, seed 0.

    The workloads run against an empty file, so only their own checks
    apply; the old file is put back if any of them fails.
    """
    previous = EXPECTED.read_text() if EXPECTED.is_file() else "{}\n"
    EXPECTED.write_text("{}\n")
    args.seed, args.seconds, args.trace, args.scale = 0, 0, 0, "full"
    expected: Dict[str, Any] = {}
    for name in WORKLOAD_NAMES:
        if not spawn(name, args)["correct"]:
            EXPECTED.write_text(previous)
            print(f"{name}: checks failed; expected.json kept", file=sys.stderr)
            return 1
        with open(args.out / "results.jsonl") as results:
            expected[name] = json.loads(results.readlines()[-1])["expected"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    if args.in_process:
        return in_process(args)
    if args.regen_expected:
        return regen_expected(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
