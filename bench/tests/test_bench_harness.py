"""Harness tests for the benchmark, on the tiny preset with one round.

Run with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import compare
import run
import speed
import trace as layertrace
import workloads
from repro.osn.errors import AccountDisabledError
from repro.osn.frontend import HtmlFrontend

BENCH = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
#: City first: if workloads shared a process, the attack's peak RSS
#: would include the city's.
ORDER = ("city-columnar", "attack-link", "sweep-cached")
#: A tiny attack-link round's attack and extension take about 600 GETs
#: and its linkage about 1,300 more.
BAN_FROM_GET = 700


def run_tiny(out: Path, *args: str) -> Tuple[Dict[str, Dict[str, Tuple[str, str]]], dict]:
    """Run every workload at tiny scale; (workload -> metric -> (value,
    unit)) from the printed lines, and the final JSON line."""
    workloads = [arg for name in ORDER for arg in ("--workload", name)]
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "tiny", "--seconds", "0",
         "--out", str(out), *workloads, *args],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout
    *lines, last = child.stdout.strip().splitlines()
    printed: Dict[str, Dict[str, Tuple[str, str]]] = {}
    for line in lines:
        workload, metric, value, unit = line.split()
        printed.setdefault(workload, {})[metric] = (value, unit)
    return printed, json.loads(last)


def records(out: Path) -> List[dict]:
    return [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    return out, *run_tiny(out)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, *run_tiny(out, "--trace")


def assert_all_printed(printed, metrics) -> None:
    assert set(printed) == set(ORDER)
    for workload, values in printed.items():
        for metric in metrics:
            assert metric["name"] in values, (workload, metric["name"])
            assert values[metric["name"]][1] == metric["unit"], (workload, metric["name"])


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    out, printed, summary = untraced
    assert_all_printed(printed, BENCHMARK["end_to_end"])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert all(record["correct"] for record in records(out))


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    out, printed, _ = traced
    assert_all_printed(printed, BENCHMARK["per_layer"])
    for workload in ORDER:
        assert (out / f"trace-{workload}.jsonl").stat().st_size > 0


def test_each_workload_measures_its_own_peak_rss(untraced):
    _, printed, _ = untraced
    city = float(printed["city-columnar"]["peak_rss_mb"][0])
    for workload in ("attack-link", "sweep-cached"):
        assert float(printed[workload]["peak_rss_mb"][0]) < city, workload


def test_every_wrap_target_resolves():
    for module, path, _ in layertrace.TARGETS:
        layertrace.resolve(module, path)
    tracer = layertrace.Tracer()
    original = HtmlFrontend.get
    tracer.install()
    try:
        assert tracer.missing == []
        assert HtmlFrontend.get is not original
    finally:
        tracer.uninstall()
    assert HtmlFrontend.get is original


def test_traced_and_untraced_rounds_have_equal_digests(traced):
    out, _, _ = traced
    for record in records(out):
        traced_digest, untraced_digest = record["digests"]
        assert traced_digest == untraced_digest, record["workload"]
        assert record["correct"], record["problems"]


def test_injected_ban_is_a_partial_result_not_a_crash(monkeypatch):
    """Every account is banned from the n-th GET of each round on, in
    the linkage: the attack and the extension are kept, the linkage
    fails as one operation, and every round fails the same way."""
    calls = itertools.count(1)
    get, run_round = HtmlFrontend.get, workloads.AttackLink.run_round

    def banned_from_the_nth(self, account_id, path, params=None):
        if next(calls) >= BAN_FROM_GET:
            raise AccountDisabledError(f"account {account_id} banned")
        return get(self, account_id, path, params)

    def counting_from_one(self, log):
        nonlocal calls
        calls = itertools.count(1)
        run_round(self, log)

    monkeypatch.setattr(HtmlFrontend, "get", banned_from_the_nth)
    monkeypatch.setattr(workloads.AttackLink, "run_round", counting_from_one)
    record = run.run_workload("attack-link", seconds=0, scale="tiny")
    assert 0 < record["failed"] < record["attempted"]
    assert not record["correct"] and record["problems"] == []
    assert "AccountDisabledError" in record["errors"][0]


def test_speed_probe_rescales_by_the_sampled_speed(monkeypatch):
    """Samples read twice the nominal time: the phase ran at half speed."""
    monkeypatch.setattr(speed, "_sample", lambda: 2 * speed.NOMINAL_S)
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(probe.samples) >= 4
    assert probe.wall_s == pytest.approx(probe.elapsed_s, rel=1e-3)
    assert probe.scaled_s == pytest.approx(probe.wall_s / 2)
    assert probe.speed == pytest.approx(0.5)


def test_compare_verdicts():
    old, same, slow = [1.0, 1.01, 0.99, 1.0], [1.0, 0.99, 1.01, 1.0], [1.3, 1.31, 1.29, 1.3]
    pairs = list(zip(old, slow))
    assert compare.verdict("run_s", 0.1, old, same, list(zip(old, same))) == "no regression"
    assert compare.verdict("run_s", 0.1, old, slow, pairs) == "regression"
    assert compare.verdict("run_s", 0.1, slow, old, [(b, a) for a, b in pairs]) == "gain"
    assert compare.verdict("requests", 0.1, [10, 10], [10, 11], [(10, 10), (10, 11)]) == "regression"
    assert compare.verdict("error_rate", 0.0, [0.0], [0.01], [(0.0, 0.01)]) == "regression"
