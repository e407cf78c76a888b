"""Lint engine cost: cold analysis vs warm cache replay.

The lint gate runs on every CI push, so its cost is a tax on every
contributor.  ``BENCH_lint.json`` records the cold wall cost of the
full rule set — per-file rules plus the whole-program flow and
concurrency passes — over ``src/repro``, the warm cost of the same run
against a populated cache, and throughput in files/sec for both.  The
cache invariant is gated absolutely: ``warm_files_reparsed`` carries
``max_value=0``, so a cache-key regression that silently reverts lint
CI to cold cost fails the bench rather than just slowing it down.

The scale pass (SCALE001-003 + DET002) is costed separately under the
``scale_*`` metrics — its interprocedural reachability analysis runs
against its own cache with a subset rule signature, and its warm
re-parse count is gated ``max_value=0`` as well.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from typing import Any, Dict, List

from repro.lint.cache import LintCache, rule_signature
from repro.lint.engine import lint_paths
from repro.lint.rules import all_rules
from repro.perf.record import (
    RSS_TOLERANCE_PCT,
    THROUGHPUT_TOLERANCE_PCT,
    metric,
    new_record,
    peak_rss_bytes,
    validate_record,
)

from _bench_utils import emit, emit_json

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "repro")


def bench_lint(targets: List[str]) -> Dict[str, Any]:
    """Cold vs warm lint of ``targets``: the CI gate's own cost.

    Two runs against one fresh on-disk cache: the cold run parses every
    file and runs all rules (including the whole-program flow and
    concurrency passes); the warm run must serve the per-file phase
    entirely from the cache — ``warm_files_reparsed`` carries
    ``max_value=0``, so a cache-key bug that silently reverts lint CI
    to cold cost fails the bench outright rather than just slowing it.

    A second cold/warm pair runs only the scale pass (SCALE001-003 +
    DET002) against its own cache, so the interprocedural reachability
    analysis is costed separately from the per-file rule set and its
    cache signature (a strict subset of rule ids) is exercised too.
    """
    rules = all_rules()
    signature = rule_signature([rule.rule_id for rule in rules])
    scale_ids = {"SCALE001", "SCALE002", "SCALE003", "DET002"}
    scale_rules = [rule for rule in rules if rule.rule_id in scale_ids]
    scale_signature = rule_signature([rule.rule_id for rule in scale_rules])

    def one_run(
        cache_file: str, selected: Any, sig: str
    ) -> "tuple[float, Any]":
        cache = LintCache(cache_file, sig)
        start = time.perf_counter()
        report = lint_paths(targets, rules=selected, cache=cache, jobs=1)
        return time.perf_counter() - start, report

    with tempfile.TemporaryDirectory(prefix="repro-lint-bench-") as tmp:
        cache_file = f"{tmp}/cache.json"
        cold_wall, cold = one_run(cache_file, rules, signature)
        warm_wall, warm = one_run(cache_file, rules, signature)
        scale_cache = f"{tmp}/scale-cache.json"
        scale_cold_wall, scale_cold = one_run(
            scale_cache, scale_rules, scale_signature
        )
        scale_warm_wall, scale_warm = one_run(
            scale_cache, scale_rules, scale_signature
        )

    metrics = {
        "cold_files_per_second": metric(
            cold.files_checked / cold_wall, "files/sec", "higher",
            tolerance_pct=THROUGHPUT_TOLERANCE_PCT,
        ),
        "warm_files_per_second": metric(
            warm.files_checked / warm_wall, "files/sec", "higher",
            tolerance_pct=THROUGHPUT_TOLERANCE_PCT,
        ),
        "cold_wall_seconds": metric(cold_wall, "seconds", "info"),
        "warm_wall_seconds": metric(warm_wall, "seconds", "info"),
        "files_checked": metric(cold.files_checked, "count", "exact"),
        "findings": metric(len(cold.findings), "count", "exact"),
        "warm_cache_hits": metric(warm.cache_hits, "count", "exact"),
        "warm_files_reparsed": metric(
            warm.files_reparsed, "count", "exact", max_value=0
        ),
        "scale_cold_files_per_second": metric(
            scale_cold.files_checked / scale_cold_wall, "files/sec", "higher",
            tolerance_pct=THROUGHPUT_TOLERANCE_PCT,
        ),
        "scale_warm_files_per_second": metric(
            scale_warm.files_checked / scale_warm_wall, "files/sec", "higher",
            tolerance_pct=THROUGHPUT_TOLERANCE_PCT,
        ),
        "scale_findings": metric(len(scale_cold.findings), "count", "exact"),
        "scale_warm_files_reparsed": metric(
            scale_warm.files_reparsed, "count", "exact", max_value=0
        ),
        "peak_rss_bytes": metric(
            peak_rss_bytes(), "bytes", "lower", tolerance_pct=RSS_TOLERANCE_PCT
        ),
    }
    return new_record(
        "lint",
        params={
            "targets": ",".join(targets),
            "jobs": 1,
            "rules": len(rules),
        },
        metrics=metrics,
    )


def test_lint_perf_record():
    record = bench_lint([_SRC])
    assert validate_record(record) == [], validate_record(record)

    metrics = record["metrics"]
    assert metrics["files_checked"]["value"] > 50
    # The shipped tree lints clean: lint-baseline.json is empty (the
    # bench runs without a baseline).
    assert metrics["findings"]["value"] == 0
    assert metrics["scale_findings"]["value"] == 0
    assert metrics["warm_files_reparsed"]["value"] == 0
    assert metrics["warm_cache_hits"]["value"] == metrics["files_checked"]["value"]
    assert metrics["cold_files_per_second"]["value"] > 0
    assert metrics["scale_cold_files_per_second"]["value"] > 0
    assert metrics["scale_warm_files_reparsed"]["value"] == 0
    # Skipping parse + per-file analysis must actually buy wall time.
    assert (
        metrics["warm_wall_seconds"]["value"]
        < metrics["cold_wall_seconds"]["value"]
    )

    emit_json("lint", record)

    lines = ["Lint engine cost (src/repro, full rule set)"]
    for name, entry in sorted(metrics.items()):
        lines.append(f"  {name}: {entry['value']:,.2f} {entry['unit']}")
    emit("lint_perf", "\n".join(lines))
