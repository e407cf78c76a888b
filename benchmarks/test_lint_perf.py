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

from repro.perf.benches import bench_lint
from repro.perf.record import validate_record

from _bench_utils import emit, emit_json

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "repro")


def test_lint_perf_record():
    record = bench_lint(paths=[_SRC])
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
