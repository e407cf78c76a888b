"""Worldgen benchmarking: throughput, phase timings and peak RSS.

One entry point, :func:`bench_worldgen`, runs a tier and returns the
machine-readable record that lands in ``BENCH_worldgen.json`` — the
artifact CI uploads and the 2GB-ceiling city job asserts against.

Timing uses ``time.perf_counter`` only (CLOCK001: wall-clock reads are
confined to ``repro.telemetry``), so the records carry durations and
counters, never timestamps.
"""

from __future__ import annotations

import platform
from typing import Any, Dict, Optional

from repro.perf.record import atomic_write_json, peak_rss_bytes

from .generate import generate

__all__ = ["bench_worldgen", "write_bench_json"]


def bench_worldgen(
    tier_name: str,
    seed: int = 1,
    *,
    school: str = "hs1",
    blocks: Optional[int] = None,
) -> Dict[str, Any]:
    """Generate one tier and measure it.  Returns the bench record."""
    rss_before = peak_rss_bytes()
    world = generate(tier_name, seed, school=school, blocks=blocks)
    rss_after = peak_rss_bytes()

    wall = float(world.stats.get("wall_seconds", 0.0)) or 1e-9
    record: Dict[str, Any] = {
        "benchmark": "worldgen",
        "tier": tier_name,
        "seed": seed,
        "accounts": world.n_accounts,
        "people": world.n_people,
        "edges": world.n_edges,
        "graph_materialized": world.csr is not None,
        "accounts_per_second": world.n_accounts / wall,
        "wall_seconds": wall,
        "graph_build_seconds": float(world.stats.get("graph_seconds", 0.0)),
        "column_nbytes": world.column_nbytes,
        "graph_nbytes": world.graph_nbytes,
        "peak_rss_bytes": rss_after,
        "peak_rss_before_bytes": rss_before,
        "python": platform.python_version(),
    }
    for key in ("build_seconds", "encode_seconds", "columns_seconds"):
        if key in world.stats:
            record[key] = float(world.stats[key])
    return record


def write_bench_json(record: Dict[str, Any], path: str) -> None:
    """Write the flat worldgen record (atomic, like every BENCH file)."""
    atomic_write_json(record, path)
