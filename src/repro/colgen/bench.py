"""Worldgen benchmarking: throughput, phase timings and peak RSS.

One entry point, :func:`bench_worldgen`, runs a tier and returns a flat
record; ``python -m repro worldgen --bench-out`` writes it with
:func:`write_bench_json`, and CI's city-tier job asserts its memory
ceilings against the file.

Timing uses ``time.perf_counter`` only (CLOCK001: wall-clock reads are
confined to ``repro.telemetry``), so the records carry durations and
counters, never timestamps.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from typing import Any, Dict, Optional

from .generate import generate

__all__ = ["bench_worldgen", "peak_rss_bytes", "write_bench_json"]

#: ru_maxrss is kibibytes on Linux, bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT


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
    """Write ``record`` as sorted JSON, atomically.

    Serialise to ``<path>.tmp`` then ``os.replace``, so a reader (CI's
    ceiling check) never sees a torn record and a failed write keeps
    the previous file.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
