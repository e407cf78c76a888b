"""Columnar worldgen throughput and footprint across the tier ladder.

Benches the ``smoke`` tier (object generator + lossless encode) and a
sub-sampled ``city`` run (native sharded generation + one-pass CSR
build), emitting one text exhibit plus machine-readable
``BENCH_worldgen.json`` — the artifact the CI city-tier job asserts
its memory ceiling against.
"""

from __future__ import annotations

from repro.colgen import bench_worldgen
from repro.perf.record import (
    RSS_TOLERANCE_PCT,
    THROUGHPUT_TOLERANCE_PCT,
    metric,
    new_record,
)

from _bench_utils import emit, emit_json

#: 25 blocks × 4k = 100k accounts: the full native machinery (sharded
#: draws, one endpoint list, one in-place composite-key sort) at a
#: benchmark-friendly size.
_CITY_BLOCKS = 25

#: Floor for the native path; the full 1M city run clears this by ~40x
#: (~0.4M accounts/s on a 2-vCPU VM).
_MIN_NATIVE_ACCOUNTS_PER_SECOND = 10_000


def _fmt(record):
    return [
        f"  accounts:            {record['accounts']:,}",
        f"  edges:               {record['edges']:,}",
        f"  accounts/second:     {record['accounts_per_second']:,.0f}",
        f"  wall seconds:        {record['wall_seconds']:.2f}",
        f"  graph build seconds: {record['graph_build_seconds']:.2f}",
        f"  column MiB:          {record['column_nbytes'] / 2**20:.1f}",
        f"  graph MiB:           {record['graph_nbytes'] / 2**20:.1f}",
        f"  peak RSS MiB:        {record['peak_rss_bytes'] / 2**20:.0f}",
    ]


def test_worldgen_tier_throughput():
    smoke = bench_worldgen("smoke", seed=11)
    city = bench_worldgen("city", seed=1, blocks=_CITY_BLOCKS)

    lines = ["Columnar worldgen (repro.colgen)"]
    lines.append("smoke tier (object+encode):")
    lines.extend(_fmt(smoke))
    lines.append(f"city tier @ {_CITY_BLOCKS} blocks (native columnar):")
    lines.extend(_fmt(city))
    emit("worldgen_colgen", "\n".join(lines))
    # Schema-shaped record; the flat per-tier records ride along under
    # their historical keys for the CI city job and older tooling.
    emit_json(
        "worldgen",
        new_record(
            "worldgen",
            params={"smoke_seed": 11, "city_seed": 1, "city_blocks": _CITY_BLOCKS},
            metrics={
                "smoke_accounts_per_second": metric(
                    smoke["accounts_per_second"], "accounts/sec", "higher",
                    tolerance_pct=THROUGHPUT_TOLERANCE_PCT,
                ),
                "city_accounts_per_second": metric(
                    city["accounts_per_second"], "accounts/sec", "higher",
                    tolerance_pct=THROUGHPUT_TOLERANCE_PCT,
                ),
                "city_accounts": metric(city["accounts"], "count", "exact"),
                "city_edges": metric(city["edges"], "count", "exact"),
                "city_column_bytes": metric(
                    city["column_nbytes"], "bytes", "lower",
                    tolerance_pct=RSS_TOLERANCE_PCT,
                ),
                "city_graph_bytes": metric(
                    city["graph_nbytes"], "bytes", "lower",
                    tolerance_pct=RSS_TOLERANCE_PCT,
                ),
                "peak_rss_bytes": metric(
                    city["peak_rss_bytes"], "bytes", "lower",
                    tolerance_pct=RSS_TOLERANCE_PCT,
                ),
            },
            smoke=smoke,
            city_subsampled=city,
        ),
    )

    assert smoke["accounts"] > 5_000
    assert smoke["edges"] > 0
    assert city["accounts"] == _CITY_BLOCKS * 4_000
    assert city["graph_materialized"]
    assert city["accounts_per_second"] > _MIN_NATIVE_ACCOUNTS_PER_SECOND
