"""Columnar worldgen throughput and footprint across the tier ladder.

Benches the ``smoke`` tier (object generator + lossless encode) and a
sub-sampled ``city`` run (native sharded generation + one-pass CSR
build), emitting one text exhibit.
"""

from __future__ import annotations

from repro.colgen import bench_worldgen

from _bench_utils import emit

#: 25 blocks × 4k = 100k accounts: the full native machinery (sharded
#: draws straight into one composite key, sorted and narrowed in place,
#: then the columns) at a benchmark-friendly size.  The key (~18 MiB
#: here) is the only large array the generation holds at its peak.
_CITY_BLOCKS = 25

#: Floor for the native path; the full 1M city run clears this by ~40x
#: (~0.4M accounts/s on a 2-vCPU VM).
_MIN_NATIVE_ACCOUNTS_PER_SECOND = 10_000


def _fmt(record):
    # ru_maxrss is the process's lifetime peak, not the tier's own: a tier
    # that peaks below what the process held earlier reads the same twice.
    return [
        f"  accounts:                {record['accounts']:,}",
        f"  edges:                   {record['edges']:,}",
        f"  accounts/second:         {record['accounts_per_second']:,.0f}",
        f"  wall seconds:            {record['wall_seconds']:.2f}",
        f"  graph build seconds:     {record['graph_build_seconds']:.2f}",
        f"  column MiB:              {record['column_nbytes'] / 2**20:.1f}",
        f"  graph MiB:               {record['graph_nbytes'] / 2**20:.1f}",
        f"  process peak MiB before: {record['peak_rss_before_bytes'] / 2**20:.0f}",
        f"  process peak MiB after:  {record['peak_rss_bytes'] / 2**20:.0f}",
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

    assert smoke["accounts"] > 5_000
    assert smoke["edges"] > 0
    assert city["accounts"] == _CITY_BLOCKS * 4_000
    assert city["graph_materialized"]
    assert city["accounts_per_second"] > _MIN_NATIVE_ACCOUNTS_PER_SECOND
