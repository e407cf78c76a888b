"""The bench-record schema: validation, fingerprint, atomic writes."""

from __future__ import annotations

import json

import pytest

import repro.colgen.bench as colgen_bench
from repro.perf.record import (
    BenchRecordError,
    ENVIRONMENT_KEYS,
    SCHEMA_VERSION,
    environment_fingerprint,
    load_record,
    metric,
    new_record,
    peak_rss_bytes,
    validate_record,
    write_record,
)


def make_record(**overrides):
    record = new_record(
        "crawl",
        params={"preset": "tiny", "seed": 7},
        metrics={
            "pages_per_second": metric(120.5, "pages/sec", "higher", tolerance_pct=15),
            "requests": metric(325, "count", "exact"),
            "peak_rss_bytes": metric(1 << 26, "bytes", "lower", tolerance_pct=20),
        },
        phases=[{"name": "seeds", "calls": 1, "wall_seconds": 0.1, "sim_seconds": 12.0}],
    )
    record.update(overrides)
    return record


def test_valid_record_passes():
    assert validate_record(make_record()) == []


def test_non_object_rejected():
    assert validate_record([1, 2]) == ["record is not a JSON object"]


@pytest.mark.parametrize("key", ["benchmark", "metrics", "environment"])
def test_missing_sections_flagged(key):
    record = make_record()
    del record[key]
    problems = validate_record(record)
    assert any(key in problem for problem in problems)


def test_schema_version_mismatch_flagged():
    problems = validate_record(make_record(schema_version=SCHEMA_VERSION + 1))
    assert any("schema_version" in p for p in problems)


def test_bad_metric_entries_flagged():
    record = make_record()
    record["metrics"]["bad_unit"] = metric(1.0, "furlongs", "higher")
    record["metrics"]["bad_direction"] = metric(1.0, "count", "sideways")
    record["metrics"]["bad_value"] = {"value": float("nan"), "unit": "count", "direction": "info"}
    record["metrics"]["bad_tolerance"] = metric(1.0, "count", "higher", tolerance_pct=-5)
    problems = "\n".join(validate_record(record))
    assert "furlongs" in problems
    assert "sideways" in problems
    assert "bad_value" in problems
    assert "tolerance_pct" in problems


def test_metrics_must_be_non_empty():
    problems = validate_record(make_record(metrics={}))
    assert any("non-empty" in p for p in problems)


def test_timestamp_keys_rejected():
    record = make_record(crawl_timestamp=123.0)
    record["metrics"]["start_epoch"] = metric(1.0, "seconds", "info")
    problems = "\n".join(validate_record(record))
    assert "crawl_timestamp" in problems
    assert "start_epoch" in problems


def test_environment_missing_keys_flagged():
    record = make_record(environment={"python": "3.12"})
    problems = "\n".join(validate_record(record))
    assert "cpu_count" in problems


def test_extra_top_level_sections_allowed():
    assert validate_record(make_record(tier={"accounts": 7})) == []


def test_environment_fingerprint_shape():
    env = environment_fingerprint()
    assert set(ENVIRONMENT_KEYS) <= set(env)
    assert env["cpu_count"] >= 1
    assert isinstance(env["numpy"], bool)


def test_peak_rss_positive_and_shared_with_colgen():
    assert peak_rss_bytes() > 0
    # The worldgen record measures with the perf implementation, not a copy.
    assert colgen_bench.peak_rss_bytes is peak_rss_bytes


def test_write_record_round_trips(tmp_path):
    path = tmp_path / "BENCH_crawl.json"
    write_record(make_record(), path)
    loaded = load_record(path)
    assert loaded["benchmark"] == "crawl"
    assert validate_record(loaded) == []
    assert not list(tmp_path.glob("*.tmp"))


def test_write_record_rejects_invalid_and_preserves_existing(tmp_path):
    path = tmp_path / "BENCH_crawl.json"
    write_record(make_record(), path)
    before = path.read_text()
    bad = make_record()
    del bad["metrics"]
    with pytest.raises(BenchRecordError) as excinfo:
        write_record(bad, path)
    assert excinfo.value.problems
    assert path.read_text() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_load_record_rejects_non_objects(tmp_path):
    path = tmp_path / "BENCH_list.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(BenchRecordError):
        load_record(path)
