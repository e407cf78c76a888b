"""Byte pins of every telemetry output: JSONL lines, Prometheus text, spans.

A scripted session covers every ``request`` outcome (one with a zero
polite delay), a ``throttle`` that slept nothing and one that slept, a
lost account, and accounts 2 and 10, so the text sort of label values
shows.  Its trace and metrics snapshot must come back byte for byte.
"""

import pytest

from repro.osn.clock import SimClock
from repro.telemetry import Telemetry

#: ``(account, category, path, outcome, wall_seconds, delay)`` per attempt.
_REQUESTS = (
    (2, "seeds", "/find-friends/browser", "ok", 0.0004, 2.5),
    (10, "seeds", "/find-friends/browser", "ok", 0.0123, 0.0),
    (10, "profiles", "/profile/7", "rate_limited", 0.002, 3.75),
    (2, "profiles", "/profile/8", "not_found", 0.3, 1 / 3),
    (10, "friend_lists", "/profile/7/friends", "forbidden", 0.05, 120.0),
    (2, "other", "/messages/send", "bad_request", 1e-05, 0.1),
    (2, "profiles", "/profile/9", "auth_failed", 2.0, 7.0),
    (10, "profiles", "/profile/9", "account_disabled", 0.001, 400.0),
    (2, 'we"ird\\cat\n', "/profile/9/friends", "ok", 35.0, 60.0),
)


def _session(clock, tmp_path):
    """A session that writes its trace and metrics snapshot on close."""
    return Telemetry(
        clock,
        jsonl=str(tmp_path / "trace.jsonl"),
        prometheus=str(tmp_path / "metrics.prom"),
    )


def _attempts(telemetry, rows):
    """One ``request`` event per row, each after its polite delay."""
    for account, category, path, outcome, wall_seconds, delay in rows:
        telemetry.clock.sleep(delay)
        telemetry.emit(
            "request",
            account=account,
            category=category,
            path=path,
            outcome=outcome,
            wall_seconds=wall_seconds,
            delay=delay,
        )


@pytest.fixture()
def outputs(tmp_path):
    """``(trace lines, metrics text)`` of the scripted session."""
    clock = SimClock()
    telemetry = _session(clock, tmp_path)
    _attempts(telemetry, _REQUESTS[:3])
    telemetry.emit("throttle", account=10, category="profiles", retry_after=30.0, slept=0.0)
    clock.sleep(45.5)
    telemetry.emit("throttle", account=10, category="profiles", retry_after=30.0, slept=45.5)
    _attempts(telemetry, _REQUESTS[3:])
    telemetry.emit("account_lost", account=10, pinned=False, rotated=True)
    telemetry.emit(
        "retry_exhausted", account=2, path="/profile/9", category="profiles", throttles=9
    )
    telemetry.emit(
        "span",
        name="core",
        parent="-",
        sim_start=0.0,
        sim_seconds=clock.seconds(),
        wall_seconds=0.25,
        error=False,
    )
    telemetry.close()
    return (
        (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines(),
        (tmp_path / "metrics.prom").read_text(encoding="utf-8"),
    )


_TRACE = [
    '{"account": 2, "category": "seeds", "delay": 2.5, "kind": "request", "outcome": "ok", '
    '"path": "/find-friends/browser", "phase": "-", "seq": 0, "sim_ts": 2.5, '
    '"wall_seconds": 0.0004}',
    '{"account": 10, "category": "seeds", "delay": 0.0, "kind": "request", "outcome": "ok", '
    '"path": "/find-friends/browser", "phase": "-", "seq": 1, "sim_ts": 2.5, '
    '"wall_seconds": 0.0123}',
    '{"account": 10, "category": "profiles", "delay": 3.75, "kind": "request", '
    '"outcome": "rate_limited", "path": "/profile/7", "phase": "-", "seq": 2, '
    '"sim_ts": 6.25, "wall_seconds": 0.002}',
    '{"account": 10, "category": "profiles", "kind": "throttle", "phase": "-", '
    '"retry_after": 30.0, "seq": 3, "sim_ts": 6.25, "slept": 0.0}',
    '{"account": 10, "category": "profiles", "kind": "throttle", "phase": "-", '
    '"retry_after": 30.0, "seq": 4, "sim_ts": 51.75, "slept": 45.5}',
    '{"account": 2, "category": "profiles", "delay": 0.3333333333333333, "kind": "request", '
    '"outcome": "not_found", "path": "/profile/8", "phase": "-", "seq": 5, '
    '"sim_ts": 52.083333333333336, "wall_seconds": 0.3}',
    '{"account": 10, "category": "friend_lists", "delay": 120.0, "kind": "request", '
    '"outcome": "forbidden", "path": "/profile/7/friends", "phase": "-", "seq": 6, '
    '"sim_ts": 172.08333333333334, "wall_seconds": 0.05}',
    '{"account": 2, "category": "other", "delay": 0.1, "kind": "request", '
    '"outcome": "bad_request", "path": "/messages/send", "phase": "-", "seq": 7, '
    '"sim_ts": 172.18333333333334, "wall_seconds": 1e-05}',
    '{"account": 2, "category": "profiles", "delay": 7.0, "kind": "request", '
    '"outcome": "auth_failed", "path": "/profile/9", "phase": "-", "seq": 8, '
    '"sim_ts": 179.18333333333334, "wall_seconds": 2.0}',
    '{"account": 10, "category": "profiles", "delay": 400.0, "kind": "request", '
    '"outcome": "account_disabled", "path": "/profile/9", "phase": "-", "seq": 9, '
    '"sim_ts": 579.1833333333334, "wall_seconds": 0.001}',
    r'{"account": 2, "category": "we\"ird\\cat\n", "delay": 60.0, "kind": "request", '
    '"outcome": "ok", "path": "/profile/9/friends", "phase": "-", "seq": 10, '
    '"sim_ts": 639.1833333333334, "wall_seconds": 35.0}',
    '{"account": 10, "kind": "account_lost", "phase": "-", "pinned": false, '
    '"rotated": true, "seq": 11, "sim_ts": 639.1833333333334}',
    '{"account": 2, "category": "profiles", "kind": "retry_exhausted", '
    '"path": "/profile/9", "phase": "-", "seq": 12, "sim_ts": 639.1833333333334, '
    '"throttles": 9}',
    '{"error": false, "kind": "span", "name": "core", "parent": "-", "phase": "-", '
    '"seq": 13, "sim_seconds": 639.1833333333334, "sim_start": 0.0, '
    '"sim_ts": 639.1833333333334, "wall_seconds": 0.25}',
]

_METRICS = r"""# HELP crawl_requests_total Successful crawl GETs by Table-3 category
# TYPE crawl_requests_total counter
crawl_requests_total{category="seeds"} 2
crawl_requests_total{category="we\"ird\\cat\n"} 1
# HELP crawl_account_requests_total Successful crawl GETs per crawl account
# TYPE crawl_account_requests_total counter
crawl_account_requests_total{account="10"} 1
crawl_account_requests_total{account="2"} 2
# HELP frontend_requests_total HTTP requests served by the OSN frontend, by outcome
# TYPE frontend_requests_total counter
frontend_requests_total{outcome="account_disabled"} 1
frontend_requests_total{outcome="auth_failed"} 1
frontend_requests_total{outcome="bad_request"} 1
frontend_requests_total{outcome="forbidden"} 1
frontend_requests_total{outcome="not_found"} 1
frontend_requests_total{outcome="ok"} 3
frontend_requests_total{outcome="rate_limited"} 1
# HELP frontend_request_wall_seconds Wall-clock time spent serving one request
# TYPE frontend_request_wall_seconds histogram
frontend_request_wall_seconds_bucket{le="0.001"} 3
frontend_request_wall_seconds_bucket{le="0.005"} 4
frontend_request_wall_seconds_bucket{le="0.01"} 4
frontend_request_wall_seconds_bucket{le="0.025"} 5
frontend_request_wall_seconds_bucket{le="0.05"} 6
frontend_request_wall_seconds_bucket{le="0.1"} 6
frontend_request_wall_seconds_bucket{le="0.25"} 6
frontend_request_wall_seconds_bucket{le="0.5"} 7
frontend_request_wall_seconds_bucket{le="1"} 7
frontend_request_wall_seconds_bucket{le="2.5"} 8
frontend_request_wall_seconds_bucket{le="5"} 8
frontend_request_wall_seconds_bucket{le="10"} 8
frontend_request_wall_seconds_bucket{le="30"} 8
frontend_request_wall_seconds_bucket{le="60"} 9
frontend_request_wall_seconds_bucket{le="120"} 9
frontend_request_wall_seconds_bucket{le="300"} 9
frontend_request_wall_seconds_bucket{le="+Inf"} 9
frontend_request_wall_seconds_sum 37.36571
frontend_request_wall_seconds_count 9
# HELP ratelimit_strikes_total Rate-limit strikes earned, per crawl account
# TYPE ratelimit_strikes_total counter
ratelimit_strikes_total{account="10"} 2
# HELP ratelimit_accounts_disabled_total Accounts permanently disabled for aggressive crawling
# TYPE ratelimit_accounts_disabled_total counter
ratelimit_accounts_disabled_total 1
# HELP pacer_sleep_seconds Simulated seconds slept between requests, by reason
# TYPE pacer_sleep_seconds histogram
pacer_sleep_seconds_bucket{reason="backoff",le="0.001"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.005"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.01"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.025"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.05"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.1"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.25"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="0.5"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="1"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="2.5"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="5"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="10"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="30"} 0
pacer_sleep_seconds_bucket{reason="backoff",le="60"} 1
pacer_sleep_seconds_bucket{reason="backoff",le="120"} 1
pacer_sleep_seconds_bucket{reason="backoff",le="300"} 1
pacer_sleep_seconds_bucket{reason="backoff",le="+Inf"} 1
pacer_sleep_seconds_sum{reason="backoff"} 45.5
pacer_sleep_seconds_count{reason="backoff"} 1
pacer_sleep_seconds_bucket{reason="polite",le="0.001"} 0
pacer_sleep_seconds_bucket{reason="polite",le="0.005"} 0
pacer_sleep_seconds_bucket{reason="polite",le="0.01"} 0
pacer_sleep_seconds_bucket{reason="polite",le="0.025"} 0
pacer_sleep_seconds_bucket{reason="polite",le="0.05"} 0
pacer_sleep_seconds_bucket{reason="polite",le="0.1"} 1
pacer_sleep_seconds_bucket{reason="polite",le="0.25"} 1
pacer_sleep_seconds_bucket{reason="polite",le="0.5"} 2
pacer_sleep_seconds_bucket{reason="polite",le="1"} 2
pacer_sleep_seconds_bucket{reason="polite",le="2.5"} 3
pacer_sleep_seconds_bucket{reason="polite",le="5"} 4
pacer_sleep_seconds_bucket{reason="polite",le="10"} 5
pacer_sleep_seconds_bucket{reason="polite",le="30"} 5
pacer_sleep_seconds_bucket{reason="polite",le="60"} 6
pacer_sleep_seconds_bucket{reason="polite",le="120"} 7
pacer_sleep_seconds_bucket{reason="polite",le="300"} 7
pacer_sleep_seconds_bucket{reason="polite",le="+Inf"} 8
pacer_sleep_seconds_sum{reason="polite"} 593.6833333333334
pacer_sleep_seconds_count{reason="polite"} 8
"""


def test_trace_lines_are_pinned(outputs):
    """Keys sorted, floats as their shortest ``repr``, one event a line."""
    lines, _ = outputs
    assert lines == _TRACE


def test_metrics_text_is_pinned(outputs):
    """Seven families in a fixed order, label values sorted as text and
    escaped, a zero polite delay and a zero back-off observed nowhere."""
    _, text = outputs
    assert text == _METRICS


def test_span_events_pin_phase_parent_and_error(tmp_path):
    """A closing span is attributed to its parent phase, with or without
    an exception; events inside a span carry the span's name."""
    clock = SimClock()
    telemetry = _session(clock, tmp_path)
    with telemetry.span("core"):
        clock.sleep(10.0)
        with telemetry.span("friend_lists"):
            telemetry.emit("account_lost", account=2, pinned=True, rotated=False)
            clock.sleep(5.0)
        with pytest.raises(RuntimeError):
            with telemetry.span("scoring"):
                clock.sleep(1.0)
                raise RuntimeError("boom")
        assert telemetry.phase == "core"
    with pytest.raises(KeyError):
        with telemetry.span("threshold"):
            raise KeyError(7)
    assert telemetry.phase == "-"
    telemetry.close()

    events = telemetry.events
    assert [(e.kind, e.seq, e.phase) for e in events] == [
        ("account_lost", 0, "friend_lists"),
        ("span", 1, "core"),
        ("span", 2, "core"),
        ("span", 3, "-"),
        ("span", 4, "-"),
    ]
    spans = [e.fields for e in events[1:]]
    for fields in spans:
        assert sorted(fields) == [
            "error", "name", "parent", "sim_seconds", "sim_start", "wall_seconds"
        ]
        assert fields["wall_seconds"] >= 0.0
    assert [
        (f["name"], f["parent"], f["error"], f["sim_start"], f["sim_seconds"])
        for f in spans
    ] == [
        ("friend_lists", "core", False, 10.0, 5.0),
        ("scoring", "core", True, 15.0, 1.0),
        ("core", "-", False, 0.0, 16.0),
        ("threshold", "-", True, 16.0, 0.0),
    ]
