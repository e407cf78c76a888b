"""End-to-end telemetry: a full instrumented attack, CLI included.

The acceptance bar from the telemetry subsystem: the event stream and
the metrics folded from it must agree *exactly* with the pipeline's own
effort accounting (:class:`~repro.crawler.effort.EffortReport`), both
live and after a JSONL round-trip through ``python -m repro trace``.
"""

import inspect

import pytest

from repro.cli import main
from repro.colgen.serve import columnar_frontend, frontend_for_object_world
from repro.crawler.effort import (
    CATEGORY_FRIEND_LISTS,
    CATEGORY_OTHER,
    CATEGORY_PROFILES,
    CATEGORY_SEEDS,
)
from repro.crawler.politeness import Pacer
from repro.core.api import make_client, run_attack
from repro.core.profiler import ProfilerConfig
from repro.osn.frontend import HtmlFrontend
from repro.osn.ratelimit import RateLimiter
from repro.telemetry import CrawlSessionReport, Telemetry, fold_metrics, read_jsonl
from repro.worldgen.presets import smoke, tiny
from repro.worldgen.world import build_world


@pytest.fixture(scope="module")
def instrumented_world(tmp_path_factory):
    """One instrumented enhanced+filtered attack on the smoke-tier world.

    These assertions are scale-independent (event/effort agreement), so
    the mid-sized smoke preset replaces the paper-scale HS1 build the
    fixture used to pay for.
    """
    world = build_world(smoke())
    out = tmp_path_factory.mktemp("telemetry")
    path = out / "smoke.jsonl"
    telemetry = Telemetry(world.network.clock, jsonl=str(path))
    client = make_client(world, accounts=2, telemetry=telemetry)
    result = run_attack(
        world,
        config=ProfilerConfig(threshold=500, enhanced=True, filtering=True),
        client=client,
    )
    telemetry.close()
    return world, telemetry, result, str(path), client, fold_metrics(telemetry.events)


def _attempts(telemetry, outcome=None):
    return [
        e
        for e in telemetry.events
        if e.kind == "request" and outcome in (None, e.fields["outcome"])
    ]


class TestEffortAgreement:
    def test_request_events_match_effort_total(self, instrumented_world):
        _, telemetry, result, *_ = instrumented_world
        assert len(_attempts(telemetry, "ok")) == result.effort.total

    def test_registry_counter_matches_effort_total(self, instrumented_world):
        """The folded Table-3 counters are the effort report's."""
        _, _, result, _, _, families = instrumented_world
        assert families["crawl_requests_total"] == {
            category: count
            for category, count in (
                (CATEGORY_SEEDS, result.effort.seed_requests),
                (CATEGORY_PROFILES, result.effort.profile_requests),
                (CATEGORY_FRIEND_LISTS, result.effort.friend_list_requests),
                (CATEGORY_OTHER, result.effort.other_requests),
            )
            if count
        }

    def test_registry_account_counter_matches_effort_counter(self, instrumented_world):
        *_, client, families = instrumented_world
        assert families["crawl_account_requests_total"] == {
            str(account): count for account, count in client.counter.by_account().items()
        }

    def test_registry_outcomes_sum_to_get_attempts(self, instrumented_world):
        _, telemetry, *_, families = instrumented_world
        report = CrawlSessionReport.from_events(telemetry.events)
        assert sum(families["frontend_requests_total"].values()) == report.total_attempts
        assert families["frontend_request_wall_seconds"][None].count == report.total_attempts

    def test_registry_polite_sleeps_match_attempts_and_pacers(self, instrumented_world):
        _, telemetry, *_, client, families = instrumented_world
        report = CrawlSessionReport.from_events(telemetry.events)
        polite = families["pacer_sleep_seconds"]["polite"]
        assert polite.count == report.total_attempts
        slept = sum(client.pacer_for(uid).total_slept for uid in client.pool.account_ids)
        assert polite.sum == pytest.approx(slept - report.total_backoff_seconds)

    def test_per_category_counts_match(self, instrumented_world):
        _, telemetry, result, *_ = instrumented_world
        report = CrawlSessionReport.from_events(telemetry.events)
        assert report.category_count(CATEGORY_SEEDS) == result.effort.seed_requests
        assert report.category_count(CATEGORY_PROFILES) == result.effort.profile_requests
        assert (
            report.category_count(CATEGORY_FRIEND_LISTS)
            == result.effort.friend_list_requests
        )

    def test_accounts_used_match(self, instrumented_world):
        _, telemetry, result, *_ = instrumented_world
        report = CrawlSessionReport.from_events(telemetry.events)
        assert report.accounts_used == result.effort.accounts_used

    def test_frontend_attempts_cover_every_effort_request(self, instrumented_world):
        world, telemetry, *_ = instrumented_world
        # request_count omits attempts rejected by auth or the limiter
        rejected = {"auth_failed", "rate_limited", "account_disabled"}
        served = [e for e in _attempts(telemetry) if e.fields["outcome"] not in rejected]
        assert len(served) == world.frontend.request_count


class TestPhases:
    def test_every_methodology_step_has_a_span(self, instrumented_world):
        _, telemetry, *_ = instrumented_world
        span_names = {e.fields["name"] for e in telemetry.events if e.kind == "span"}
        assert {"setup", "seeds", "core", "scoring", "candidates", "threshold"} <= span_names

    def test_phase_request_totals_sum_to_effort(self, instrumented_world):
        _, telemetry, result, *_ = instrumented_world
        report = CrawlSessionReport.from_events(telemetry.events)
        assert sum(p.pages for p in report.phases.values()) == result.effort.total

    def test_sim_time_attributed_to_phases(self, instrumented_world):
        _, telemetry, *_ = instrumented_world
        report = CrawlSessionReport.from_events(telemetry.events)
        crawl_phases = ("seeds", "core")
        assert all(report.phases[p].sim_seconds > 0 for p in crawl_phases)


class TestJsonlReplay:
    def test_replay_equals_live_report(self, instrumented_world):
        _, telemetry, _, path, *_ = instrumented_world
        live = CrawlSessionReport.from_events(telemetry.events)
        replayed = CrawlSessionReport.from_events(read_jsonl(path))
        assert replayed == live

    def test_trace_cli_prints_matching_total(self, instrumented_world, capsys):
        _, _, result, path, *_ = instrumented_world
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert f"total requests (effort): {result.effort.total}" in out


class TestCliAttackTelemetry:
    def test_attack_writes_trace_and_trace_replays_it(self, tmp_path, capsys):
        trace_path = tmp_path / "tiny.jsonl"
        prom_path = tmp_path / "tiny.prom"
        code = main(
            [
                "attack",
                "--preset",
                "tiny",
                "-t",
                "120",
                "--telemetry",
                str(trace_path),
                "--prometheus",
                str(prom_path),
            ]
        )
        assert code == 0
        attack_out = capsys.readouterr().out
        assert "telemetry:" in attack_out
        gets = int(
            next(
                line for line in attack_out.splitlines() if "HTTP GETs" in line
            ).split("|")[1]
        )

        assert main(["trace", str(trace_path)]) == 0
        trace_out = capsys.readouterr().out
        assert f"total requests (effort): {gets}" in trace_out
        assert "crawl_requests_total" in prom_path.read_text()


class TestOffByDefault:
    def test_uninstrumented_attack_allocates_no_telemetry(self, tiny_world):
        """Only the client can hold a handle: nothing it calls takes one."""
        client = make_client(tiny_world, accounts=2)
        assert client.telemetry is None
        pacer = client.pacer_for(client.pool.account_ids[0])
        for component in (tiny_world.frontend, tiny_world.frontend.limiter, pacer):
            assert not any(isinstance(v, Telemetry) for v in vars(component).values())
            assert not hasattr(component, "telemetry")
        factories = (HtmlFrontend, RateLimiter, Pacer, columnar_frontend, frontend_for_object_world)
        for factory in factories:
            assert "telemetry" not in inspect.signature(factory).parameters


class TestSessionOwnsItsTelemetry:
    def test_closed_session_gains_no_events_from_a_later_attack(self):
        """A second, uninstrumented attack on the same world writes
        nothing into the first session's stream."""
        world = build_world(tiny())
        config = ProfilerConfig(threshold=120)
        telemetry = Telemetry(world.network.clock)
        run_attack(world, config=config, telemetry=telemetry)
        telemetry.close()
        recorded = telemetry.event_count
        assert len(telemetry.events) == recorded > 0

        run_attack(world, config=config)
        assert telemetry.event_count == len(telemetry.events) == recorded
