"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_thresholds, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.preset == "hs1"
        assert args.accounts == 2
        assert not args.enhanced

    def test_threshold_list_parsing(self):
        assert _parse_thresholds("100,200,300") == [100, 200, 300]

    def test_bad_threshold_list_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_thresholds("a,b")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_thresholds("")

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--preset", "hs9"])

    @pytest.mark.parametrize("command", [("attack", "-t", "120"), ("crawl",)])
    @pytest.mark.parametrize("accounts", ["0", "-2"])
    def test_non_positive_accounts_is_a_usage_error(self, command, accounts, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*command, "--preset", "tiny", "--accounts", accounts])
        assert exited.value.code == 2
        assert f"--accounts: must be at least 1, not {accounts}" in capsys.readouterr().err

    def test_negative_budget_is_a_usage_error(self, capsys):
        # Applied as a slice, -3 used to crawl all but the last 3 seeds.
        with pytest.raises(SystemExit) as exited:
            main(["crawl", "--preset", "tiny", "--budget", "-3"])
        assert exited.value.code == 2
        assert "--budget: must be at least 0, not -3" in capsys.readouterr().err

    def test_crawl_of_a_tier_without_a_graph_is_a_usage_error(self, capsys):
        # metro materialises no adjacency: its crawl died at the first
        # profile GET, after generating ~10M accounts.
        with pytest.raises(SystemExit) as exited:
            main(["crawl", "--tier", "metro"])
        assert exited.value.code == 2
        assert "invalid choice: 'metro'" in capsys.readouterr().err


class TestCommands:
    def test_worldinfo(self, capsys):
        assert main(["worldinfo", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Smallville High School" in out
        assert "age liars" in out

    def test_worldinfo_without_coppa(self, capsys):
        assert main(["worldinfo", "--preset", "tiny", "--without-coppa"]) == 0
        out = capsys.readouterr().out
        assert "age liars (all accounts)  | 0" in out

    def test_attack(self, capsys):
        code = main(
            ["attack", "--preset", "tiny", "-t", "120", "--enhanced", "--filtering"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "students found" in out
        assert "false positives" in out

    def test_attack_refuses_prometheus_without_telemetry(self, tmp_path, capsys, monkeypatch):
        import repro.cli

        def no_world(args):
            raise AssertionError("the world was built before the usage check")

        monkeypatch.setattr(repro.cli, "_build_world_from", no_world)
        prom = tmp_path / "m.prom"
        assert main(["attack", "--preset", "tiny", "--prometheus", str(prom)]) == 2
        assert "--telemetry" in capsys.readouterr().err
        assert not prom.exists()

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--preset", "tiny", "--thresholds", "60,90,120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "% of students found for TINY" in out

    def test_tables_facebook(self, capsys):
        assert main(["tables", "--policy", "facebook"]) == 0
        assert "Public Search" in capsys.readouterr().out

    def test_tables_googleplus(self, capsys):
        assert main(["tables", "--policy", "googleplus"]) == 0
        assert "Have You in Circles" in capsys.readouterr().out

    def test_countermeasure(self, capsys):
        code = main(
            [
                "countermeasure",
                "--preset",
                "tiny",
                "-t",
                "120",
                "--thresholds",
                "60,120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Without reverse lookup" in out

    def test_coppaless(self, capsys):
        code = main(["coppaless", "--preset", "tiny", "-t", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Without-COPPA" in out


class TestExtendedCommands:
    def test_export_aggregate(self, capsys, tmp_path):
        out = str(tmp_path / "w.json")
        assert main(["export", "--preset", "tiny", "-o", out]) == 0
        import json

        doc = json.load(open(out))
        assert "summary" in doc and "users" not in doc

    def test_export_full(self, capsys, tmp_path):
        out = str(tmp_path / "w.json")
        assert main(["export", "--preset", "tiny", "--full", "-o", out]) == 0
        import json

        doc = json.load(open(out))
        assert doc["users"] and doc["edges"]

    def test_robustness(self, capsys):
        code = main(
            ["robustness", "--preset", "tiny", "-t", "120", "--seeds", "1,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "2 seeds" in out

    def test_defences(self, capsys):
        code = main(["defences", "--preset", "tiny", "-t", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no_reverse_lookup" in out
        assert "age_verification" in out


def crawl_table(capsys, *argv):
    """The metric -> value rows ``crawl`` prints for ``argv``."""
    assert main(["crawl", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(
        (cell.strip() for cell in line.split("|")) for line in lines if "|" in line
    )


TINY = ("--preset", "tiny", "--accounts", "4", "--budget", "10")
SMOKE = ("--tier", "smoke", "--budget", "3")


class TestCrawlCommand:
    def test_object_and_columnar_serving_crawl_the_same_pages(self, capsys):
        tables = {
            serve: crawl_table(capsys, *TINY, "--serve", serve)
            for serve in ("object", "columnar")
        }
        rows = (
            "pages",
            "sim_seconds",
            "seeds",
            "profiles",
            "friend_lists",
            "seed_requests",
            "profile_requests",
            "friend_list_requests",
        )
        for table in tables.values():
            assert table["failures"] == "0"
            assert not [name for name in table if name.startswith("cache_")]
        assert int(tables["object"]["pages"]) > 0
        assert int(tables["object"]["profiles"]) == 10
        assert [tables["object"][row] for row in rows] == [
            tables["columnar"][row] for row in rows
        ]

    def test_tier_implies_columnar_serving(self, capsys):
        implied = crawl_table(capsys, *SMOKE)
        assert implied == crawl_table(capsys, *SMOKE, "--serve", "columnar")
        assert implied["world"] == "tier=smoke seed=1 serve=columnar"

    def test_tier_refuses_object_serving(self, capsys):
        assert main(["crawl", *SMOKE, "--serve", "object"]) == 2
        assert "use --serve columnar" in capsys.readouterr().err

    def test_zero_budget_crawls_only_the_seeds(self, capsys):
        table = crawl_table(capsys, "--preset", "tiny", "--accounts", "2", "--budget", "0")
        assert int(table["seeds"]) > 0
        assert (table["profiles"], table["friend_lists"]) == ("0", "0")
        assert table["pages"] == table["seed_requests"]

    def test_telemetry_trace_replays_the_crawls_pages(self, capsys, tmp_path):
        trace = tmp_path / "crawl.jsonl"
        table = crawl_table(
            capsys, "--preset", "tiny", "--accounts", "8", "--budget", "20",
            "--telemetry", str(trace),
        )
        assert main(["trace", str(trace)]) == 0
        [effort] = [
            line.split(":")[1].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("total requests (effort):")
        ]
        assert effort == table["pages"] == "106"

    def test_unwritable_telemetry_path_fails_before_the_world_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        def no_world(args):
            raise AssertionError("the world was built before the path check")

        monkeypatch.setattr(repro.cli, "_build_world_from", no_world)
        trace = tmp_path / "missing" / "crawl.jsonl"
        assert main(["crawl", "--preset", "tiny", "--telemetry", str(trace)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_tier_crawls_seed_zero(self, capsys):
        table = crawl_table(capsys, *SMOKE, "--seed", "0")
        assert table["world"] == "tier=smoke seed=0 serve=columnar"


def trace_summary(capsys, trace):
    """The ``label: value`` lines ``trace`` prints after its tables."""
    assert main(["trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(
        (label, value.strip())
        for label, colon, value in (line.partition(":") for line in lines)
        if colon
    )


class TestTraceCommand:
    """The replay says how long a run took and what it failed to do."""

    def test_crawl_replay_takes_its_duration_from_the_spans(self, capsys, tmp_path):
        # The first GET waits out a polite delay, so the first event's
        # timestamp is ~2.6 s after the crawl started: last minus first
        # read 42.1 s, short of the table's 44.7.
        trace = tmp_path / "crawl.jsonl"
        table = crawl_table(
            capsys, "--preset", "tiny", "--accounts", "8", "--budget", "20",
            "--telemetry", str(trace),
        )
        summary = trace_summary(capsys, trace)
        assert summary["sim crawl duration"] == f"{table['sim_seconds']} s" == "44.7 s"
        assert summary["unserved items"] == summary["retries exhausted"] == "0"

    def test_attack_replay_sums_the_top_level_spans(self, capsys, tmp_path):
        from repro.telemetry import read_jsonl

        trace = tmp_path / "attack.jsonl"
        assert main(["attack", "--preset", "tiny", "--telemetry", str(trace)]) == 0
        capsys.readouterr()
        top = [
            e.fields for e in read_jsonl(str(trace))
            if e.kind == "span" and e.fields["parent"] == "-"
        ]
        assert [span["name"] for span in top] == [
            "setup", "seeds", "core", "scoring", "threshold",
        ]
        duration = sum(span["sim_seconds"] for span in top)
        assert trace_summary(capsys, trace)["sim crawl duration"] == f"{duration:.1f} s"
        assert f"{duration:.1f}" == "425.0"


class TestOutputPaths:
    """Every output path is checked before a world is built, and a
    closed stdout ends a command quietly."""

    @staticmethod
    def no_world(*args, **kwargs):
        raise AssertionError("a world was built before the path check")

    @staticmethod
    def one_error(capsys, path):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {str(path)!r}")

    def test_unwritable_bench_out_fails_before_the_world_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.colgen

        monkeypatch.setattr(repro.colgen, "bench_worldgen", self.no_world)
        out = tmp_path / "missing" / "BENCH_worldgen.json"
        assert main(["worldgen", "--tier", "smoke", "--bench-out", str(out)]) == 2
        self.one_error(capsys, out)

    def test_unwritable_export_path_fails_before_the_world_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        monkeypatch.setattr(repro.cli, "_build_world_from", self.no_world)
        out = tmp_path / "missing" / "world.json"
        assert main(["export", "--preset", "tiny", "-o", str(out)]) == 2
        self.one_error(capsys, out)

    def test_checking_the_bench_out_path_keeps_the_previous_record(
        self, tmp_path, monkeypatch
    ):
        import repro.colgen

        def failed_build(*args, **kwargs):
            raise RuntimeError("the build failed")

        monkeypatch.setattr(repro.colgen, "bench_worldgen", failed_build)
        out = tmp_path / "BENCH_worldgen.json"
        out.write_bytes(b'{"tier": "city"}\n')
        with pytest.raises(RuntimeError, match="the build failed"):
            main(["worldgen", "--tier", "smoke", "--bench-out", str(out)])
        assert out.read_bytes() == b'{"tier": "city"}\n'
        assert [path.name for path in tmp_path.iterdir()] == [out.name]

    def test_a_closed_stdout_ends_quietly(self):
        import os
        import subprocess
        import sys

        # Block-buffered, as stdout on a pipe is by default, the listing
        # meets the closed pipe only when stdout is flushed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "lint", "--list-rules"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
