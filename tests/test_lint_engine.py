"""Engine plumbing: suppressions, baseline round-trip, reporters, CLI."""

from __future__ import annotations

import json
import textwrap

from repro.cli import main
from repro.lint import (
    Baseline,
    DIRECTIVE_RULE,
    PARSE_ERROR_RULE,
    lint_paths,
    lint_source,
    module_name_for,
    render_json,
    render_text,
)

VIOLATION = "from repro.worldgen.world import World\n"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def _write_attacker(tmp_path, source):
    """A fixture file whose derived module is 'repro.core.fake_core'."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True, exist_ok=True)
    return _write(package, "fake_core.py", source)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_justified_suppression_silences_finding(self):
        findings = lint_source(
            "from repro.worldgen.world import World  "
            "# repro-lint: allow(ORACLE001) -- test fixture crossing on purpose\n",
            module="repro.core.fake",
        )
        assert findings == []

    def test_suppression_is_rule_specific(self):
        findings = lint_source(
            "from repro.worldgen.world import World  "
            "# repro-lint: allow(DET001) -- wrong rule id\n",
            module="repro.core.fake",
        )
        assert [f.rule for f in findings] == ["ORACLE001"]

    def test_empty_justification_is_a_finding_and_ignored(self):
        findings = lint_source(
            "from repro.worldgen.world import World  "
            "# repro-lint: allow(ORACLE001)\n",
            module="repro.core.fake",
        )
        rules = sorted(f.rule for f in findings)
        assert rules == [DIRECTIVE_RULE, "ORACLE001"]

    def test_whitespace_justification_is_rejected(self):
        findings = lint_source(
            "from repro.worldgen.world import World  "
            "# repro-lint: allow(ORACLE001) --   \n",
            module="repro.core.fake",
        )
        assert DIRECTIVE_RULE in [f.rule for f in findings]

    def test_malformed_directive_is_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: allowing(ORACLE001) -- typo\n",
            module="repro.core.fake",
        )
        assert [f.rule for f in findings] == [DIRECTIVE_RULE]

    def test_multiple_rules_in_one_directive(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time
                from repro.worldgen.world import World  # repro-lint: allow(ORACLE001, CLOCK001) -- fixture

                def now():
                    return time.time()
                """
            ),
            module="repro.core.fake",
        )
        assert [f.rule for f in findings] == ["CLOCK001"]

    def test_directive_inside_string_is_not_a_directive(self):
        findings = lint_source(
            's = "# repro-lint: allow(ORACLE001)"\n',
            module="repro.core.fake",
        )
        assert findings == []

    def test_directive_on_last_line_of_multiline_statement(self):
        findings = lint_source(
            "from repro.worldgen.world import (\n"
            "    World,\n"
            ")  # repro-lint: allow(ORACLE001) -- reflowed import, directive stays attached\n",
            module="repro.core.fake",
        )
        assert findings == []

    def test_directive_on_decorated_def_header(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import functools

                @functools.lru_cache(maxsize=None)
                def f(
                    xs=[],
                ):  # repro-lint: allow(MUT001) -- fixture: never mutated after construction
                    return xs
                """
            ),
            module="repro.osn.fake",
        )
        assert findings == []

    def test_directive_on_decorator_line_covers_the_signature(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import functools

                @functools.lru_cache(maxsize=None)  # repro-lint: allow(MUT001) -- fixture
                def f(xs=[]):
                    return xs
                """
            ),
            module="repro.osn.fake",
        )
        assert findings == []

    def test_compound_header_directive_does_not_blanket_the_suite(self):
        findings = lint_source(
            textwrap.dedent(
                """
                def g(flag):  # repro-lint: allow(MUT001) -- header only
                    def inner(xs=[]):
                        return xs
                    return inner
                """
            ),
            module="repro.osn.fake",
        )
        assert [f.rule for f in findings] == ["MUT001"]


class TestSharedDirective:
    def test_shared_without_why_is_flagged(self):
        findings = lint_source(
            "x = 1  # repro-lint: shared(Registry)\n",
            module="repro.osn.fake",
        )
        assert [f.rule for f in findings] == [DIRECTIVE_RULE]

    def test_shared_without_owner_is_malformed(self):
        findings = lint_source(
            "x = 1  # repro-lint: shared() -- nobody owns this\n",
            module="repro.osn.fake",
        )
        assert [f.rule for f in findings] == [DIRECTIVE_RULE]

    def test_shared_does_not_suppress_other_rules(self):
        findings = lint_source(
            "from repro.worldgen.world import World  "
            "# repro-lint: shared(World) -- sharing is not allowing\n",
            module="repro.core.fake",
        )
        assert [f.rule for f in findings] == ["ORACLE001"]

    def test_valid_shared_directive_is_not_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: shared(Registry) -- single-writer registry\n",
            module="repro.osn.fake",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

class TestBaseline:
    def test_round_trip_filters_grandfathered_findings(self, tmp_path):
        source_path = _write_attacker(tmp_path, VIOLATION)
        report = lint_paths([source_path])
        assert not report.ok

        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(report.findings).save(str(baseline_path))
        reloaded = Baseline.load(str(baseline_path))

        filtered = lint_paths([source_path], baseline=reloaded)
        assert filtered.ok
        assert filtered.baselined == len(report.findings)

    def test_new_instances_of_baselined_finding_still_fail(self, tmp_path):
        source_path = _write_attacker(tmp_path, VIOLATION)
        baseline = Baseline.from_findings(lint_paths([source_path]).findings)
        # The same import appears twice now: one slot is grandfathered,
        # the duplicate must surface as new.
        _write_attacker(tmp_path, VIOLATION + VIOLATION)
        report = lint_paths([source_path], baseline=baseline)
        assert len(report.findings) == 1
        assert report.baselined == 1

    def test_baseline_rejects_foreign_documents(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"version": 99, "findings": []}))
        try:
            Baseline.load(str(bogus))
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for unknown version")


# ----------------------------------------------------------------------
# Engine details
# ----------------------------------------------------------------------

class TestEngine:
    def test_module_name_derivation(self):
        assert module_name_for("src/repro/core/api.py") == "repro.core.api"
        assert module_name_for("src/repro/osn/__init__.py") == "repro.osn"
        assert module_name_for("elsewhere/script.py") == "script"

    def test_unparsable_file_reports_instead_of_crashing(self, tmp_path):
        source_path = _write(tmp_path, "broken.py", "def f(:\n")
        report = lint_paths([source_path])
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]

    def test_reporters_render_summary(self, tmp_path):
        source_path = _write_attacker(tmp_path, VIOLATION)
        report = lint_paths([source_path])
        text = render_text(report)
        assert "ORACLE001" in text and "1 finding" in text
        document = json.loads(render_json(report))
        assert document["summary"]["ok"] is False
        assert document["findings"][0]["rule"] == "ORACLE001"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_lint_subcommand_clean_exit(self, tmp_path, capsys):
        source_path = _write(tmp_path, "clean.py", "x = 1\n")
        assert main(["lint", "--no-cache", source_path]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_subcommand_failure_exit(self, tmp_path, capsys):
        source_path = _write(tmp_path, "whatever.py", "def f(xs=[]):\n    return xs\n")
        assert main(["lint", "--no-cache", source_path]) == 1
        assert "MUT001" in capsys.readouterr().out

    def test_write_and_use_baseline(self, tmp_path, capsys):
        source_path = _write(
            tmp_path, "fake.py", "def f(xs=[]):\n    return xs\n\n\ng = f\n"
        )
        baseline_path = str(tmp_path / "baseline.json")
        assert main([
            "lint", "--no-cache", source_path,
            "--baseline", baseline_path, "--write-baseline",
        ]) == 0
        assert main([
            "lint", "--no-cache", source_path, "--baseline", baseline_path
        ]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_select_unknown_rule_is_usage_error(self, tmp_path):
        source_path = _write(tmp_path, "clean.py", "x = 1\n")
        for rule_id in ("NOPE999", "ASYNC001", "ASYNC002"):
            assert main(["lint", "--no-cache", source_path, "--select", rule_id]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "ORACLE001", "ORACLE002", "DET001", "CLOCK001", "MUT001", "PURE001", "SHARE001"
        ):
            assert rule_id in out
        assert "ASYNC001" not in out
        assert "ASYNC002" not in out


# ----------------------------------------------------------------------
# Worker crashes: contained as LINT002, identical across --jobs values
# ----------------------------------------------------------------------

class TestWorkerCrash:
    def _with_boom_rule(self):
        from repro.lint import all_rules
        from repro.lint.rules.base import Rule, register

        @register
        class _BoomRule(Rule):
            rule_id = "TST900"
            summary = "synthetic crash fixture"

            def check(self, ctx):
                if "BOOM_MARKER" in ctx.source:
                    raise RuntimeError("synthetic rule crash")
                return iter(())

        return all_rules()

    def _pop_boom_rule(self):
        from repro.lint.rules.base import _REGISTRY

        _REGISTRY.pop("TST900", None)

    def test_crash_becomes_lint002_with_the_child_traceback(self, tmp_path):
        rules = self._with_boom_rule()
        try:
            healthy = _write(tmp_path, "a.py", "x = 1\n")
            doomed = _write(tmp_path, "b.py", "BOOM_MARKER = 1\n")
            report = lint_paths([healthy, doomed], rules=rules)
            assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
            crash = report.findings[0]
            assert crash.path == doomed
            assert "RuntimeError('synthetic rule crash')" in crash.message
            assert "Traceback" in crash.message
            assert report.infrastructure_errors == 1
        finally:
            self._pop_boom_rule()

    def test_pool_output_matches_serial_and_siblings_survive(self, tmp_path):
        rules = self._with_boom_rule()
        try:
            paths = [
                _write(tmp_path, "a.py", "def f(xs=[]):\n    return xs\n"),
                _write(tmp_path, "b.py", "BOOM_MARKER = 1\n"),
                _write(tmp_path, "c.py", "x = 1\n"),
            ]
            serial = lint_paths(paths, rules=rules, jobs=1)
            pooled = lint_paths(paths, rules=rules, jobs=2)
            assert pooled.findings == serial.findings
            rules_seen = {f.rule for f in serial.findings}
            # the sibling file's MUT001 finding survived the crash
            assert {"MUT001", PARSE_ERROR_RULE} <= rules_seen
        finally:
            self._pop_boom_rule()

    def test_crash_is_an_infrastructure_exit(self, tmp_path):
        self._with_boom_rule()
        try:
            doomed = _write(tmp_path, "b.py", "BOOM_MARKER = 1\n")
            assert main(["lint", "--no-cache", doomed]) == 2
        finally:
            self._pop_boom_rule()


# ----------------------------------------------------------------------
# Cache invalidation: adding a rule *module* must cold the cache
# ----------------------------------------------------------------------

class TestRuleSourceCacheInvalidation:
    def _register_fixture_rule(self):
        from repro.lint.rules.base import Rule, register

        @register
        class _FreshRule(Rule):
            rule_id = "TST901"
            summary = "cache invalidation fixture"

            def check(self, ctx):
                return iter(())

    def _pop_fixture_rule(self):
        from repro.lint.rules.base import _REGISTRY

        _REGISTRY.pop("TST901", None)

    def test_signature_changes_when_a_rule_module_joins(self):
        from repro.lint import rule_signature

        selected = ["MUT001", "DET001"]
        before = rule_signature(selected)
        self._register_fixture_rule()
        try:
            # Same engine version, same summary version, same *selected*
            # ids — only the registry grew.  The source digest must move.
            after = rule_signature(selected)
        finally:
            self._pop_fixture_rule()
        assert after != before
        assert rule_signature(selected) == before

    def test_new_rule_module_colds_a_warm_cache(self, tmp_path):
        from repro.lint import LintCache, all_rules, rule_signature

        source_path = _write(tmp_path, "m.py", "x = 1\n")
        cache_path = str(tmp_path / "cache.json")
        selected = [rule.rule_id for rule in all_rules()]

        cold = lint_paths(
            [source_path], cache=LintCache(cache_path, rule_signature(selected))
        )
        assert cold.files_reparsed == 1
        warm = lint_paths(
            [source_path], cache=LintCache(cache_path, rule_signature(selected))
        )
        assert warm.cache_hits == 1 and warm.files_reparsed == 0

        self._register_fixture_rule()
        try:
            stale = lint_paths(
                [source_path],
                cache=LintCache(cache_path, rule_signature(selected)),
            )
            # the selected id set did not change, but a registered rule
            # module did: every entry must be treated as stale
            assert stale.cache_hits == 0 and stale.files_reparsed == 1
        finally:
            self._pop_fixture_rule()
