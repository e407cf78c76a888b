"""The scale-safety pass: SCALE001/002/003, DET002, and --scale-report.

Fixture projects live under ``tmp_path/repro/...`` (like the conc
tests) so module names derive for real and entry-point discovery finds
the fixture's ``ColumnarNetwork``/``CrawlScheduler`` exactly as it
finds the shipped ones.  The SCALE fixtures violate through
interprocedural chains where it matters — a finding in a *callee*
module witnessed from a serve entry — and the clean twins pin the
sanctioned seams (``__init__``, setup modules, budgets, SeedSequence
lineage) that must stay silent.
"""

from __future__ import annotations

import textwrap

from repro.lint import all_rules, lint_paths, lint_source
from repro.lint.flow.summary import ModuleSummary, extract_summary
from repro.lint.scale import build_scale_report, render_text as render_report

import ast


def _rules(*ids):
    return [rule for rule in all_rules() if rule.rule_id in ids]


def _project(tmp_path, files):
    for relative, content in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return str(tmp_path / "repro")


def _scale(tmp_path, files, *ids):
    ids = ids or ("SCALE001", "SCALE002", "SCALE003")
    return lint_paths([_project(tmp_path, files)], rules=_rules(*ids))


_PKG = {
    "repro/__init__.py": "",
    "repro/colgen/__init__.py": "",
    "repro/crawler/__init__.py": "",
}


# ----------------------------------------------------------------------
# SCALE001: per-person materialisation on city-tier paths
# ----------------------------------------------------------------------

#: The violation hides one call deep: the serve entry never touches the
#: population itself, the helper it calls materialises it.
MATERIALIZE_TWO_HOP = {
    **_PKG,
    "repro/colgen/serve.py": """
        from repro.colgen.pages import all_rows


        class ColumnarNetwork:
            def __init__(self, world):
                self.world = world

            def friend_page(self, uid):
                return all_rows(self.world)
        """,
    "repro/colgen/pages.py": """
        def all_rows(world):
            return list(world.accounts)
        """,
}

#: Same sweep, but in a setup module (the encoder): sweeping the
#: population once, before serving, is the encoder's job.
MATERIALIZE_IN_SETUP = {
    **_PKG,
    "repro/colgen/serve.py": """
        from repro.colgen.encode import encode_world


        class ColumnarNetwork:
            def __init__(self, world):
                self.world = world

            def rebuild(self):
                return encode_world(self.world)
        """,
    "repro/colgen/encode.py": """
        def encode_world(world):
            return list(world.people)
        """,
}

#: Same sweep in __init__: the sanctioned eager-index seam.
MATERIALIZE_IN_INIT = {
    **_PKG,
    "repro/colgen/serve.py": """
        class ColumnarNetwork:
            def __init__(self, world):
                self.world = world
                self.by_uid = {}
                for row in range(world.n_accounts):
                    self.by_uid[row] = row

            def get_account(self, uid):
                return self.by_uid[uid]
        """,
}

#: Per-account container build inside a population loop, on the crawl
#: scheduler's path.
PER_ACCOUNT_BUILD = {
    **_PKG,
    "repro/crawler/engine.py": """
        class CrawlScheduler:
            def __init__(self, network):
                self.network = network

            def run(self):
                index = {}
                for account in self.network.accounts:
                    index[account.uid] = account
                return index
        """,
}

#: The directive sits on a *different physical line* of the multi-line
#: statement than the finding anchors to — span expansion must cover it.
MATERIALIZE_SUPPRESSED_MULTILINE = {
    **_PKG,
    "repro/colgen/serve.py": """
        class ColumnarNetwork:
            def __init__(self, world):
                self.world = world

            def friend_page(self, uid):
                rows = list(
                    self.world.accounts  # repro-lint: allow(SCALE001) -- school-tier debug page, never mounted at city tier
                )
                return rows
        """,
}


#: The stores share the base's read logic and re-bind its traced reads
#: as class attributes; a per-person decode planted in a columnar
#: storage hook must still be reached through the base's friend_page.
MATERIALIZE_IN_STORAGE_HOOK = {
    **_PKG,
    "repro/osn/__init__.py": "",
    "repro/osn/network.py": """
        class BaseNetwork:
            def friend_page(self, viewer_id, target_id):
                return self._display_names(self._friend_ids(target_id))


        class SocialNetwork(BaseNetwork):
            friend_page = BaseNetwork.friend_page

            def _friend_ids(self, uid):
                return []

            def _display_names(self, uids):
                return []
        """,
    "repro/colgen/views.py": """
        def person_view(world, pid):
            return world.people[pid]
        """,
    "repro/colgen/serve.py": """
        from repro.colgen.views import person_view
        from repro.osn.network import BaseNetwork


        class ColumnarNetwork(BaseNetwork):
            friend_page = BaseNetwork.friend_page

            def __init__(self, world):
                self.world = world

            def _friend_ids(self, uid):
                return self.world.friends(uid)

            def _display_names(self, uids):
                return [person_view(self.world, uid).name for uid in uids]
        """,
}


class TestScale001:
    def test_two_hop_materialisation_fires_with_witness(self, tmp_path):
        report = _scale(tmp_path, MATERIALIZE_TWO_HOP)
        assert [f.rule for f in report.findings] == ["SCALE001"]
        finding = report.findings[0]
        assert finding.path.endswith("pages.py")
        assert "ColumnarNetwork.friend_page -> all_rows" in finding.message
        assert "list(world.accounts)" in finding.message

    def test_setup_modules_are_exempt(self, tmp_path):
        report = _scale(tmp_path, MATERIALIZE_IN_SETUP)
        assert report.findings == []

    def test_init_is_the_sanctioned_eager_index_seam(self, tmp_path):
        report = _scale(tmp_path, MATERIALIZE_IN_INIT)
        assert report.findings == []

    def test_per_account_build_in_population_loop(self, tmp_path):
        report = _scale(tmp_path, PER_ACCOUNT_BUILD)
        assert [f.rule for f in report.findings] == ["SCALE001"]
        finding = report.findings[0]
        assert "index" in finding.message
        assert "self.network.accounts" in finding.message

    def test_decode_in_a_columnar_storage_hook_fires_via_the_base(self, tmp_path):
        report = _scale(tmp_path, MATERIALIZE_IN_STORAGE_HOOK)
        assert [f.rule for f in report.findings] == ["SCALE001"]
        finding = report.findings[0]
        assert finding.path.endswith("serve.py")
        assert "per-person decode 'person_view'" in finding.message
        assert (
            "BaseNetwork.friend_page -> ColumnarNetwork._display_names"
            in finding.message
        )

    def test_multiline_statement_suppression_covers_the_call(self, tmp_path):
        report = _scale(tmp_path, MATERIALIZE_SUPPRESSED_MULTILINE)
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# SCALE002: population-quadratic nested loops
# ----------------------------------------------------------------------

QUADRATIC = {
    **_PKG,
    "repro/colgen/serve.py": """
        class ColumnarNetwork:
            def __init__(self, world):
                self.world = world

            def school_search(self, name):
                hits = 0
                for row in range(self.world.n_accounts):
                    for other in self.world.accounts:
                        hits += 1
                return hits
        """,
}

#: Inner loop over a *bounded* iterable (one page of results): linear.
LINEAR_INNER = {
    **_PKG,
    "repro/colgen/serve.py": """
        class ColumnarNetwork:
            def __init__(self, world):
                self.world = world

            def school_search(self, name):
                hits = 0
                for row in range(self.world.n_accounts):
                    for field in ("name", "city"):
                        hits += 1
                return hits
        """,
}


class TestScale002:
    def test_quadratic_names_both_iterables(self, tmp_path):
        report = _scale(tmp_path, QUADRATIC)
        rules = [f.rule for f in report.findings]
        assert "SCALE002" in rules
        finding = next(f for f in report.findings if f.rule == "SCALE002")
        assert "self.world.accounts" in finding.message
        assert "range(self.world.n_accounts)" in finding.message
        assert "ColumnarNetwork.school_search" in finding.message

    def test_bounded_inner_loop_is_linear(self, tmp_path):
        report = _scale(tmp_path, LINEAR_INNER)
        assert [f.rule for f in report.findings] == []


# ----------------------------------------------------------------------
# SCALE003: unbounded accumulation in streaming handlers
# ----------------------------------------------------------------------

UNBOUNDED_HANDLER = {
    **_PKG,
    "repro/crawler/engine.py": """
        class CrawlScheduler:
            def __init__(self):
                self.seen = []

            def fetch_page(self, uid):
                self.seen.append(uid)
                return self.seen
        """,
}

BUDGETED_HANDLER = {
    **_PKG,
    "repro/crawler/engine.py": """
        class CrawlScheduler:
            def __init__(self):
                self.seen = []

            def fetch_page(self, uid, budget):
                if budget.remaining <= 0:
                    return self.seen
                self.seen.append(uid)
                return self.seen
        """,
}

#: Accumulating into a *local* is not unbounded state: it dies with the
#: call.
LOCAL_ACCUMULATOR = {
    **_PKG,
    "repro/crawler/engine.py": """
        class CrawlScheduler:
            def fetch_page(self, uid):
                rows = []
                rows.append(uid)
                return rows
        """,
}

#: Finding anchors at the ``def`` line; the directive on the decorator
#: line must cover it (decorated-def span expansion).
SUPPRESSED_DECORATED_HANDLER = {
    **_PKG,
    "repro/crawler/engine.py": """
        def traced(fn):
            return fn


        class CrawlScheduler:
            def __init__(self):
                self.seen = []

            @traced  # repro-lint: allow(SCALE003) -- drained into the store at the end of every turn
            def fetch_page(self, uid):
                self.seen.append(uid)
                return self.seen
        """,
}


class TestScale003:
    def test_unbounded_streaming_handler_fires(self, tmp_path):
        report = _scale(tmp_path, UNBOUNDED_HANDLER)
        assert [f.rule for f in report.findings] == ["SCALE003"]
        finding = report.findings[0]
        assert "self.seen" in finding.message
        assert "CrawlScheduler.fetch_page" in finding.message

    def test_budget_in_scope_is_clean(self, tmp_path):
        report = _scale(tmp_path, BUDGETED_HANDLER)
        assert report.findings == []

    def test_local_accumulator_is_clean(self, tmp_path):
        report = _scale(tmp_path, LOCAL_ACCUMULATOR)
        assert report.findings == []

    def test_decorator_line_suppression_covers_the_def(self, tmp_path):
        report = _scale(tmp_path, SUPPRESSED_DECORATED_HANDLER)
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# DET002: RNG stream provenance
# ----------------------------------------------------------------------

def _det(source, module="repro.colgen.workers"):
    return lint_source(
        textwrap.dedent(source), module, rules=_rules("DET002")
    )


class TestDet002:
    def test_sharded_rng_without_lineage_fires(self):
        findings = _det(
            """
            import numpy as np


            def draw(seed, shard):
                rng = np.random.default_rng(seed)
                return rng.normal()
            """
        )
        assert [f.rule for f in findings] == ["DET002"]
        assert "SeedSequence" in findings[0].message

    def test_constant_seedsequence_across_shards_fires(self):
        findings = _det(
            """
            import numpy as np


            def draw(seed, shard):
                rng = np.random.default_rng(np.random.SeedSequence([seed]))
                return rng.normal()
            """
        )
        assert [f.rule for f in findings] == ["DET002"]
        assert "constant across shards" in findings[0].message

    def test_full_lineage_is_clean(self):
        findings = _det(
            """
            import numpy as np


            def shard_rng(seed, stream, shard):
                return np.random.default_rng(
                    np.random.SeedSequence([seed, stream, shard])
                )
            """
        )
        assert findings == []

    def test_lineage_through_a_local_is_clean(self):
        findings = _det(
            """
            import numpy as np


            def shard_rng(seed, shard):
                spawn_key = np.random.SeedSequence([seed, shard])
                return np.random.default_rng(spawn_key)
            """
        )
        assert findings == []

    def test_unsharded_child_seed_is_det001_territory(self):
        # The friendship sampler's idiom: one generator, no shards —
        # DET002 must stay silent (DET001 already polices seeding).
        findings = _det(
            """
            import numpy as np


            def make_sampler(rng):
                sampler_seed = rng.getrandbits(64)
                return np.random.default_rng(sampler_seed)
            """
        )
        assert findings == []

    def test_generator_hoisted_outside_shard_loop_fires(self):
        findings = _det(
            """
            import numpy as np


            def generate(seed, n_shards):
                gen = np.random.default_rng(seed)
                out = []
                for shard in range(n_shards):
                    out.append(gen.normal())
                return out
            """
        )
        rules = [f.rule for f in findings]
        assert rules.count("DET002") == len(rules) >= 1
        assert any("shared across workers" in f.message for f in findings)

    def test_per_shard_generator_inside_loop_is_clean(self):
        findings = _det(
            """
            import numpy as np


            def generate(seed, n_shards):
                out = []
                for shard in range(n_shards):
                    gen = np.random.default_rng(
                        np.random.SeedSequence([seed, shard])
                    )
                    out.append(gen.normal())
                return out
            """
        )
        assert findings == []

    def test_shard_loop_inside_unsharded_function(self):
        # Sharded context can come from the loop variable alone.
        findings = _det(
            """
            import numpy as np


            def generate(seed, blocks):
                for block in blocks:
                    rng = np.random.default_rng(seed)
            """
        )
        assert [f.rule for f in findings] == ["DET002"]

    def test_direct_import_of_default_rng_is_seen(self):
        findings = _det(
            """
            from numpy.random import SeedSequence, default_rng


            def draw(seed, shard):
                return default_rng(seed)
            """
        )
        assert [f.rule for f in findings] == ["DET002"]


# ----------------------------------------------------------------------
# --scale-report: the columnar-port worklist
# ----------------------------------------------------------------------

REPORT_PROJECT = {
    **_PKG,
    "repro/core/__init__.py": "",
    "repro/core/api.py": """
        from repro.core.scoring import rank


        def run_attack(world, seed):
            return rank(world)
        """,
    "repro/core/scoring.py": """
        def rank(world):
            return world.people


        def orphan_reader(world):
            return world.people


        def _hidden(world):
            return world.people


        def no_world(client):
            return client
        """,
    "repro/colgen/world.py": """
        class ColumnarWorld:
            pass
        """,
    "repro/colgen/serve.py": """
        from repro.colgen.world import ColumnarWorld


        class ColumnarNetwork:
            def __init__(self, world: ColumnarWorld) -> None:
                self.world = world

            def get_account(self, uid):
                return self.world.accounts
        """,
}


class TestScaleReport:
    def _report(self, tmp_path):
        root = _project(tmp_path, REPORT_PROJECT)
        report = lint_paths([root], rules=_rules("SCALE001"), keep_index=True)
        assert report.index is not None
        return build_scale_report(report.index)

    def test_covers_every_world_reading_attack_function(self, tmp_path):
        worklist = self._report(tmp_path)
        fqns = [item.fqn for item in worklist.items]
        # reached through a caller AND self-rooted; orphan only self-rooted
        assert "repro.core.api:run_attack" in fqns
        assert "repro.core.scoring:rank" in fqns
        assert "repro.core.scoring:orphan_reader" in fqns

    def test_excludes_private_worldless_and_columnar_holders(self, tmp_path):
        worklist = self._report(tmp_path)
        fqns = [item.fqn for item in worklist.items]
        assert "repro.core.scoring:_hidden" not in fqns
        assert "repro.core.scoring:no_world" not in fqns
        # ColumnarNetwork.get_account reads self.world, but that world is
        # annotated ColumnarWorld — already ported, not worklist material.
        assert all("ColumnarNetwork" not in fqn for fqn in fqns)

    def test_every_item_carries_a_call_path_witness(self, tmp_path):
        worklist = self._report(tmp_path)
        assert worklist.items
        entry_fqn_tails = set()
        for item in worklist.items:
            assert item.witness, item.fqn
            assert item.witness[-1] == item.fqn
            entry_fqn_tails.add(item.witness[0])
        # rank is reached from run_attack: the witness must show the hop.
        rank = next(
            i for i in worklist.items if i.fqn == "repro.core.scoring:rank"
        )
        assert len(rank.witness) >= 2

    def test_ranking_prefers_widely_reached_functions(self, tmp_path):
        worklist = self._report(tmp_path)
        reach = [len(item.reached_from) for item in worklist.items]
        assert reach == sorted(reach, reverse=True)

    def test_text_rendering_is_navigable(self, tmp_path):
        worklist = self._report(tmp_path)
        text = render_report(worklist)
        assert "columnar-port worklist" in text
        assert "repro.core.scoring:rank" in text
        assert "via " in text

    def test_json_shape_round_trips(self, tmp_path):
        worklist = self._report(tmp_path)
        document = worklist.to_json()
        assert document["entries"]
        for row in document["items"]:
            assert {"function", "path", "line", "binds_world",
                    "world_sites", "reached_from", "witness"} <= set(row)


# ----------------------------------------------------------------------
# Summary IR: loop facts and allow-lines round-trip
# ----------------------------------------------------------------------

class TestSummaryLoopFacts:
    SOURCE = textwrap.dedent(
        """
        def sweep(world):
            total = 0
            for row in range(world.n_accounts):
                for friend in world.accounts:
                    total += 1
            while total:
                total -= 1
            return total
        """
    )

    def _summary(self) -> ModuleSummary:
        tree = ast.parse(self.SOURCE)
        return extract_summary(
            tree,
            "repro.fixture",
            "fixture.py",
            allow_lines={4: ("SCALE001", "SCALE002")},
        )

    def test_loop_headers_and_depths(self):
        fn = self._summary().functions["sweep"]
        headers = [(op.line, op.depth) for op in fn.ops if op.loop]
        # outer for at depth 0, inner for at depth 1, while at depth 0
        assert headers == [(4, 0), (5, 1), (7, 0)]
        body_depths = {
            op.line: op.depth for op in fn.ops if not op.loop
        }
        assert body_depths[6] == 2  # total += 1 under both loops
        assert body_depths[8] == 1  # total -= 1 under the while

    def test_round_trip_preserves_loop_and_allow_facts(self):
        summary = self._summary()
        restored = ModuleSummary.from_json(summary.to_json())
        assert restored.allow_lines == {4: ("SCALE001", "SCALE002")}
        original = [(o.loop, o.depth) for o in summary.functions["sweep"].ops]
        round_tripped = [
            (o.loop, o.depth) for o in restored.functions["sweep"].ops
        ]
        assert round_tripped == original
