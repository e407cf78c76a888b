"""The concurrency-safety rules: PURE001 and SHARE001.

Fixture projects live under ``tmp_path/repro/...`` so
:func:`~repro.lint.module_name_for` derives real ``repro.*`` dotted
names and entry-point discovery finds the fixture's
``HtmlFrontend``/``CrawlClient`` exactly as it finds the shipped ones.
Every firing fixture violates through a *two-hop* interprocedural
chain — no single function both is an entry point and mutates — so the
tests pin the effect propagation, not just the per-function scan.
"""

from __future__ import annotations

import textwrap

from repro.lint import LintCache, all_rules, lint_paths, rule_signature


def _rules(*ids):
    return [rule for rule in all_rules() if rule.rule_id in ids]


def _project(tmp_path, files):
    for relative, content in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return str(tmp_path / "repro")


# ----------------------------------------------------------------------
# PURE001: the serve path must not mutate world state
# ----------------------------------------------------------------------

#: ``get`` never writes anything itself; the mutation hides two calls
#: deep (get -> Network.search -> Network._reindex), crossing a class
#: boundary through an annotated constructor attribute.
LAZY_REBUILD = {
    "repro/__init__.py": "",
    "repro/osn/__init__.py": "",
    "repro/osn/network.py": """
        class Network:
            def __init__(self) -> None:
                self.members = {}
                self._dirty = True

            def search(self, path):
                self._reindex()
                return self.members.get(path)

            def _reindex(self):
                self.members["seen"] = 1
                self._dirty = False
        """,
    "repro/osn/frontend.py": """
        from repro.osn.network import Network


        class HtmlFrontend:
            def __init__(self, network: Network) -> None:
                self.network = network

            def get(self, path):
                return self.network.search(path)
        """,
}

#: The sanctioned fix: indexing happens eagerly at registration, the
#: serve path only reads.
EAGER_REBUILD = {
    "repro/__init__.py": "",
    "repro/osn/__init__.py": "",
    "repro/osn/network.py": """
        class Network:
            def __init__(self) -> None:
                self.members = {}

            def register(self, path):
                self.members[path] = 1

            def search(self, path):
                return self.members.get(path)
        """,
    "repro/osn/frontend.py": """
        from repro.osn.network import Network


        class HtmlFrontend:
            def __init__(self, network: Network) -> None:
                self.network = network

            def get(self, path):
                return self.network.search(path)
        """,
}


#: The mutation is reached only through a call passed as an argument
#: (``zip(ids, self._names(ids))``), the shape of the listing rows'
#: name lookup.
NESTED_ARGUMENT_MEMO = {
    "repro/__init__.py": "",
    "repro/osn/__init__.py": "",
    "repro/osn/network.py": """
        class Network:
            def __init__(self) -> None:
                self.names = {}

            def rows(self, ids):
                return list(zip(ids, self._names(ids)))

            def _names(self, ids):
                for uid in ids:
                    self.names.setdefault(uid, str(uid))
                return [self.names[uid] for uid in ids]
        """,
    "repro/osn/frontend.py": """
        from repro.osn.network import Network


        class HtmlFrontend:
            def __init__(self, network: Network) -> None:
                self.network = network

            def get(self, ids):
                return self.network.rows(ids)
        """,
}


class TestPure001:
    def test_mutation_behind_a_nested_call_argument_is_caught(self, tmp_path):
        root = _project(tmp_path, NESTED_ARGUMENT_MEMO)
        report = lint_paths([root], rules=_rules("PURE001"))
        assert {f.rule for f in report.findings} == {"PURE001"}
        finding = report.findings[0]
        assert finding.path.endswith("network.py")
        assert "_names" in finding.message

    def test_nested_call_argument_without_a_mutation_is_clean(self, tmp_path):
        files = dict(NESTED_ARGUMENT_MEMO)
        files["repro/osn/network.py"] = """
            class Network:
                def __init__(self) -> None:
                    self.names = {}

                def rows(self, ids):
                    return list(zip(ids, self._names(ids)))

                def _names(self, ids):
                    return [self.names.get(uid, str(uid)) for uid in ids]
            """
        root = _project(tmp_path, files)
        report = lint_paths([root], rules=_rules("PURE001"))
        assert report.findings == []

    def test_two_hop_lazy_rebuild_is_caught(self, tmp_path):
        root = _project(tmp_path, LAZY_REBUILD)
        report = lint_paths([root], rules=_rules("PURE001"))
        assert {f.rule for f in report.findings} == {"PURE001"}
        finding = report.findings[0]
        assert finding.path.endswith("network.py")
        assert "HtmlFrontend.get" in finding.message
        assert "_reindex" in finding.message  # the chain names the culprit

    def test_eager_indexing_is_clean(self, tmp_path):
        root = _project(tmp_path, EAGER_REBUILD)
        report = lint_paths([root], rules=_rules("PURE001"))
        assert report.findings == []

    def test_write_path_may_mutate_world(self, tmp_path):
        files = dict(LAZY_REBUILD)
        files["repro/osn/frontend.py"] = """
            from repro.osn.network import Network


            class HtmlFrontend:
                def __init__(self, network: Network) -> None:
                    self.network = network

                def get(self, path):
                    return self.network.members.get(path)

                def post(self, path):
                    return self.network.search(path)
            """
        root = _project(tmp_path, files)
        report = lint_paths([root], rules=_rules("PURE001"))
        assert report.findings == []  # only the read path is policed


# ----------------------------------------------------------------------
# SHARE001: cross-session shared mutable state needs an owner
# ----------------------------------------------------------------------

#: get and post both reach SessionStore.note, which mutates a dict on
#: an object shared through the frontend — two entry points, two hops.
SHARED_COUNTER = {
    "repro/__init__.py": "",
    "repro/session.py": """
        class SessionStore:
            def __init__(self) -> None:
                self.counts = {}

            def note(self, uid):
                self.counts[uid] = self.counts.get(uid, 0) + 1
        """,
    "repro/osn/__init__.py": "",
    "repro/osn/frontend.py": """
        from repro.session import SessionStore


        class HtmlFrontend:
            def __init__(self, store: SessionStore) -> None:
                self.store = store

            def get(self, uid):
                self.store.note(uid)
                return uid

            def post(self, uid):
                self.store.note(uid)
                return uid
        """,
}


def _with_annotation(files):
    annotated = dict(files)
    annotated["repro/session.py"] = """
        class SessionStore:
            def __init__(self) -> None:
                self.counts = {}

            def note(self, uid):
                self.counts[uid] = self.counts.get(uid, 0) + 1  # repro-lint: shared(SessionStore) -- one counter across sessions by design
        """
    return annotated


class TestShare001:
    def test_two_hop_shared_write_is_caught(self, tmp_path):
        root = _project(tmp_path, SHARED_COUNTER)
        report = lint_paths([root], rules=_rules("SHARE001"))
        assert {f.rule for f in report.findings} == {"SHARE001"}
        finding = report.findings[0]
        assert finding.path.endswith("session.py")
        assert "2 session entry points" in finding.message
        assert "shared(Owner)" in finding.message

    def test_shared_owner_annotation_silences_it(self, tmp_path):
        root = _project(tmp_path, _with_annotation(SHARED_COUNTER))
        report = lint_paths([root], rules=_rules("SHARE001"))
        assert report.findings == []

    def test_single_entry_state_is_not_shared(self, tmp_path):
        files = dict(SHARED_COUNTER)
        files["repro/osn/frontend.py"] = """
            from repro.session import SessionStore


            class HtmlFrontend:
                def __init__(self, store: SessionStore) -> None:
                    self.store = store

                def get(self, uid):
                    self.store.note(uid)
                    return uid

                def post(self, uid):
                    return uid
            """
        root = _project(tmp_path, files)
        report = lint_paths([root], rules=_rules("SHARE001"))
        assert report.findings == []

    def test_module_global_write_is_always_shared(self, tmp_path):
        files = dict(SHARED_COUNTER)
        files["repro/session.py"] = """
            TOTAL = 0


            class SessionStore:
                def note(self, uid):
                    global TOTAL
                    TOTAL = TOTAL + 1
            """
        root = _project(tmp_path, files)
        report = lint_paths([root], rules=_rules("SHARE001"))
        assert {f.rule for f in report.findings} == {"SHARE001"}
        assert "TOTAL" in report.findings[0].message

    def test_write_in_an_async_def_under_a_lock_is_still_caught(self, tmp_path):
        """Neither a ``with`` block nor an ``async def`` hides a write:
        both bodies yield ops like any other."""
        files = dict(SHARED_COUNTER)
        files["repro/session.py"] = """
            import threading


            class SessionStore:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self.counts = {}

                async def note(self, uid):
                    with self._lock:
                        self.counts[uid] = self.counts.get(uid, 0) + 1
            """
        root = _project(tmp_path, files)
        report = lint_paths([root], rules=_rules("SHARE001"))
        assert {f.rule for f in report.findings} == {"SHARE001"}
        finding = report.findings[0]
        assert finding.path.endswith("session.py")
        assert finding.line == 12
        assert "self.counts" in finding.message


# ----------------------------------------------------------------------
# Cache: the conc rules ride the warm path
# ----------------------------------------------------------------------

class TestConcCache:
    def test_warm_run_reparses_nothing_and_agrees(self, tmp_path):
        root = _project(tmp_path, SHARED_COUNTER)
        cache_path = str(tmp_path / "cache.json")
        rules = all_rules()
        signature = rule_signature([r.rule_id for r in rules])

        cold = lint_paths(
            [root], rules=rules, cache=LintCache(cache_path, signature)
        )
        warm = lint_paths(
            [root], rules=rules, cache=LintCache(cache_path, signature)
        )
        assert cold.files_reparsed == cold.files_checked > 0
        assert warm.files_reparsed == 0
        assert warm.cache_hits == warm.files_checked
        # Whole-program conc findings reproduce from cached summaries.
        assert [
            (f.rule, f.line, f.message) for f in warm.findings
        ] == [(f.rule, f.line, f.message) for f in cold.findings]
        assert any(f.rule == "SHARE001" for f in warm.findings)

    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        root = _project(tmp_path, SHARED_COUNTER)
        cache_path = str(tmp_path / "cache.json")
        rules = all_rules()
        signature = rule_signature([r.rule_id for r in rules])
        lint_paths([root], rules=rules, cache=LintCache(cache_path, signature))

        session = tmp_path / "repro" / "session.py"
        session.write_text(
            session.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        warm = lint_paths(
            [root], rules=rules, cache=LintCache(cache_path, signature)
        )
        assert warm.files_reparsed == 1
        assert warm.cache_hits == warm.files_checked - 1
