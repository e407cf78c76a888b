"""PURE001 / SHARE001 — concurrency-safety rules.

These whole-program rules gate the invariants the crawl engine's
concurrent sessions rely on: the serve path must be read-only over
world state, and cross-session shared state must be explicitly owned.
They run over the :class:`~repro.lint.conc.effects.EffectAnalysis`
built from the flow IR; DESIGN.md §7 documents the semantics and
approximations.

Entry points are discovered from the index rather than hard-coded
objects, so fixture projects exercising the rules only need to define
``repro.osn.frontend.HtmlFrontend`` / ``repro.crawler.client.CrawlClient``
shaped modules.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..findings import Finding
from ..flow.index import ProjectIndex
from ..rules.base import WholeProgramRule, register
from .effects import EffectAnalysis, MutationSite, analysis_for

#: Modules holding simulated-world state: the serve path must never
#: mutate these (PURE001), and writes here are the write-path's job so
#: SHARE001 leaves them to PURE001's jurisdiction.
WORLD_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.osn.network",
    "repro.osn.messaging",
    "repro.osn.profile",
    "repro.osn.user",
    "repro.osn.privacy",
    "repro.osn.policy",
    "repro.worldgen",
    "repro.colgen",
)

#: Observability is allowed to aggregate from anywhere.
EXEMPT_MODULE_PREFIXES: Tuple[str, ...] = ("repro.telemetry",)

#: The request-serving surface: (module, class, read methods, write methods).
FRONTEND_MODULE = "repro.osn.frontend"
FRONTEND_CLASS = "HtmlFrontend"
READ_METHODS: Tuple[str, ...] = ("get",)
WRITE_METHODS: Tuple[str, ...] = ("post",)

#: The crawl-session surface: every public CrawlClient method is a
#: session entry point.
CRAWLER_MODULE = "repro.crawler.client"
CRAWLER_CLASS = "CrawlClient"


def _in_prefixes(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _is_world_module(module: str) -> bool:
    return _in_prefixes(module, WORLD_MODULE_PREFIXES)


def _is_exempt_module(module: str) -> bool:
    return _in_prefixes(module, EXEMPT_MODULE_PREFIXES)


def _class_entries(
    index: ProjectIndex, module: str, class_name: str, methods: Tuple[str, ...]
) -> List[Tuple[str, str]]:
    """(label, fqn) pairs for the named methods that actually exist."""
    summary = index.modules.get(module)
    if summary is None:
        return []
    defined = summary.classes.get(class_name, ())
    return [
        (f"{class_name}.{method}", f"{module}:{class_name}.{method}")
        for method in methods
        if method in defined
    ]


def _read_entries(index: ProjectIndex) -> List[Tuple[str, str]]:
    return _class_entries(index, FRONTEND_MODULE, FRONTEND_CLASS, READ_METHODS)


def _write_entries(index: ProjectIndex) -> List[Tuple[str, str]]:
    return _class_entries(index, FRONTEND_MODULE, FRONTEND_CLASS, WRITE_METHODS)


def _crawl_entries(index: ProjectIndex) -> List[Tuple[str, str]]:
    summary = index.modules.get(CRAWLER_MODULE)
    if summary is None:
        return []
    public = tuple(
        method
        for method in summary.classes.get(CRAWLER_CLASS, ())
        if not method.startswith("_")
    )
    return _class_entries(index, CRAWLER_MODULE, CRAWLER_CLASS, public)


def _session_entries(index: ProjectIndex) -> List[Tuple[str, str]]:
    return _read_entries(index) + _write_entries(index) + _crawl_entries(index)


def _entry_classes(index: ProjectIndex) -> List[Tuple[str, str]]:
    seeds: List[Tuple[str, str]] = []
    for module, class_name in (
        (FRONTEND_MODULE, FRONTEND_CLASS),
        (CRAWLER_MODULE, CRAWLER_CLASS),
    ):
        summary = index.modules.get(module)
        if summary is not None and class_name in summary.classes:
            seeds.append((module, class_name))
    return seeds


def _site_path(index: ProjectIndex, site_module: str) -> str:
    summary = index.modules.get(site_module)
    return summary.path if summary is not None else site_module


def _render_chain(chain: List[str]) -> str:
    return " -> ".join(fqn.split(":", 1)[1] or fqn for fqn in chain)


# ----------------------------------------------------------------------
# PURE001 — the serve path is read-only over world state
# ----------------------------------------------------------------------


@register
class ServePathPurityRule(WholeProgramRule):
    """The request-serving path must not mutate world state.

    Rationale: the crawl engine serves many concurrent sessions
    off one shared world.  That is only safe because serving is
    read-only — any mutation reachable from ``HtmlFrontend.get``
    (lazy index rebuilds, caches, counters on world objects) is a data
    race the moment two sessions interleave.

    Fix: hoist the mutation behind an explicit setup seam (do the work
    eagerly at registration/build time, or move it onto the write
    path), so serving only ever reads.

    Suppression: none inline — PURE001 is a hard invariant.  A finding
    you cannot fix immediately belongs in ``lint-baseline.json``.
    """

    rule_id = "PURE001"
    summary = "no world mutation reachable from the serve path"
    category = "concurrency"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        analysis = analysis_for(index)
        for label, entry in _read_entries(index):
            parents = analysis.reachable_from([entry])
            for fqn in sorted(parents):
                for site in analysis.effects[fqn]:
                    if not _is_world_module(site.module):
                        continue
                    chain = _render_chain(analysis.chain(parents, fqn))
                    yield Finding(
                        path=_site_path(index, site.module),
                        line=site.line,
                        col=site.col,
                        rule=self.rule_id,
                        message=(
                            f"world state '{site.target}' is mutated on the "
                            f"serve path: {label} reaches it via {chain}; "
                            "hoist the mutation behind a setup seam so "
                            "serving stays read-only"
                        ),
                    )


# ----------------------------------------------------------------------
# SHARE001 — shared mutable state must declare an owner
# ----------------------------------------------------------------------


@register
class SharedStateRule(WholeProgramRule):
    """Cross-session shared mutable state needs an explicit owner.

    Rationale: state written by code reachable from more than one
    crawl-session entry point (frontend ``get``/``post``, any public
    ``CrawlClient`` method) is shared between concurrent sessions.
    Unannotated shared writes are exactly where per-account state leaks
    into cross-account state — e.g. one rate-limit window throttling
    every account.

    Fix: key the state per account (the ``self._limiter_for(a)``
    accessor pattern keeps per-account objects invisible to this rule),
    or — when sharing is intended — annotate the write with its
    coordinating owner.

    Suppression: ``# repro-lint: shared(Owner) -- <why writers are
    coordinated>`` on the writing statement.  The owner names the class
    responsible for coordinating concurrent writers.
    """

    rule_id = "SHARE001"
    summary = "shared mutable state written without a shared(owner) annotation"
    category = "concurrency"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        analysis = analysis_for(index)
        entries = _session_entries(index)
        if len(entries) < 2:
            return
        reached_by: Dict[str, List[str]] = {}
        chains: Dict[str, List[str]] = {}
        for label, entry in entries:
            parents = analysis.reachable_from([entry])
            for fqn in parents:
                reached_by.setdefault(fqn, []).append(label)
                if fqn not in chains:
                    chains[fqn] = analysis.chain(parents, fqn)
        shared = analysis.shared_classes(_entry_classes(index))
        for fqn in sorted(reached_by):
            labels = reached_by[fqn]
            if len(labels) < 2:
                continue
            for site in analysis.effects[fqn]:
                if not self._is_shared_site(analysis, fqn, site, shared):
                    continue
                summary = index.modules.get(site.module)
                if summary is not None and site.line in summary.shared_lines:
                    continue  # annotated: ownership is declared
                preview = ", ".join(labels[:3])
                if len(labels) > 3:
                    preview += ", ..."
                chain = _render_chain(chains[fqn])
                yield Finding(
                    path=_site_path(index, site.module),
                    line=site.line,
                    col=site.col,
                    rule=self.rule_id,
                    message=(
                        f"'{site.target}' is mutated by code reachable from "
                        f"{len(labels)} session entry points ({preview}) "
                        f"via {chain}; key it per account or annotate "
                        "\"# repro-lint: shared(Owner) -- why\""
                    ),
                )

    @staticmethod
    def _is_shared_site(
        analysis: EffectAnalysis,
        fqn: str,
        site: MutationSite,
        shared: "frozenset[Tuple[str, str]]",
    ) -> bool:
        if _is_world_module(site.module) or _is_exempt_module(site.module):
            return False  # world writes are PURE001's jurisdiction
        if site.kind in ("global", "classattr"):
            return True
        if site.kind == "self":
            own = analysis.own_class_of(fqn)
            return own is not None and own in shared
        return False  # param sites: callers own the object
