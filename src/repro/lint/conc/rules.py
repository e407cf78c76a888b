"""PURE001 / SHARE001 / ASYNC001 / ASYNC002 — concurrency-safety rules.

These whole-program rules gate the invariants the crawl engine's
concurrent sessions rely on: the serve path must be read-only over
world state, cross-session shared state must be explicitly owned, and
async code must neither block the loop nor mutate shared structures
across ``await`` points (the engine's sessions are generators, so
today no ``async def`` is left for the last two to check).  They run
over the :class:`~repro.lint.conc.effects.EffectAnalysis` built from
the flow IR; DESIGN.md §7 documents the semantics and approximations.

Entry points are discovered from the index rather than hard-coded
objects, so fixture projects exercising the rules only need to define
``repro.osn.frontend.HtmlFrontend`` / ``repro.crawler.client.CrawlClient``
shaped modules.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from ..flow.index import ProjectIndex
from ..flow.summary import Op
from ..rules.base import WholeProgramRule, register
from .effects import MUTATOR_METHODS, EffectAnalysis, MutationSite, analysis_for

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
                for site in analysis.effects[fqn].mutations:
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
            for site in analysis.effects[fqn].mutations:
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


# ----------------------------------------------------------------------
# ASYNC001 — no blocking calls on async paths
# ----------------------------------------------------------------------


@register
class AsyncBlockingRule(WholeProgramRule):
    """No blocking calls inside or reachable from ``async def``.

    Rationale: one ``time.sleep`` / synchronous I/O call inside the
    event loop stalls *every* crawl session, not just the offender —
    the scheduler's politeness math silently degrades to serial.

    Fix: await the SimClock-mediated equivalent (``clock.sleep`` is
    allowlisted as cooperative), or move the blocking work behind an
    executor boundary.  Calls into synchronous helpers are followed
    interprocedurally, so the fix may belong in a callee.

    Suppression: ``# repro-lint: allow(ASYNC001) -- <why>`` on the
    blocking call line (rarely right; prefer fixing the callee).
    """

    rule_id = "ASYNC001"
    summary = "blocking call inside or reachable from async code"
    category = "concurrency"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        analysis = analysis_for(index)
        for root in sorted(analysis.functions):
            if not analysis.functions[root].is_async:
                continue
            parents = self._sync_reachable(analysis, root)
            seen: Set[Tuple[str, int, int]] = set()
            for fqn in sorted(parents):
                for site in analysis.effects[fqn].blocking:
                    key = (site.module, site.line, site.col)
                    if key in seen:
                        continue
                    seen.add(key)
                    chain = _render_chain(analysis.chain(parents, fqn))
                    yield Finding(
                        path=_site_path(index, site.module),
                        line=site.line,
                        col=site.col,
                        rule=self.rule_id,
                        message=(
                            f"blocking call '{site.callee}' reachable from "
                            f"async '{root.split(':', 1)[1]}' via {chain}; "
                            "use the SimClock / an executor instead"
                        ),
                    )

    @staticmethod
    def _sync_reachable(
        analysis: EffectAnalysis, root: str
    ) -> Dict[str, Optional[str]]:
        """BFS that stops at async callees (they are checked on their
        own; awaiting them is the cooperative thing to do)."""
        parents: Dict[str, Optional[str]] = {root: None}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for callee in analysis.edges.get(current, ()):
                if callee in parents or callee not in analysis.functions:
                    continue
                if analysis.functions[callee].is_async:
                    continue
                parents[callee] = current
                frontier.append(callee)
        return parents


# ----------------------------------------------------------------------
# ASYNC002 — no awaiting across held locks / shared mutation across awaits
# ----------------------------------------------------------------------


@register
class AwaitInterleavingRule(WholeProgramRule):
    """No awaiting while holding a lock, no shared mutation across awaits.

    Rationale: an ``await`` is a scheduling point — every other task
    may run before control returns.  Awaiting with a lock held invites
    deadlock (another task needs the lock to progress); touching
    ``self``/module state before an await and mutating it after is the
    classic check-then-act interleaving race.

    Fix: release the lock before awaiting (narrow the ``with`` block),
    or re-read shared state after each await instead of carrying
    pre-await observations across the boundary.

    Suppression: ``# repro-lint: allow(ASYNC002) -- <why>`` on the
    mutation/await line when the interleaving is provably benign.
    """

    rule_id = "ASYNC002"
    summary = "await while holding a lock / shared mutation across an await"
    category = "concurrency"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        analysis = analysis_for(index)
        for fqn in sorted(analysis.functions):
            fn = analysis.functions[fqn]
            if not fn.is_async:
                continue
            module, _, qualname = fqn.partition(":")
            summary = index.modules.get(module)
            if summary is None:
                continue
            path = summary.path
            globals_known = frozenset(fn.globals_declared)
            pending: Set[str] = set()
            crossed: Set[str] = set()
            flagged: Set[str] = set()
            for op in fn.ops:
                if op.awaited and op.locks:
                    locks = ", ".join(sorted(set(op.locks)))
                    yield Finding(
                        path=path,
                        line=op.line,
                        col=op.col,
                        rule=self.rule_id,
                        message=(
                            f"'{qualname}' awaits while holding lock(s) "
                            f"{locks}; release before awaiting"
                        ),
                    )
                reads, writes = _op_tokens(op, globals_known)
                if op.awaited:
                    crossed |= pending
                for token in sorted(writes):
                    if token in crossed and token not in flagged:
                        flagged.add(token)
                        yield Finding(
                            path=path,
                            line=op.line,
                            col=op.col,
                            rule=self.rule_id,
                            message=(
                                f"'{token}' is touched before an await in "
                                f"'{qualname}' and mutated after it; other "
                                "tasks interleave at the await — re-read "
                                "or restructure"
                            ),
                        )
                pending |= reads | writes


def _op_tokens(
    op: Op, globals_known: "frozenset[str]"
) -> Tuple[Set[str], Set[str]]:
    """(read tokens, write tokens) of shared state touched by one op.

    Tokens are ``self.<attr>`` (first attribute only) and declared
    global names; locals are task-private and ignored.
    """
    reads: Set[str] = set()
    writes: Set[str] = set()

    def token_of(path: str) -> Optional[str]:
        parts = path.split(".")
        if parts[0] == "self" and len(parts) >= 2:
            return f"self.{parts[1]}"
        if parts[0] in globals_known:
            return parts[0]
        return None

    for path, _mode in op.writes:
        token = token_of(path)
        if token is not None:
            writes.add(token)
    for read in op.expr.reads:
        if read.recv is not None:
            token = token_of(f"{read.recv}.{read.attr}")
            if token is not None:
                reads.add(token)
    for name in op.expr.names:
        if name in globals_known:
            reads.add(name)
    for call in op.expr.calls:
        if call.callee is None:
            continue
        parts = call.callee.split(".")
        if len(parts) >= 2 and parts[-1] in MUTATOR_METHODS:
            token = token_of(".".join(parts[:-1]))
            if token is not None:
                writes.add(token)
    return reads, writes
