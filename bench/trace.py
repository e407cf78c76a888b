"""Outside-in layer tracing for the benchmark's traced run.

:class:`Tracer` replaces the public, synchronous functions of each layer
with wrappers that record one span per call, and puts the originals
back on :meth:`Tracer.uninstall`.  Functions are wrapped where their
callers look them up: methods on their class, module functions on the
module the caller reads them from.  Nothing inside the program changes.

A span is the tuple ``(name, layer, start, end, span_id, parent_id,
request_id, error)``.  ``parent_id`` is the span that was open when the
call began (0 for none); ``request_id`` is the id of the outermost
crawl-client or frontend span above it, so every span of one logical
fetch shares it.  A target that no longer exists is listed in
:attr:`Tracer.missing` and skipped, so a refactor shows up as lower
``trace.coverage`` rather than a broken benchmark.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, str, float, float, int, int, int, Optional[str]]
SPAN_FIELDS = ("name", "layer", "start", "end", "span_id", "parent_id", "request_id", "error")

_NETWORK_READS = (
    "relationship", "view_profile", "friend_page", "school_search",
    "graph_search", "get_school", "can_message", "is_registered_minor",
)
_CLIENT_CALLS = (
    "collect_seeds", "collect_seeds_graph_search", "fetch_profile",
    "fetch_friend_list", "send_message", "send_friend_request", "fetch_school",
)
_PACER_CALLS = (
    "before_request", "on_throttle", "on_success", "next_polite_delay",
    "next_throttle_penalty", "note_slept",
)

#: (module, attribute path, layer) of every wrapped function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.worldgen.world", "build_world", "worldgen"),
    ("repro.worldgen.records", "build_voter_registry", "worldgen"),
    ("repro.colgen", "generate", "colgen.generate"),
    ("repro.osn.frontend", "HtmlFrontend.get", "osn.frontend.get"),
    ("repro.osn.frontend", "HtmlFrontend.post", "osn.frontend.post"),
    *(("repro.osn.network", f"SocialNetwork.{m}", "osn.network") for m in _NETWORK_READS),
    *(("repro.colgen.serve", f"ColumnarNetwork.{m}", "colgen.serve") for m in _NETWORK_READS),
    ("repro.osn.rendercache", "RenderCache.get", "osn.rendercache"),
    ("repro.osn.rendercache", "RenderCache.put", "osn.rendercache"),
    ("repro.osn.ratelimit", "RateLimiter.check", "osn.ratelimit"),
    *(("repro.crawler.politeness", f"Pacer.{m}", "crawler.politeness") for m in _PACER_CALLS),
    *(("repro.crawler.client", f"CrawlClient.{m}", "crawler.client") for m in _CLIENT_CALLS),
    ("repro.crawler.engine", "CrawlScheduler.run", "crawler.engine"),
    *(
        ("repro.osn.pages", f"render_{page}_page", "osn.pages.render")
        for page in ("profile", "friends", "search", "school", "action")
    ),
    *(
        ("repro.crawler.client", f"parse_{page}_page", "osn.pages.parse")
        for page in ("profile", "friends", "search", "school", "action")
    ),
    *(
        ("repro.crawler.engine", f"parse_{page}_page", "osn.pages.parse")
        for page in ("profile", "friends", "search")
    ),
    ("repro.core.api", "run_attack", "core.profiler"),
    ("repro.core.profiler", "extract_claims", "core.profiler"),
    ("repro.core.profiler", "score_candidates", "core.scoring"),
    ("repro.core.profiler", "apply_filters", "core.filtering"),
    ("repro.core.extension", "build_extended_profiles", "core.extension"),
    ("repro.core.linkage", "link_home_addresses", "core.linkage"),
    ("repro.core.outreach", "run_outreach_campaign", "core.outreach"),
    ("workloads", "resolve_friend_name", "core.linkage.resolve"),
)

#: Layers whose outermost span starts a new logical request.
_REQUEST_LAYERS = frozenset({"crawler.client", "osn.frontend.get", "osn.frontend.post"})


def resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of one target.

    Raises ``ImportError``/``AttributeError``/``KeyError`` when missing.
    Class attributes are read from the class's own ``__dict__`` so that
    what :meth:`Tracer.uninstall` puts back is exactly what was there.
    """
    owner: Any = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        return owner, attribute, vars(owner)[attribute]
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Wraps every target and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: (path, params) of every frontend GET, for ``repeat_share``.
        self.get_keys: List[Tuple[str, Tuple[Tuple[str, str], ...]]] = []
        #: index of the first span of the traced round; earlier spans
        #: belong to the set-up.
        self.round_start = 0
        self._installed: List[Tuple[Any, str, Any]] = []
        self._stack: List[Tuple[int, int]] = []
        self._ids = itertools.count(1)
        self._gc_start = 0.0

    def install(self) -> None:
        self.missing.clear()
        for module_name, path, layer in TARGETS:
            try:
                owner, attribute, original = resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            setattr(owner, attribute, self._wrap(original, path, layer))
            self._installed.append((owner, attribute, original))
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """Full collections become ``python.gc`` spans, so a pause is not
        charged to whichever layer it interrupted."""
        if info["generation"] != 2:
            return
        if phase == "start":
            request_id = self._stack[-1][1] if self._stack else 0
            self._stack.append((next(self._ids), request_id))
            self._gc_start = time.perf_counter()
            return
        end = time.perf_counter()
        span_id, request_id = self._stack.pop()
        parent_id = self._stack[-1][0] if self._stack else 0
        self.spans.append(
            ("gc.collect", "python.gc", self._gc_start, end, span_id, parent_id, request_id, None)
        )

    def start_round(self) -> None:
        """Spans recorded from now on belong to the traced round."""
        self.round_start = len(self.spans)

    @property
    def setup_spans(self) -> List[Span]:
        return self.spans[: self.round_start]

    @property
    def round_spans(self) -> List[Span]:
        return self.spans[self.round_start :]

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        spans, stack, next_id = self.spans, self._stack, self._ids.__next__
        clock = time.perf_counter
        starts_request = layer in _REQUEST_LAYERS
        get_keys = self.get_keys if layer == "osn.frontend.get" else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next_id()
            parent_id, request_id = stack[-1] if stack else (0, 0)
            if starts_request and not request_id:
                request_id = span_id
            if get_keys is not None:
                get_keys.append(_get_key(*args, **kwargs))
            stack.append((span_id, request_id))
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((name, layer, start, end, span_id, parent_id, request_id, error))

        return traced

    def write_jsonl(self, path: Path) -> None:
        """A header line naming the fields, then one span per line as a
        JSON array, in the order the spans ended.  Times are seconds on
        ``time.perf_counter``; ``phase`` is ``setup`` or ``round``."""
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["phase", *SPAN_FIELDS]}) + "\n")
            for index, span in enumerate(self.spans):
                phase = "setup" if index < self.round_start else "round"
                out.write(json.dumps([phase, *span], separators=(",", ":")) + "\n")


def _get_key(
    frontend: Any, account_id: int, path: str, params: Optional[Dict[str, str]] = None
) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """What a frontend GET asked for, whoever asked."""
    return path, tuple(sorted((params or {}).items()))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, -int(-q * len(ordered) // 1)))
    return ordered[rank - 1]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span id -> duration minus the time its child spans cover."""
    covered: Dict[int, float] = defaultdict(float)
    for _, _, start, end, _, parent_id, _, _ in spans:
        if parent_id:
            covered[parent_id] += end - start
    return {span[4]: span[3] - span[2] - covered[span[4]] for span in spans}


def layer_metrics(
    tracer: Tracer, round_s: float, overhead: float, detail: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of the traced round; the two generation
    layers' self time comes from the set-up.

    ``round_s`` is the traced round's wall time and ``overhead`` its
    time over the untraced round's, less one.  ``detail`` is the traced
    round's log detail: the render-cache counters, the pacers' slept
    simulated seconds and the engine's simulated seconds, which the
    program reports itself.
    """
    setup, spans = tracer.setup_spans, tracer.round_spans
    own = self_times(setup + spans)
    layer_of = {span[4]: span[1] for span in spans}
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    setup_busy: Dict[str, float] = defaultdict(float)
    for span in setup:
        setup_busy[span[1]] += own[span[4]]
    for span in spans:
        busy[span[1]] += own[span[4]]
        calls[span[1]] += 1

    def durations_us(layer: str) -> List[float]:
        return [(end - start) * 1e6 for _, lay, start, end, *_ in spans if lay == layer]

    def count(predicate: Callable[[Span], bool]) -> int:
        return sum(1 for span in spans if predicate(span))

    get_us, client_us = durations_us("osn.frontend.get"), durations_us("crawler.client")
    keys = tracer.get_keys
    hits, misses = detail.get("cache_hits", 0), detail.get("cache_misses", 0)
    covered = sum(end - start for _, _, start, end, _, parent, *_ in spans if not parent)
    client_pages = count(
        lambda s: s[1].startswith("osn.frontend.")
        and s[6] != s[4]
        and layer_of.get(s[6]) == "crawler.client"
    )
    engine_sim_s = detail.get("engine_sim_s", 0.0)
    values = {
        "worldgen.self_s": setup_busy["worldgen"],
        "colgen.generate.self_s": setup_busy["colgen.generate"],
        "colgen.serve.calls": calls["colgen.serve"],
        "colgen.serve.self_s": busy["colgen.serve"],
        "osn.network.calls": calls["osn.network"],
        "osn.network.self_s": busy["osn.network"],
        "osn.frontend.get.calls": calls["osn.frontend.get"],
        "osn.frontend.get.self_s": busy["osn.frontend.get"],
        "osn.frontend.get.p50_us": percentile(get_us, 0.5),
        "osn.frontend.get.p999_us": percentile(get_us, 0.999),
        "osn.frontend.get.repeat_share": 1 - len(set(keys)) / len(keys) if keys else 0.0,
        "osn.frontend.post.calls": calls["osn.frontend.post"],
        "osn.frontend.post.self_s": busy["osn.frontend.post"],
        "osn.ratelimit.calls": calls["osn.ratelimit"],
        "osn.ratelimit.self_s": busy["osn.ratelimit"],
        "osn.ratelimit.throttled": count(
            lambda s: s[1] == "osn.ratelimit" and s[7] == "RateLimitedError"
        ),
        "osn.pages.render.calls": calls["osn.pages.render"],
        "osn.pages.render.self_s": busy["osn.pages.render"],
        "osn.rendercache.hits": hits,
        "osn.rendercache.misses": misses,
        "osn.rendercache.evictions": detail.get("cache_evictions", 0),
        "osn.rendercache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "osn.rendercache.self_s": busy["osn.rendercache"],
        "osn.pages.parse.calls": calls["osn.pages.parse"],
        "osn.pages.parse.self_s": busy["osn.pages.parse"],
        "crawler.client.fetches": calls["crawler.client"],
        "crawler.client.self_s": busy["crawler.client"],
        "crawler.client.fetch.p50_us": percentile(client_us, 0.5),
        "crawler.client.fetch.p999_us": percentile(client_us, 0.999),
        "crawler.client.retries": count(lambda s: s[0] == "Pacer.on_throttle"),
        "crawler.client.failures": count(lambda s: s[1] == "crawler.client" and s[7]),
        "crawler.client.pages_per_s": client_pages / round_s,
        "crawler.politeness.self_s": busy["crawler.politeness"],
        "crawler.politeness.slept_sim_s": detail.get("slept_sim_s", 0.0),
        "crawler.engine.self_s": busy["crawler.engine"],
        "crawler.engine.turns": count(
            lambda s: s[0] in ("Pacer.next_polite_delay", "Pacer.next_throttle_penalty")
            and layer_of.get(s[5]) == "crawler.engine"
        ),
        "crawler.engine.overlap": (
            detail.get("slept_sim_s", 0.0) / engine_sim_s if engine_sim_s else 0.0
        ),
        "core.profiler.self_s": busy["core.profiler"],
        "core.scoring.calls": calls["core.scoring"],
        "core.scoring.self_s": busy["core.scoring"],
        "core.filtering.self_s": busy["core.filtering"],
        "core.extension.self_s": busy["core.extension"],
        "core.linkage.self_s": busy["core.linkage"],
        "core.linkage.resolve_calls": calls["core.linkage.resolve"],
        "core.linkage.resolve_fetches": count(
            lambda s: s[0] == "CrawlClient.fetch_profile"
            and layer_of.get(s[5]) == "core.linkage.resolve"
        ),
        "core.linkage.resolve_s": sum(
            (end - start for _, lay, start, end, *_ in spans if lay == "core.linkage.resolve"),
            0.0,
        ),
        "core.outreach.self_s": busy["core.outreach"],
        "core.outreach.posts": calls["osn.frontend.post"],
        "python.gc.calls": calls["python.gc"],
        "python.gc.self_s": busy["python.gc"],
        "trace.coverage": covered / round_s,
        "trace.overhead": overhead,
        "trace.unattributed_s": round_s - covered,
    }
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def unit_of(metric: str) -> str:
    """Per-layer units follow from the metric name's last part."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_us"):
        return "us"
    if last.endswith("_s"):
        return "s" if last != "pages_per_s" else "1/s"
    if last in ("repeat_share", "hit_ratio", "coverage", "overhead", "overlap"):
        return "ratio"
    return "count"
