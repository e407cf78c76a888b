"""A memo of one world version's rendered HTML pages.

The paper's Figure 1 runs four methodology variants against the same
school, so a sweep re-crawls the same seed, profile and friend-list
pages.  While the world does not change, a rendered page is a function
of ``(route, target, viewer visibility class)``, so the frontend can
memoise the HTML strings and serve repeats without touching the policy
engine or the templates.

The cache holds every page rendered at one value of the owning
network's ``version`` counter, which every page-visible mutation bumps.
A lookup at any other version drops all held pages first, so
correctness never depends on enumerating what a mutation invalidated,
and the cache never holds more than one version's pages.  Keys omit the
simulated date: a page is served as first rendered for the whole
version.  A single-pass crawl fetches each page once, so it runs
without a cache.

The cache itself is deliberately dumb: it stores strings under opaque
tuple keys.  What is cacheable (and what the key must include) is the
frontend's knowledge — see ``HtmlFrontend._cache_key``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: A cache key: route marker plus route-specific discriminators.
CacheKey = Tuple[object, ...]


class RenderCache:
    """Every page rendered at one world version, shared by all crawl sessions."""

    def __init__(self) -> None:
        self._pages: Dict[CacheKey, str] = {}
        self._version: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pages)

    def get(self, key: CacheKey, version: int) -> Optional[str]:
        """The page cached for ``key`` at world ``version``, or None.

        A lookup at a version other than the held one first drops every
        held page, counting each in :attr:`evictions`.
        """
        if version != self._version:
            self.evictions += len(self._pages)  # repro-lint: shared(RenderCache) -- monotone counter; sessions may undercount under races, never corrupt
            self._pages.clear()  # repro-lint: shared(RenderCache) -- the world changed for every session at once, so every session's pages are stale
            self._version = version  # repro-lint: shared(RenderCache) -- one world version for all sessions; the GET path is synchronous, so a lookup and its put see the same one
        page = self._pages.get(key)
        if page is None:
            self.misses += 1  # repro-lint: shared(RenderCache) -- monotone counter; sessions may undercount under races, never corrupt
            return None
        self.hits += 1  # repro-lint: shared(RenderCache) -- monotone counter; sessions may undercount under races, never corrupt
        return page

    def put(self, key: CacheKey, page: str) -> None:
        """Hold the page rendered for ``key`` after a missed :meth:`get`."""
        self._pages[key] = page  # repro-lint: shared(RenderCache) -- idempotent insert: concurrent writers store byte-identical renders of the same key

    def stats(self) -> Dict[str, float]:
        """Counters for bench records."""
        return {
            "entries": float(len(self._pages)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
        }
