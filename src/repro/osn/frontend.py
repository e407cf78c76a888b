"""The OSN's HTML-over-HTTP face.

:class:`HtmlFrontend` is the *only* interface the crawler layer may
touch.  Each ``get()`` is one simulated HTTP GET: it authenticates the
session account, charges the rate limiter, routes the path, renders the
policy-filtered result to HTML and returns the string — mirroring how
the paper's crawler "visits public Web pages in Facebook and downloads
the HTML source code of each Web page" (Section 3.2).  Actions that
change world state (messages, friend requests) go through ``post()``:
the GET surface is read-only end to end, which is the invariant the
PURE001 lint rule proves over the whole call graph so concurrent
sessions can serve off one shared world.  The frontend records nothing
about the requests it serves: a crawl session's telemetry lives on its
client, which sees every answer and every error.

GET routes
----------
``/find-friends/browser?school=<id>&offset=<n>``
    The Find Friends Portal, paginated (AJAX-style offsets).
``/graphsearch?school=<id>[&year_op=..&year=..][&city=..][&current=1]``
    Graph Search with structured filters; ``year_op`` (``in``,
    ``after`` or ``before``) needs a ``year``.
``/profile/<uid>``
    A public profile, rendered for the session's viewer.
``/profile/<uid>/friends?offset=<n>``
    One page (20 rows) of a friend list.
``/school/<id>``
    School directory entry (name, city, enrollment hint).

A listing's ``offset`` is a non-negative integer: a negative one, like
a malformed parameter, is a 400 (:class:`BadRequestError`).

POST routes
-----------
``/messages/send?to=<uid>&text=...``
    Send a direct message (policy permitting) - a confirmation page or
    a 403 mirrors whether the Message button was available.
``/friend-request?to=<uid>``
    Send a friend request (allowed toward anyone).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from . import pages
from .errors import AuthenticationError, BadRequestError, NotFoundError
from .network import YEAR_OPS, BaseNetwork, GraphSearchQuery
from .privacy import Relationship
from .ratelimit import RateLimitConfig, RateLimiter
from .rendercache import CacheKey, RenderCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .clock import SimClock

_PROFILE_RE = re.compile(r"^/profile/(\d+)$")
_FRIENDS_RE = re.compile(r"^/profile/(\d+)/friends$")
_SCHOOL_RE = re.compile(r"^/school/(\d+)$")
#: Cache-key kinds whose third element is the viewer's relationship.
_VIEWER_CLASS_KEYS = frozenset({"profile", "friends"})


class HtmlFrontend:
    """Serve the social network as HTML pages, one request at a time."""

    def __init__(
        self,
        network: BaseNetwork,
        rate_limit: Optional[RateLimitConfig] = None,
    ) -> None:
        self.network = network
        self.limiter = RateLimiter(network.clock, rate_limit)
        self.cache: Optional[RenderCache] = None

    @property
    def clock(self) -> "SimClock":
        """The simulated clock, exposed for crawler pacing.

        This is the one simulator internal crawlers may read directly:
        a real attacker always knows what time it is.  Everything else
        behind this frontend stays reachable only as rendered HTML.
        """
        return self.network.clock

    @property
    def request_count(self) -> int:
        """Requests served past authentication and the rate limiter.

        Derived from the per-account limiter counters rather than a
        frontend-level mutable — the serve path itself holds no state.
        """
        return self.limiter.total_served

    def set_cache(self, cache: Optional[RenderCache]) -> None:
        """Attach (or detach) the page-render cache; the one attach point.

        Opt-in: frontends start uncached, so tests and experiments that
        mutate accounts in place observe every change, and a
        single-pass crawl, which fetches each page once, pays nothing.
        Runs that re-crawl the same pages, such as the Figure-1 sweep,
        attach a cache and accept the version-counter contract:
        out-of-band mutators must call ``network.bump_version()``.
        """
        self.cache = cache

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def get(
        self,
        account_id: int,
        path: str,
        params: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Perform one authenticated GET and return the page HTML.

        Strictly read-only: no world mutation is reachable from here
        (machine-checked by PURE001).
        """
        self._admit(account_id)
        params = dict(params or {})
        cache = self.cache
        if cache is not None:
            key = self._cache_key(account_id, path, params)
            if key is not None:
                page = cache.get(key, self.network.version)
                if page is None:
                    # A profile or friends key holds the viewer's class:
                    # render with it rather than classify them again.
                    rel = key[2] if key[0] in _VIEWER_CLASS_KEYS else None
                    page = self._route_read(account_id, path, params, rel)
                    cache.put(key, page)
                return page
        return self._route_read(account_id, path, params)

    def post(
        self,
        account_id: int,
        path: str,
        params: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Perform one authenticated state-changing POST."""
        self._admit(account_id)
        params = dict(params or {})
        if path == "/messages/send":
            return self._send_message(account_id, params)
        if path == "/friend-request":
            return self._friend_request(account_id, params)
        raise NotFoundError(f"no POST route for {path!r}")

    def _route_read(
        self,
        account_id: int,
        path: str,
        params: Dict[str, str],
        rel: Optional[Relationship] = None,
    ) -> str:
        """Dispatch an admitted read to its handler (cache-oblivious).

        ``rel``, when given, is the viewer's already-classified
        relationship to the profile or friend-list owner.
        """
        if path == "/find-friends/browser":
            return self._find_friends(account_id, params)
        if path == "/graphsearch":
            return self._graph_search(account_id, params)
        match = _FRIENDS_RE.match(path)
        if match:
            return self._friends(account_id, int(match.group(1)), params, rel)
        match = _PROFILE_RE.match(path)
        if match:
            return self._profile(account_id, int(match.group(1)), rel)
        match = _SCHOOL_RE.match(path)
        if match:
            return self._school(int(match.group(1)))
        raise NotFoundError(f"no GET route for {path!r}")

    def _cache_key(
        self, account_id: int, path: str, params: Dict[str, str]
    ) -> Optional[CacheKey]:
        """The cache key for a GET, or ``None`` when it must not be cached.

        Keys hold no world version and no simulated date: the cache
        keeps the pages of one ``network.version`` and drops them all
        when a lookup arrives at another, and a page is served as first
        rendered for the whole version.  Viewer identity collapses to
        the viewer *visibility class*
        (:class:`~repro.osn.privacy.Relationship`) on the routes whose
        render depends on the viewer only through it; school-search
        pages are per-account (the portal samples a per-account pool),
        and friend lists under the reverse-lookup countermeasure are
        never cached because member visibility is decided per
        (member, viewer) pair, which no class-level key captures.
        POSTs never reach this function: writes always execute.
        """
        network = self.network
        if path == "/find-friends/browser":
            school_id = self._int_param(params, "school")
            return ("search", account_id, school_id, self._offset_param(params))
        if path == "/graphsearch":
            return (
                "graphsearch",
                self._int_param(params, "school"),
                params.get("year_op"),
                params.get("year"),
                params.get("city"),
                params.get("current") == "1",
            )
        match = _FRIENDS_RE.match(path)
        if match:
            if not network.reverse_lookup_enabled:
                return None
            offset = self._offset_param(params)
            target_id = int(match.group(1))
            rel = network.relationship(account_id, target_id)
            return ("friends", target_id, rel, offset)
        match = _PROFILE_RE.match(path)
        if match:
            target_id = int(match.group(1))
            rel = network.relationship(account_id, target_id)
            return ("profile", target_id, rel)
        match = _SCHOOL_RE.match(path)
        if match:
            return ("school", int(match.group(1)))
        return None

    def _admit(self, account_id: int) -> None:
        """Session auth + rate-limit charge, shared by both verbs."""
        self._authenticate(account_id)
        self.limiter.check(account_id)

    def _authenticate(self, account_id: int) -> None:
        account = self.network.find_account(account_id)
        if account is None:
            raise AuthenticationError(f"unknown session account {account_id}")
        if account.disabled:
            raise AuthenticationError(f"session account {account_id} is disabled")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _int_param(params: Mapping[str, str], key: str, default: Optional[int] = None) -> int:
        raw = params.get(key)
        if raw is None:
            if default is None:
                raise BadRequestError(f"missing required parameter {key!r}")
            return default
        try:
            return int(raw)
        except ValueError:
            raise BadRequestError(f"parameter {key!r} is not an integer: {raw!r}") from None

    @classmethod
    def _offset_param(cls, params: Mapping[str, str]) -> int:
        """A listing's ``offset``: 0 when absent, 400 when negative (the
        page header could not carry it, and no parser would read it)."""
        offset = cls._int_param(params, "offset", 0)
        if offset < 0:
            raise BadRequestError(f"parameter 'offset' is negative: {offset}")
        return offset

    def _find_friends(self, account_id: int, params: Mapping[str, str]) -> str:
        school_id = self._int_param(params, "school")
        offset = self._offset_param(params)
        total, entries = self.network.school_search(account_id, school_id, offset)
        return pages.render_search_page(total, offset, entries)

    def _graph_search(self, account_id: int, params: Mapping[str, str]) -> str:
        school_id = self._int_param(params, "school")
        year_op = params.get("year_op")
        year = self._int_param(params, "year", -1) if "year" in params else None
        if year_op is not None:
            if year_op not in YEAR_OPS:
                raise BadRequestError(f"unknown year_op: {year_op!r}")
            if year is None:
                raise BadRequestError(f"year_op {year_op!r} needs a year")
        query = GraphSearchQuery(
            school_id=school_id,
            year_op=year_op,
            year=year,
            current_city=params.get("city"),
            current_students_only=params.get("current") == "1",
        )
        entries = self.network.graph_search(account_id, query)
        return pages.render_search_page(len(entries), 0, entries)

    def _profile(
        self, account_id: int, target_id: int, rel: Optional[Relationship]
    ) -> str:
        view = self.network.view_profile(account_id, target_id, rel)
        return pages.render_profile_page(view)

    def _friends(
        self,
        account_id: int,
        target_id: int,
        params: Mapping[str, str],
        rel: Optional[Relationship],
    ) -> str:
        offset = self._offset_param(params)
        total, entries = self.network.friend_page(account_id, target_id, offset, rel)
        return pages.render_friends_page(target_id, total, offset, entries)

    def _school(self, school_id: int) -> str:
        school = self.network.get_school(school_id)
        return pages.render_school_page(school)

    def _send_message(self, account_id: int, params: Mapping[str, str]) -> str:
        recipient = self._int_param(params, "to")
        text = params.get("text", "")
        self.network.send_message(account_id, recipient, text)
        return pages.render_action_page("message-sent", recipient)

    def _friend_request(self, account_id: int, params: Mapping[str, str]) -> str:
        recipient = self._int_param(params, "to")
        accepted = self.network.send_friend_request(account_id, recipient)
        kind = "friend-request-sent" if accepted else "friend-request-duplicate"
        return pages.render_action_page(kind, recipient)
