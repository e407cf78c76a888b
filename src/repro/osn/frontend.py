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
sessions can serve off one shared world.

GET routes
----------
``/find-friends/browser?school=<id>&offset=<n>``
    The Find Friends Portal, paginated (AJAX-style offsets).
``/graphsearch?school=<id>[&year_op=..&year=..][&city=..][&current=1]``
    Graph Search with structured filters.
``/profile/<uid>``
    A public profile, rendered for the session's viewer.
``/profile/<uid>/friends?offset=<n>``
    One page (20 rows) of a friend list.
``/school/<id>``
    School directory entry (name, city, enrollment hint).

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
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional

from . import pages
from .errors import (
    AccountDisabledError,
    AuthenticationError,
    BadRequestError,
    ForbiddenError,
    NotFoundError,
    OsnError,
    RateLimitedError,
)
from .network import BaseNetwork, GraphSearchQuery
from .ratelimit import RateLimitConfig, RateLimiter
from .rendercache import CacheKey, RenderCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.telemetry.runtime import Telemetry

    from .clock import SimClock

_PROFILE_RE = re.compile(r"^/profile/(\d+)$")
_FRIENDS_RE = re.compile(r"^/profile/(\d+)/friends$")
_SCHOOL_RE = re.compile(r"^/school/(\d+)$")


#: Exception type -> status-outcome label used on request telemetry.
_OUTCOMES: Dict[type, str] = {
    RateLimitedError: "rate_limited",
    AccountDisabledError: "account_disabled",
    AuthenticationError: "auth_failed",
    NotFoundError: "not_found",
    ForbiddenError: "forbidden",
    BadRequestError: "bad_request",
}


class HtmlFrontend:
    """Serve the social network as HTML pages, one request at a time."""

    def __init__(
        self,
        network: BaseNetwork,
        rate_limit: Optional[RateLimitConfig] = None,
        telemetry: Optional["Telemetry"] = None,
        cache: Optional[RenderCache] = None,
    ) -> None:
        self.network = network
        self.limiter = RateLimiter(network.clock, rate_limit, telemetry=telemetry)
        self.telemetry = telemetry
        self.cache = cache
        if telemetry is not None:
            self._init_metrics(telemetry)

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
        """Attach (or detach) the page-render cache.

        Opt-in: worlds are built uncached so tests and experiments that
        mutate accounts in place observe every change; crawl-heavy
        paths attach a cache and accept the version-counter contract
        (out-of-band mutators must call ``network.bump_version()``).
        """
        self.cache = cache

    def set_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Attach (or detach) observability; also covers the rate limiter."""
        self.telemetry = telemetry
        self.limiter.set_telemetry(telemetry)
        if telemetry is not None:
            self._init_metrics(telemetry)

    def _init_metrics(self, telemetry: "Telemetry") -> None:
        self._requests_metric = telemetry.registry.counter(
            "frontend_requests_total",
            "HTTP requests served by the OSN frontend, by outcome",
            labelnames=("outcome",),
        )
        self._wall_metric = telemetry.registry.histogram(
            "frontend_request_wall_seconds",
            "Wall-clock time spent serving one request",
        )

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
        with self._measured(account_id, path):
            return self._serve_read(account_id, path, params)

    def post(
        self,
        account_id: int,
        path: str,
        params: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Perform one authenticated state-changing POST."""
        with self._measured(account_id, path):
            return self._serve_write(account_id, path, params)

    @contextmanager
    def _measured(self, account_id: int, path: str) -> Iterator[None]:
        """Request-telemetry envelope shared by the GET and POST paths."""
        telemetry = self.telemetry
        if telemetry is None:
            yield
            return
        wall_start = time.perf_counter()
        outcome = "ok"
        try:
            yield
        except OsnError as exc:
            outcome = _OUTCOMES.get(type(exc), "error")
            raise
        finally:
            wall = time.perf_counter() - wall_start
            self._requests_metric.labels(outcome=outcome).inc()
            self._wall_metric.labels().observe(wall)
            telemetry.emit(
                "http",
                account=account_id,
                path=path,
                outcome=outcome,
                wall_seconds=wall,
            )

    def _serve_read(
        self,
        account_id: int,
        path: str,
        params: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Authenticate, charge the limiter, route a read (telemetry-free)."""
        self._admit(account_id)
        params = dict(params or {})
        cache = self.cache
        if cache is not None:
            key = self._cache_key(account_id, path, params)
            if key is not None:
                page = cache.get(key)
                if page is None:
                    page = self._route_read(account_id, path, params)
                    cache.put(key, page)
                return page
        return self._route_read(account_id, path, params)

    def _route_read(
        self, account_id: int, path: str, params: Dict[str, str]
    ) -> str:
        """Dispatch an admitted read to its handler (cache-oblivious)."""
        if path == "/find-friends/browser":
            return self._find_friends(account_id, params)
        if path == "/graphsearch":
            return self._graph_search(account_id, params)
        match = _FRIENDS_RE.match(path)
        if match:
            return self._friends(account_id, int(match.group(1)), params)
        match = _PROFILE_RE.match(path)
        if match:
            return self._profile(account_id, int(match.group(1)))
        match = _SCHOOL_RE.match(path)
        if match:
            return self._school(int(match.group(1)))
        raise NotFoundError(f"no GET route for {path!r}")

    def _cache_key(
        self, account_id: int, path: str, params: Dict[str, str]
    ) -> Optional[CacheKey]:
        """The cache key for a GET, or ``None`` when it must not be cached.

        Every key ends with the network's ``version`` counter, so any
        page-visible mutation retires all earlier entries at once.
        Viewer identity collapses to the viewer *visibility class*
        (:class:`~repro.osn.privacy.Relationship`) on the routes whose
        render depends on the viewer only through it; school-search
        pages are per-account (the portal samples a per-account pool),
        and friend lists under the reverse-lookup countermeasure are
        never cached because member visibility is decided per
        (member, viewer) pair, which no class-level key captures.
        POSTs never reach this function: writes always execute.
        """
        network = self.network
        version = network.version
        if path == "/find-friends/browser":
            school_id = self._int_param(params, "school")
            offset = self._int_param(params, "offset", 0)
            return ("search", account_id, school_id, offset, version)
        if path == "/graphsearch":
            return (
                "graphsearch",
                self._int_param(params, "school"),
                params.get("year_op"),
                params.get("year"),
                params.get("city"),
                params.get("current") == "1",
                version,
            )
        match = _FRIENDS_RE.match(path)
        if match:
            if not network.reverse_lookup_enabled:
                return None
            target_id = int(match.group(1))
            rel = network.relationship(account_id, target_id)
            offset = self._int_param(params, "offset", 0)
            return ("friends", target_id, rel, offset, version)
        match = _PROFILE_RE.match(path)
        if match:
            target_id = int(match.group(1))
            rel = network.relationship(account_id, target_id)
            return ("profile", target_id, rel, version)
        match = _SCHOOL_RE.match(path)
        if match:
            return ("school", int(match.group(1)), version)
        return None

    def _serve_write(
        self,
        account_id: int,
        path: str,
        params: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Authenticate, charge the limiter, route an action (POST)."""
        self._admit(account_id)
        params = dict(params or {})

        if path == "/messages/send":
            return self._send_message(account_id, params)
        if path == "/friend-request":
            return self._friend_request(account_id, params)
        raise NotFoundError(f"no POST route for {path!r}")

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

    def _find_friends(self, account_id: int, params: Mapping[str, str]) -> str:
        school_id = self._int_param(params, "school")
        offset = self._int_param(params, "offset", 0)
        total, entries = self.network.school_search(account_id, school_id, offset)
        return pages.render_search_page(total, offset, entries)

    def _graph_search(self, account_id: int, params: Mapping[str, str]) -> str:
        school_id = self._int_param(params, "school")
        year_op = params.get("year_op")
        year = self._int_param(params, "year", -1) if "year" in params else None
        query = GraphSearchQuery(
            school_id=school_id,
            year_op=year_op,
            year=year,
            current_city=params.get("city"),
            current_students_only=params.get("current") == "1",
        )
        entries = self.network.graph_search(account_id, query)
        return pages.render_search_page(len(entries), 0, entries)

    def _profile(self, account_id: int, target_id: int) -> str:
        view = self.network.view_profile(account_id, target_id)
        return pages.render_profile_page(view)

    def _friends(self, account_id: int, target_id: int, params: Mapping[str, str]) -> str:
        offset = self._int_param(params, "offset", 0)
        total, entries = self.network.friend_page(account_id, target_id, offset)
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
