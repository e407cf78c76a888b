"""The typed crawl client: HTML in, structured data out.

:class:`CrawlClient` is the attacker's entire I/O surface.  It wraps the
OSN's HTML frontend with:

* account rotation over the fake-account pool (retiring disabled ones),
* politeness pacing and throttle back-off on the simulated clock,
* per-category request accounting (the Table-3 effort breakdown),
* page parsing (every byte of knowledge the attack has comes out of
  :mod:`repro.osn.pages` parsers — never from simulator internals).

The transport is written once, sans-IO: a request and each page walk is
a :data:`Step` that yields every simulated wait and returns its parsed
result.  The public methods sleep those waits on the
:class:`~repro.osn.clock.SimClock`; the async engine parks on them, so
both run the same retries, rotation, accounting and telemetry events.

The client is the only component that records requests.  With a
:class:`~repro.telemetry.runtime.Telemetry` handle it emits one
``request`` event per frontend attempt (account, category, path,
outcome, wall time and the polite delay slept before it), plus
``throttle``, ``retry_exhausted`` and ``account_lost``; without one, the
cost is one ``is None`` check per attempt.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Mapping, Optional, TypeVar

from repro.osn.errors import (
    AccountDisabledError,
    AuthenticationError,
    BadRequestError,
    ForbiddenError,
    NotFoundError,
    OsnError,
    RateLimitedError,
)
from repro.osn.frontend import HtmlFrontend
from repro.osn.public import DirectoryEntry, School
from repro.osn.pages import (
    parse_action_page,
    parse_friends_page,
    parse_profile_page,
    parse_school_page,
    parse_search_page,
)
from repro.osn.view import ProfileView

from .accounts import AccountPool, NoUsableAccountsError
from .effort import (
    CATEGORY_FRIEND_LISTS,
    CATEGORY_OTHER,
    CATEGORY_PROFILES,
    CATEGORY_SEEDS,
    EffortCounter,
    EffortReport,
)
from .politeness import Pacer, PolitenessPolicy, pacer_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.runtime import Telemetry

_MAX_THROTTLE_RETRIES = 8

#: Page caps per portal scroll and per friend list: they bound a listing
#: whose ``next_offset`` never runs out.
_MAX_PORTAL_PAGES = 100
_MAX_FRIEND_PAGES = 200

#: Exception type -> the ``outcome`` of a ``request`` event.
_OUTCOMES: Dict[type, str] = {
    RateLimitedError: "rate_limited",
    AccountDisabledError: "account_disabled",
    AuthenticationError: "auth_failed",
    NotFoundError: "not_found",
    ForbiddenError: "forbidden",
    BadRequestError: "bad_request",
}

_T = TypeVar("_T")

#: A sans-IO crawl step: yields each simulated wait (seconds) its driver
#: must sleep before resuming it, and returns the step's result.
Step = Generator[float, None, _T]


class CrawlClient:
    """Fetch, parse and account for pages on behalf of the attacker."""

    def __init__(
        self,
        frontend: HtmlFrontend,
        pool: AccountPool,
        politeness: Optional[PolitenessPolicy] = None,
        telemetry: Optional["Telemetry"] = None,
        seed: int = 0,
    ) -> None:
        self.frontend = frontend
        self.pool = pool
        self.telemetry = telemetry
        self.seed = seed
        self._politeness = politeness
        self._pacers: Dict[int, Pacer] = {}
        self.counter = EffortCounter()

    def pacer_for(self, account_id: int) -> Pacer:
        """The per-account pacer, created on first use.

        Pacing state (jitter RNG, backoff streak, sleep total) is keyed
        per account so concurrent sessions never share it.  Each pacer
        draws jitter from its own ``pacer_rng(seed, account_id)``
        stream — multi-account runs stay deterministic regardless of
        how requests interleave across accounts, and the stream depends
        only on the crawl seed and the account id, never on pool size.
        """
        pacer = self._pacers.get(account_id)
        if pacer is None:
            pacer = Pacer(
                self.frontend.clock,
                self._politeness,
                rng=pacer_rng(self.seed, account_id),
            )
            self._pacers[account_id] = pacer  # repro-lint: shared(CrawlClient) -- first-use registry insert; pacing state lives on the per-account object
        return pacer

    # ------------------------------------------------------------------
    # Transport with rotation / back-off
    # ------------------------------------------------------------------
    def _drive(self, step: Step[_T]) -> _T:
        """Run a step to its result, sleeping each wait on the clock."""
        clock = self.frontend.clock
        while True:
            try:
                wait = next(step)
            except StopIteration as done:
                return done.value
            if wait > 0:
                clock.sleep(wait)

    def _get(
        self,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        account_id: Optional[int] = None,
    ) -> str:
        """One logical GET: paces, rotates accounts, retries throttles."""
        return self._drive(self._request_step(False, path, params, category, account_id))

    def _post(
        self,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        account_id: Optional[int] = None,
    ) -> str:
        """One logical POST (state-changing action), same pacing rules."""
        return self._drive(self._request_step(True, path, params, category, account_id))

    def _request_step(
        self,
        write: bool,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        account_id: Optional[int] = None,
    ) -> Step[str]:
        """One logical request: polite delay, issue, back off, rotate, give up.

        Pinned to ``account_id``, or else rotating over the pool; raises
        once that account (or the last usable one) is lost, or past the
        throttle retry ceiling.
        """
        telemetry = self.telemetry
        throttles = 0
        while True:
            chosen = account_id if account_id is not None else self.pool.next()
            pacer = self.pacer_for(chosen)
            delay = pacer.next_polite_delay()
            pacer.note_slept(delay)
            yield delay
            call = self.frontend.post if write else self.frontend.get
            try:
                if telemetry is None:
                    page = call(chosen, path, params)
                else:
                    page = self._observed(
                        telemetry, call, chosen, path, params, category, delay
                    )
            except RateLimitedError as exc:
                throttles += 1
                if throttles > _MAX_THROTTLE_RETRIES:
                    if telemetry is not None:
                        telemetry.emit(
                            "retry_exhausted",
                            account=chosen,
                            path=path,
                            category=category,
                            throttles=throttles,
                        )
                    raise
                slept = pacer.next_throttle_penalty(exc.retry_after)
                pacer.note_slept(slept)
                yield slept
                if telemetry is not None:
                    telemetry.emit(
                        "throttle",
                        account=chosen,
                        category=category,
                        retry_after=exc.retry_after,
                        slept=slept,
                    )
                continue
            except AccountDisabledError:
                self.pool.mark_disabled(chosen)
                rotated = account_id is None and bool(self.pool.usable)
                if telemetry is not None:
                    telemetry.emit(
                        "account_lost",
                        account=chosen,
                        pinned=account_id is not None,
                        rotated=rotated,
                    )
                if not rotated:
                    raise
                continue
            self.counter.record(category, chosen)
            pacer.on_success()
            return page

    @staticmethod
    def _observed(
        telemetry: "Telemetry",
        call: Callable[[int, str, Optional[Mapping[str, str]]], str],
        account: int,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        delay: float,
    ) -> str:
        """One frontend attempt and its ``request`` event.

        ``outcome`` is ``ok`` or the :data:`_OUTCOMES` label of the
        :class:`~repro.osn.errors.OsnError` the frontend answered with.
        Any other exception is a fault, not an answer, and propagates
        unrecorded.
        """
        outcome: Optional[str] = None
        start = time.perf_counter()
        try:
            page = call(account, path, params)
            outcome = "ok"
            return page
        except OsnError as exc:
            outcome = _OUTCOMES.get(type(exc), "error")
            raise
        finally:
            if outcome is not None:
                telemetry.emit(
                    "request",
                    account=account,
                    category=category,
                    path=path,
                    outcome=outcome,
                    wall_seconds=time.perf_counter() - start,
                    delay=delay,
                )

    # ------------------------------------------------------------------
    # Seed collection (Step 1)
    # ------------------------------------------------------------------
    def collect_seeds(self, school_id: int) -> Dict[int, str]:
        """Harvest the seed set S from the Find Friends Portal.

        Scrolls every results page (AJAX-style offsets) from each crawl
        account; different accounts receive different truncated samples,
        so the union grows with the number of accounts (paper, Section
        3.1).  Returns uid -> display name.
        """
        seeds: Dict[int, str] = {}
        for account_id in self.pool.usable:
            self._drive(self.portal_step(school_id, account_id, seeds))
        return seeds

    def portal_step(
        self, school_id: int, account_id: int, seeds: Dict[int, str]
    ) -> Step[None]:
        """One account's scroll of the Find Friends Portal.

        Each parsed entry goes straight into ``seeds`` (uid -> display
        name), so a scroll cut short by a failure keeps what it parsed.
        """
        offset = 0
        for _ in range(_MAX_PORTAL_PAGES):
            page = yield from self._request_step(
                False,
                "/find-friends/browser",
                {"school": str(school_id), "offset": str(offset)},
                CATEGORY_SEEDS,
                account_id,
            )
            listing = parse_search_page(page)
            for entry in listing.entries:
                seeds[entry.user_id] = entry.name
            if listing.next_offset is None:
                break
            offset = listing.next_offset

    def collect_seeds_graph_search(
        self,
        school_id: int,
        years: Optional[List[int]] = None,
    ) -> Dict[int, str]:
        """Harvest seeds via Graph Search instead of the portal.

        Issues one unconstrained query plus one "studied at X in YEAR"
        query per requested year (Graph Search caps each result set, so
        year refinements surface users the broad query truncated away).
        """
        seeds: Dict[int, str] = {}
        queries: List[Dict[str, str]] = [{"school": str(school_id)}]
        for year in years or ():
            queries.append(
                {"school": str(school_id), "year_op": "in", "year": str(year)}
            )
        for params in queries:
            page = self._get("/graphsearch", params, CATEGORY_SEEDS)
            for entry in parse_search_page(page).entries:
                seeds[entry.user_id] = entry.name
        return seeds

    # ------------------------------------------------------------------
    # Profiles (Steps 2 and the enhanced methodology)
    # ------------------------------------------------------------------
    def fetch_profile(self, user_id: int) -> Optional[ProfileView]:
        """Download and parse one public profile; ``None`` if gone."""
        return self._drive(self.profile_step(user_id))

    def profile_step(
        self, user_id: int, account_id: Optional[int] = None
    ) -> Step[Optional[ProfileView]]:
        """The step behind :meth:`fetch_profile`, optionally pinned."""
        try:
            page = yield from self._request_step(
                False, f"/profile/{user_id}", None, CATEGORY_PROFILES, account_id
            )
        except NotFoundError:
            return None
        return parse_profile_page(page)

    # ------------------------------------------------------------------
    # Friend lists (Step 3; paginated, p=20 per request)
    # ------------------------------------------------------------------
    def fetch_friend_list(self, user_id: int) -> Optional[List[DirectoryEntry]]:
        """Download a full friend list, page by page.

        Returns ``None`` when the list is not visible to a stranger —
        the distinction between the paper's C' and core set C.
        """
        return self._drive(self.friend_list_step(user_id))

    def friend_list_step(
        self, user_id: int, account_id: Optional[int] = None
    ) -> Step[Optional[List[DirectoryEntry]]]:
        """The step behind :meth:`fetch_friend_list`, optionally pinned."""
        entries: List[DirectoryEntry] = []
        offset = 0
        for _ in range(_MAX_FRIEND_PAGES):
            try:
                page = yield from self._request_step(
                    False,
                    f"/profile/{user_id}/friends",
                    {"offset": str(offset)},
                    CATEGORY_FRIEND_LISTS,
                    account_id,
                )
            except ForbiddenError:
                return None
            listing = parse_friends_page(page)
            entries.extend(listing.entries)
            if listing.next_offset is None:
                break
            offset = listing.next_offset
        return entries

    # ------------------------------------------------------------------
    # Contact surfaces (Section 2 threat quantification)
    # ------------------------------------------------------------------
    def send_message(self, user_id: int, text: str) -> bool:
        """Attempt a direct message; ``False`` when policy forbids it."""
        try:
            self._post(
                "/messages/send",
                {"to": str(user_id), "text": text},
                CATEGORY_OTHER,
            )
        except ForbiddenError:
            return False
        return True

    def send_friend_request(self, user_id: int) -> bool:
        """Send a friend request; ``False`` if one was already pending."""
        page = self._post(
            "/friend-request", {"to": str(user_id)}, CATEGORY_OTHER
        )
        kind, _ = parse_action_page(page)
        return kind == "friend-request-sent"

    # ------------------------------------------------------------------
    # Directory
    # ------------------------------------------------------------------
    def fetch_school(self, school_id: int) -> School:
        """Look up a school's directory entry (name, city, size hint)."""
        page = self._get(f"/school/{school_id}", None, CATEGORY_OTHER)
        return parse_school_page(page)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def effort_report(self) -> EffortReport:
        return self.counter.report()
