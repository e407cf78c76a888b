"""The async multi-account crawl engine on simulated time.

The paper's crawl is bounded by politeness, not bandwidth: every
request is preceded by a multi-second "sleeping function" (Section
3.2), so one account takes hours per school.  Running several crawl
accounts *concurrently* overlaps those waits — eight accounts pay the
same per-request delays but interleave them, cutting simulated
wall-time roughly eightfold at equal request budgets.

:class:`CrawlScheduler` drives a pool of accounts through a shared
work queue with asyncio, while :class:`TurnDispatcher` keeps the run
**deterministic**: instead of real timers, every ``await
turns.sleep(d)`` parks the session on a heap keyed by its simulated
wake-up instant, and the dispatcher only releases the earliest
sleeper(s) once every session is parked — advancing the shared
:class:`~repro.osn.clock.SimClock` with
:meth:`~repro.osn.clock.SimClock.advance_to` (summing per-session
sleeps would double-count the overlapped waits, which is the whole
point of concurrency).  Exactly one session runs between scheduling
points, so the visit order, effort counters and parsed results are a
pure function of (world seed, crawl seed, pool, plan) — reruns are
bit-identical.

Result-set invariance across pool sizes: seed harvesting is pinned to
the first ``harvest_accounts`` accounts of the sorted pool (portal
samples are per-account, so harvesting from *more* accounts would grow
the seed set), and the profile/friend-list queue is built from the
sorted seed set truncated at ``max_profiles`` — so pools of 1, 4 and 8
accounts visit the same pages and spend the same per-category effort,
they just overlap the waits.

Everything here speaks the :class:`~repro.crawler.client.CrawlClient`
vocabulary — per-account pacers, the Table-3 effort counter, the HTML
parsers — so the engine observes exactly what a single-account crawl
observes, never simulator internals.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Coroutine,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.osn.clock import SimClock
from repro.osn.errors import (
    AccountDisabledError,
    ForbiddenError,
    NotFoundError,
    RateLimitedError,
)
from repro.osn.pages import (
    parse_friends_page,
    parse_profile_page,
    parse_search_page,
)
from repro.osn.public import DirectoryEntry
from repro.osn.view import ProfileView

from .client import CrawlClient, _MAX_THROTTLE_RETRIES
from .effort import (
    CATEGORY_FRIEND_LISTS,
    CATEGORY_PROFILES,
    CATEGORY_SEEDS,
    EffortReport,
)

_Worker = Coroutine[Any, Any, None]


class TurnDispatcher:
    """Deterministic turn-taking over a shared :class:`SimClock`.

    Sessions call :meth:`sleep`; the dispatcher wakes the earliest
    sleeper only when *no* session is runnable, advancing the clock to
    that wake instant.  Sleepers sharing one wake instant are released
    one per turn, in the order they went to sleep.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[Tuple[float, int, "asyncio.Future[None]"]] = []
        self._seq = 0
        self._active = 0

    def register(self) -> None:
        """Declare one runnable session (call before it starts)."""
        self._active += 1

    def finish(self) -> None:
        """Retire a session; may hand the turn to a sleeper."""
        self._active -= 1
        self._pump()

    async def sleep(self, seconds: float) -> None:
        """Park the calling session until its simulated wake instant."""
        future: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        wake = self.clock.seconds() + max(0.0, float(seconds))
        heapq.heappush(self._heap, (wake, self._seq, future))
        self._seq += 1
        self._active -= 1
        self._pump()
        await future

    def _pump(self) -> None:
        """Release the earliest sleeper once everyone is parked."""
        while self._active == 0 and self._heap:
            wake, _, future = heapq.heappop(self._heap)
            if wake > self.clock.seconds():
                self.clock.advance_to(wake)
            if not future.done():
                self._active += 1
                future.set_result(None)


@dataclass(frozen=True)
class CrawlPlan:
    """What to crawl and how much of it (the run's budget knobs).

    ``max_profiles`` is the budget: the seed set is sorted and
    truncated there before the fetch phase, which is what keeps result
    sets identical across pool sizes at equal budgets.
    ``harvest_accounts`` pins seed harvesting to the first N accounts
    of the sorted pool for the same reason.
    """

    school_id: int
    harvest_accounts: int = 1
    max_pages_per_account: int = 100
    max_profiles: Optional[int] = None
    fetch_friend_lists: bool = True
    max_friend_pages: int = 200


class _RunState:
    """All mutable engine state, threaded through the workers.

    Lives in a parameter object (never on the scheduler) so async
    workers share it explicitly; within a run the dispatcher serialises
    every access — exactly one session executes between awaits.
    """

    def __init__(self) -> None:
        self.seeds: Dict[int, str] = {}
        self.profiles: Dict[int, Optional[ProfileView]] = {}
        self.friend_lists: Dict[int, Optional[List[DirectoryEntry]]] = {}
        self.visit_order: List[Tuple[Any, ...]] = []
        self.pages = 0
        self.pages_by_account: Dict[int, int] = {}
        self.work: Deque[Tuple[str, int]] = deque()


@dataclass
class CrawlRunResult:
    """Everything a scheduler run produced, plus its cost."""

    seeds: Dict[int, str]
    profiles: Dict[int, Optional[ProfileView]]
    friend_lists: Dict[int, Optional[List[DirectoryEntry]]]
    #: successful page fetches in execution order (deterministic).
    visit_order: List[Tuple[Any, ...]]
    effort: EffortReport
    sim_seconds: float
    pages: int
    pages_by_account: Dict[int, int]
    cache_stats: Optional[Dict[str, float]] = None

    @property
    def pages_per_sim_second(self) -> float:
        return self.pages / self.sim_seconds if self.sim_seconds else 0.0

    def result_signature(self) -> Tuple[Any, ...]:
        """Order-insensitive digest of *what* was crawled.

        Equal signatures mean identical crawl result sets — same seeds,
        same parsed profile views, same friend-list contents — which is
        the invariant benches assert across pool sizes and serve modes.
        """
        return (
            tuple(sorted(self.seeds.items())),
            tuple(sorted(self.profiles.items())),
            tuple(
                (uid, None if entries is None else tuple(entries))
                for uid, entries in sorted(self.friend_lists.items())
            ),
        )


async def _guarded(turns: TurnDispatcher, worker: _Worker) -> None:
    try:
        await worker
    finally:
        turns.finish()


class CrawlScheduler:
    """Run one school crawl concurrently over the client's account pool."""

    def __init__(self, client: CrawlClient, plan: CrawlPlan) -> None:
        self.client = client
        self.plan = plan

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def run(self) -> CrawlRunResult:
        """Harvest seeds, then drain the profile/friend-list queue."""
        client = self.client
        plan = self.plan
        clock = client.frontend.clock
        start = clock.seconds()
        state = _RunState()

        pool = sorted(client.pool.account_ids)
        harvesters = pool[: max(1, plan.harvest_accounts)]
        self._run_phase(
            lambda turns: [
                self._harvest(turns, state, account_id, plan.school_id)
                for account_id in harvesters
            ]
        )

        targets = sorted(state.seeds)
        if plan.max_profiles is not None:
            targets = targets[: plan.max_profiles]
        work: List[Tuple[str, int]] = [("profile", uid) for uid in targets]
        if plan.fetch_friend_lists:
            work.extend(("friends", uid) for uid in targets)
        state.work = deque(work)
        self._run_phase(
            lambda turns: [
                self._drain(turns, state, account_id) for account_id in pool
            ]
        )

        cache = client.frontend.cache
        return CrawlRunResult(
            seeds=dict(state.seeds),
            profiles=dict(state.profiles),
            friend_lists=dict(state.friend_lists),
            visit_order=list(state.visit_order),
            effort=client.effort_report(),
            sim_seconds=clock.seconds() - start,
            pages=state.pages,
            pages_by_account=dict(state.pages_by_account),
            cache_stats=cache.stats() if cache is not None else None,
        )

    def _run_phase(
        self, make_workers: Callable[[TurnDispatcher], List[_Worker]]
    ) -> None:
        """One barrier phase: spawn workers, await them all."""
        clock = self.client.frontend.clock

        async def phase() -> None:
            turns = TurnDispatcher(clock)
            workers = make_workers(turns)
            for _ in workers:
                turns.register()
            outcomes = await asyncio.gather(
                *(_guarded(turns, worker) for worker in workers),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome

        asyncio.run(phase())

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _harvest(
        self,
        turns: TurnDispatcher,
        state: _RunState,
        account_id: int,
        school_id: int,
    ) -> None:
        """Scroll the Find Friends Portal from one pinned account."""
        offset = 0
        for _ in range(self.plan.max_pages_per_account):
            page = await self._fetch(
                turns,
                state,
                account_id,
                "/find-friends/browser",
                {"school": str(school_id), "offset": str(offset)},
                CATEGORY_SEEDS,
            )
            listing = parse_search_page(page)
            for entry in listing.entries:
                state.seeds[entry.user_id] = entry.name
            state.visit_order.append(("seeds", account_id, offset))
            if listing.next_offset is None:
                break
            offset = listing.next_offset

    async def _drain(
        self, turns: TurnDispatcher, state: _RunState, account_id: int
    ) -> None:
        """Pull queue items until the shared deque is empty."""
        work = state.work
        while work:
            kind, uid = work.popleft()
            if kind == "profile":
                await self._fetch_profile(turns, state, account_id, uid)
            else:
                await self._fetch_friends(turns, state, account_id, uid)

    async def _fetch_profile(
        self,
        turns: TurnDispatcher,
        state: _RunState,
        account_id: int,
        user_id: int,
    ) -> None:
        try:
            page = await self._fetch(
                turns,
                state,
                account_id,
                f"/profile/{user_id}",
                None,
                CATEGORY_PROFILES,
            )
        except NotFoundError:
            state.profiles[user_id] = None
            return
        state.profiles[user_id] = parse_profile_page(page)
        state.visit_order.append(("profile", account_id, user_id))

    async def _fetch_friends(
        self,
        turns: TurnDispatcher,
        state: _RunState,
        account_id: int,
        user_id: int,
    ) -> None:
        entries: List[DirectoryEntry] = []
        offset = 0
        for _ in range(self.plan.max_friend_pages):
            try:
                page = await self._fetch(
                    turns,
                    state,
                    account_id,
                    f"/profile/{user_id}/friends",
                    {"offset": str(offset)},
                    CATEGORY_FRIEND_LISTS,
                )
            except ForbiddenError:
                state.friend_lists[user_id] = None
                return
            listing = parse_friends_page(page)
            entries.extend(listing.entries)
            state.visit_order.append(("friends", account_id, user_id, offset))
            if listing.next_offset is None:
                break
            offset = listing.next_offset
        state.friend_lists[user_id] = entries

    # ------------------------------------------------------------------
    # Transport (CrawlClient._transport semantics on cooperative time)
    # ------------------------------------------------------------------
    async def _fetch(
        self,
        turns: TurnDispatcher,
        state: _RunState,
        account_id: int,
        path: str,
        params: Optional[Dict[str, str]],
        category: str,
    ) -> str:
        """One logical GET: polite delay, throttle back-off, accounting.

        Mirrors ``CrawlClient._transport`` exactly — same pacer draws,
        same retry ceiling, same effort recording — except sleeps park
        the session on the dispatcher instead of summing onto the
        clock, so concurrent sessions overlap their waits.
        """
        client = self.client
        pacer = client.pacer_for(account_id)
        throttles = 0
        while True:
            delay = pacer.next_polite_delay()
            pacer.note_slept(delay, "polite")
            await turns.sleep(delay)
            try:
                page = client.frontend.get(account_id, path, params)
            except RateLimitedError as exc:
                throttles += 1
                if throttles > _MAX_THROTTLE_RETRIES:
                    raise
                penalty = pacer.next_throttle_penalty(exc.retry_after)
                pacer.note_slept(penalty, "backoff")
                await turns.sleep(penalty)
                continue
            except AccountDisabledError:
                client.pool.mark_disabled(account_id)
                raise
            client.counter.record(category, account_id)
            pacer.on_success()
            state.pages += 1
            state.pages_by_account[account_id] = (
                state.pages_by_account.get(account_id, 0) + 1
            )
            return page
