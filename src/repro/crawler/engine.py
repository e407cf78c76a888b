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

The engine has no transport of its own: each work item runs one of the
client's sans-IO steps pinned to the session's account and parks on
every wait it yields, so pacing, retries, Table-3 accounting and
telemetry are the sequential client's, and the engine sees parsed
pages only, never simulator internals.  A lost account or an exhausted
retry never aborts a run; it is recorded in
:attr:`CrawlRunResult.failures`.
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
from repro.osn.errors import AccountDisabledError, RateLimitedError

# Unused here (the client's steps parse); kept because bench/trace.py
# wraps these names on this module.
from repro.osn.pages import (
    parse_friends_page,
    parse_profile_page,
    parse_search_page,
)
from repro.osn.public import DirectoryEntry
from repro.osn.view import ProfileView

from .client import CrawlClient, Step
from .effort import EffortReport

_Worker = Coroutine[Any, Any, object]

#: ``("seeds", school_id)``, ``("profile", uid)`` or ``("friends", uid)``.
WorkItem = Tuple[str, int]

#: ``(reason, account, item)``; the account is ``None`` for ``unserved``.
Failure = Tuple[str, Optional[int], WorkItem]


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
        self.visit_order: List[Tuple[str, int, int]] = []
        self.failures: List[Failure] = []
        self.work: Deque[WorkItem] = deque()


@dataclass
class CrawlRunResult:
    """Everything a scheduler run produced, plus its cost and failures."""

    seeds: Dict[int, str]
    profiles: Dict[int, Optional[ProfileView]]
    friend_lists: Dict[int, Optional[List[DirectoryEntry]]]
    #: one ``(kind, account, key)`` entry per completed work item, in
    #: completion order (deterministic).
    visit_order: List[Tuple[str, int, int]]
    #: failed work items in the order they failed: ``account_lost`` (a
    #: queued item goes back to the queue, a harvest keeps the seeds it
    #: parsed), ``retry_exhausted`` (dropped) and ``unserved`` (no
    #: session was left to take it).
    failures: List[Failure]
    effort: EffortReport
    sim_seconds: float
    pages_by_account: Dict[int, int]

    @property
    def pages(self) -> int:
        """Successful GETs, as the client's effort counter tallied them."""
        return self.effort.total

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
        """Harvest seeds, then drain the queue; failures are listed, not raised."""
        client = self.client
        plan = self.plan
        clock = client.frontend.clock
        start = clock.seconds()
        state = _RunState()

        harvest: WorkItem = ("seeds", plan.school_id)
        harvesters = sorted(client.pool.account_ids)[: max(1, plan.harvest_accounts)]
        self._run_phase(
            lambda turns: [
                self._serve(turns, state, account_id, harvest)
                for account_id in harvesters
            ]
        )

        targets = sorted(state.seeds)
        if plan.max_profiles is not None:
            targets = targets[: plan.max_profiles]
        work: List[WorkItem] = [("profile", uid) for uid in targets]
        if plan.fetch_friend_lists:
            work.extend(("friends", uid) for uid in targets)
        state.work = deque(work)
        self._run_phase(
            lambda turns: [
                self._drain(turns, state, account_id)
                for account_id in sorted(client.pool.usable)
            ]
        )
        state.failures.extend(("unserved", None, item) for item in state.work)

        return CrawlRunResult(
            seeds=dict(state.seeds),
            profiles=dict(state.profiles),
            friend_lists=dict(state.friend_lists),
            visit_order=list(state.visit_order),
            failures=list(state.failures),
            effort=client.effort_report(),
            sim_seconds=clock.seconds() - start,
            pages_by_account=client.counter.by_account(),
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
    async def _drain(
        self, turns: TurnDispatcher, state: _RunState, account_id: int
    ) -> None:
        """Pull queue items until the queue is empty or the account is lost."""
        work = state.work
        while work:
            item = work.popleft()
            if not await self._serve(turns, state, account_id, item):
                work.appendleft(item)
                return

    async def _serve(
        self,
        turns: TurnDispatcher,
        state: _RunState,
        account_id: int,
        item: WorkItem,
    ) -> bool:
        """Run one item's step, parking on each wait; ``False`` if the account is lost."""
        try:
            for wait in self._step(state, account_id, item):
                await turns.sleep(wait)
        except AccountDisabledError:
            state.failures.append(("account_lost", account_id, item))
            return False
        except RateLimitedError:
            state.failures.append(("retry_exhausted", account_id, item))
            return True
        state.visit_order.append((item[0], account_id, item[1]))
        return True

    def _step(self, state: _RunState, account_id: int, item: WorkItem) -> Step[None]:
        """The client step behind one work item, storing its result."""
        client = self.client
        plan = self.plan
        kind, key = item
        if kind == "seeds":
            yield from client.portal_step(
                key, account_id, state.seeds, plan.max_pages_per_account
            )
        elif kind == "profile":
            state.profiles[key] = yield from client.profile_step(key, account_id)
        else:
            state.friend_lists[key] = yield from client.friend_list_step(
                key, account_id, plan.max_friend_pages
            )
