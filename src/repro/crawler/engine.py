"""The multi-account crawl engine on simulated time.

The paper's crawl is bounded by politeness, not bandwidth: every
request is preceded by a multi-second "sleeping function" (Section
3.2), so one account takes hours per school.  Running several crawl
accounts *concurrently* overlaps those waits — eight accounts pay the
same per-request delays but interleave them, cutting simulated
wall-time roughly eightfold at equal request budgets.

:class:`CrawlScheduler` drives a pool of accounts through a shared
work queue, one session per account.  A session is a generator over
the client's sans-IO steps, and :func:`run_sessions` runs them on one
heap keyed by simulated wake-up instant: each wait a session yields
parks it there, and the earliest sleeper resumes next, after the shared
:class:`~repro.osn.clock.SimClock` has moved to its wake instant with
:meth:`~repro.osn.clock.SimClock.advance_to` (summing per-session
sleeps would double-count the overlapped waits, which is the whole
point of concurrency).  Exactly one session runs between waits, so the
visit order, effort counters and parsed results are a pure function of
(world seed, crawl seed, pool, plan) — reruns are bit-identical.

Result-set invariance across pool sizes: seed harvesting is pinned to
the first account of the sorted pool (portal samples are per-account,
so harvesting from *more* accounts would grow the seed set), and the
profile/friend-list queue is built from the sorted seed set truncated
at ``max_profiles`` — so pools of 1, 4 and 8 accounts visit the same
pages and spend the same per-category effort, they just overlap the
waits.

The engine has no transport of its own: each work item runs one of the
client's sans-IO steps pinned to the session's account and parks on
every wait it yields, so pacing, retries, Table-3 accounting and
telemetry are the sequential client's, and the engine sees parsed
pages only, never simulator internals.  A lost account or an exhausted
retry never aborts a run; it is recorded in
:attr:`CrawlRunResult.failures`.  With a telemetry handle on the
client, the harvest runs in a ``seeds`` span and the queue drain in a
``crawl`` span, which emits one ``unserved`` event per item no session
was left to take.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, Deque, Dict, List, Optional, Sequence, Tuple

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

#: ``("seeds", school_id)``, ``("profile", uid)`` or ``("friends", uid)``.
WorkItem = Tuple[str, int]

#: ``(reason, account, item)``; the account is ``None`` for ``unserved``.
Failure = Tuple[str, Optional[int], WorkItem]


def run_sessions(clock: SimClock, sessions: Sequence[Step[Any]]) -> None:
    """Run every session to its end on one simulated-time heap.

    Sessions start in order, each running to its first wait; a wait
    parks its session on a heap keyed by ``(wake instant, park order)``,
    and the earliest sleeper resumes next, once the clock has advanced
    to its wake instant.  Sleepers sharing an instant resume in the
    order they parked.  A session that raises is retired and the others
    run on; once all have ended, the first error in session order is
    raised.
    """
    # Every session starts parked at the current instant, in order.
    heap = [(clock.seconds(), index, index) for index in range(len(sessions))]
    parked = len(heap)
    errors: List[Optional[Exception]] = [None] * len(sessions)
    while heap:
        wake, _, index = heapq.heappop(heap)
        if wake > clock.seconds():
            clock.advance_to(wake)
        try:
            wait = next(sessions[index])
        except StopIteration:
            continue
        except Exception as exc:
            errors[index] = exc
            continue
        heapq.heappush(heap, (clock.seconds() + max(0.0, wait), parked, index))
        parked += 1
    for error in errors:
        if error is not None:
            raise error


@dataclass(frozen=True)
class CrawlPlan:
    """What to crawl and how much of it.

    ``max_profiles`` is the budget: the seed set is sorted and
    truncated there before the fetch phase, which is what keeps result
    sets identical across pool sizes at equal budgets.  ``None`` crawls
    every seed; a negative budget raises ``ValueError``.
    """

    school_id: int
    max_profiles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_profiles is not None and self.max_profiles < 0:
            raise ValueError(f"max_profiles must be at least 0, not {self.max_profiles}")


class _RunState:
    """All mutable engine state, threaded through the sessions.

    Lives in a parameter object (never on the scheduler) so sessions
    share it explicitly; they interleave only where they yield a wait,
    so exactly one session touches it at a time.
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


class CrawlScheduler:
    """Run one school crawl concurrently over the client's account pool."""

    def __init__(self, client: CrawlClient, plan: CrawlPlan) -> None:
        self.client = client
        self.plan = plan

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _span(self, name: str) -> ContextManager:
        """A telemetry phase span, or a no-op when observability is off."""
        telemetry = self.client.telemetry
        return telemetry.span(name) if telemetry is not None else nullcontext()

    def run(self) -> CrawlRunResult:
        """Harvest seeds, then drain the queue; failures are listed, not raised."""
        client = self.client
        plan = self.plan
        clock = client.frontend.clock
        start = clock.seconds()
        state = _RunState()

        harvest: WorkItem = ("seeds", plan.school_id)
        harvester = min(client.pool.account_ids)
        with self._span("seeds"):
            run_sessions(clock, [self._serve(state, harvester, harvest)])

        targets = sorted(state.seeds)
        if plan.max_profiles is not None:
            targets = targets[: plan.max_profiles]
        work: List[WorkItem] = [("profile", uid) for uid in targets]
        work.extend(("friends", uid) for uid in targets)
        state.work = deque(work)
        with self._span("crawl"):
            run_sessions(
                clock,
                [self._drain(state, account_id) for account_id in sorted(client.pool.usable)],
            )
            telemetry = client.telemetry
            for kind, uid in state.work:
                state.failures.append(("unserved", None, (kind, uid)))
                if telemetry is not None:
                    telemetry.emit("unserved", item=kind, uid=uid)

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

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _drain(self, state: _RunState, account_id: int) -> Step[None]:
        """Pull queue items until the queue is empty or the account is lost."""
        work = state.work
        while work:
            item = work.popleft()
            if not (yield from self._serve(state, account_id, item)):
                work.appendleft(item)
                return

    def _serve(self, state: _RunState, account_id: int, item: WorkItem) -> Step[bool]:
        """Run one item's step, yielding each wait; ``False`` if the account is lost."""
        try:
            yield from self._step(state, account_id, item)
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
        kind, key = item
        if kind == "seeds":
            yield from client.portal_step(key, account_id, state.seeds)
        elif kind == "profile":
            state.profiles[key] = yield from client.profile_step(key, account_id)
        else:
            state.friend_lists[key] = yield from client.friend_list_step(key, account_id)
