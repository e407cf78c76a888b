"""Friendship wiring: who is friends with whom, and why.

The attack's statistical power comes entirely from edge structure:

* dense same-cohort ties make ``|G_i(u)|/|C_i|`` large for true
  students (Eq. 2 of the paper);
* decaying cross-cohort and student–alumni ties both help (more core
  coverage) and hurt (former students and recent alumni score high,
  producing the false positives Section 5.4 dissects);
* large external friend counts dilute the candidate set by an order of
  magnitude (Table 2).

Edges are sampled block-wise (cohort × cohort) with numpy so that
HS2-scale worlds (~1.5k students, ~10k externals, ~1M edges) build in
seconds.  Attendance-window overlap scales down the probability for
transfer students and leavers, so someone who left two years ago shares
few friends with this year's freshmen — exactly the structure the paper
relies on when classifying by year.

Each sampler yields its draws as ``(src, dst)`` batches of endpoint
uids, and :meth:`FriendshipBuilder.build` hands the samplers' batches,
as they are drawn, to one
:meth:`~repro.osn.network.SocialNetwork.add_friendships` call.  That
call writes each batch into one composite key before the next is drawn
and builds the network's CSR graph from it in one pass, folding repeats
and both orientations of a pair into one edge, so the key is the only
full-size array the install holds: no endpoint array of the whole world
is ever built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.osn.network import SocialNetwork

from .accounts import AccountIndex
from .config import FriendshipConfig, WorldConfig
from .population import Person, Population, Role

#: Drawn endpoint pairs, as two uid arrays.
Batch = Tuple[np.ndarray, np.ndarray]

#: Users whose external friends go into one batch, so the external
#: sampler, which draws most of a world's pairs (~1.1M of hs2's ~1.2M),
#: never holds them all at once.
_EXTERNAL_USERS_PER_BATCH = 256


@dataclass
class _Member:
    """A school-affiliated account with its attendance window."""

    uid: int
    window_start: float
    window_end: float


def _uid_array(members: Sequence[_Member]) -> np.ndarray:
    return np.array([m.uid for m in members], dtype=np.int64)


def _attendance_window(person: Person, now: float) -> Tuple[float, float]:
    """The (start, end) years this person attended their school."""
    if person.role is Role.STUDENT:
        return now - person.tenure_years, now
    if person.role is Role.FORMER_STUDENT:
        end = now - person.left_years_ago
        return end - person.tenure_years, end
    if person.role is Role.ALUMNUS:
        assert person.cohort_year is not None
        grad = person.cohort_year + 0.45  # graduates in June
        return grad - 4.0, grad
    raise ValueError(f"{person.role} has no attendance window")


class FriendshipBuilder:
    """Samples and installs every friendship edge in a world."""

    def __init__(
        self,
        config: WorldConfig,
        population: Population,
        network: SocialNetwork,
        index: AccountIndex,
        rng: random.Random,
    ) -> None:
        self.config = config
        self.population = population
        self.network = network
        self.index = index
        self.rng = rng
        # One 64-bit draw from the caller's stream seeds the samplers.
        self.np_rng = np.random.default_rng(rng.getrandbits(64))

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def build(self) -> int:
        """Sample every edge, install them in one pass; returns the
        number installed."""
        return self.network.add_friendships(self._batches())

    def _batches(self) -> Iterator[Batch]:
        """Every sampler's batches, in draw order."""
        for school_index in range(len(self.config.schools)):
            yield from self._school_edges(school_index)
        yield from self._family_edges()
        yield from self._external_edges()

    # ------------------------------------------------------------------
    # School blocks
    # ------------------------------------------------------------------
    def _school_groups(
        self, school_index: int
    ) -> Tuple[Dict[int, List[_Member]], Dict[int, List[int]]]:
        """(current members by cohort, alumni uids by cohort) with accounts."""
        now = self.config.observation_year
        current: Dict[int, List[_Member]] = {}
        for cohort, person_ids in self.population.students_by_school.get(
            school_index, {}
        ).items():
            members = current.setdefault(cohort, [])
            for pid in person_ids:
                uid = self.index.user_for(pid)
                if uid is not None:
                    start, end = _attendance_window(self.population.person(pid), now)
                    members.append(_Member(uid, start, end))
        for pid in self.population.former_by_school.get(school_index, []):
            person = self.population.person(pid)
            uid = self.index.user_for(pid)
            if uid is not None and person.cohort_year is not None:
                start, end = _attendance_window(person, now)
                current.setdefault(person.cohort_year, []).append(
                    _Member(uid, start, end)
                )
        alumni: Dict[int, List[int]] = {}
        for cohort, person_ids in self.population.alumni_by_school.get(
            school_index, {}
        ).items():
            uids = [
                uid
                for pid in person_ids
                if (uid := self.index.user_for(pid)) is not None
            ]
            if uids:
                alumni[cohort] = uids
        return current, alumni

    def _cohort_gap_p(self, gap: int) -> float:
        cfg = self.config.friendship
        table = (
            cfg.p_same_cohort,
            cfg.p_adjacent_cohort,
            cfg.p_two_cohort_gap,
            cfg.p_three_cohort_gap,
        )
        return table[gap] if gap < len(table) else 0.0

    def _school_edges(self, school_index: int) -> Iterator[Batch]:
        current, alumni = self._school_groups(school_index)
        cfg = self.config.friendship
        cohorts = sorted(current)

        # Current x current (students + former students), window-weighted.
        for i, ya in enumerate(cohorts):
            for yb in cohorts[i:]:
                base_p = self._cohort_gap_p(abs(yb - ya))
                if base_p <= 0:
                    continue
                if ya == yb:
                    yield from self._within_block(current[ya], base_p)
                else:
                    yield from self._cross_block(current[ya], current[yb], base_p)

        # Current x alumni, decaying with graduation gap.
        alumni_cohorts = sorted(alumni)
        for y_student in cohorts:
            members = current[y_student]
            uids_a = [m.uid for m in members]
            for y_alum in alumni_cohorts:
                gap = y_student - y_alum
                if gap < 1 or gap > 6:
                    continue
                p = cfg.p_student_alumni_base * (cfg.student_alumni_decay ** (gap - 1))
                yield from self._sparse_bipartite(uids_a, alumni[y_alum], p)

        # Alumni x alumni: same and adjacent cohorts only.
        for i, ya in enumerate(alumni_cohorts):
            yield from self._sparse_within(alumni[ya], cfg.p_alumni_same_cohort)
            if i + 1 < len(alumni_cohorts) and alumni_cohorts[i + 1] == ya + 1:
                yield from self._sparse_bipartite(
                    alumni[ya], alumni[ya + 1], cfg.p_alumni_adjacent_cohort
                )

    # ------------------------------------------------------------------
    # Vectorised samplers
    # ------------------------------------------------------------------
    def _overlap_factor(
        self, members_a: Sequence[_Member], members_b: Sequence[_Member]
    ) -> np.ndarray:
        """Pairwise attendance-overlap factor in [0, 1] (a × b matrix)."""
        horizon = self.config.friendship.tenure_overlap_years
        start_a = np.array([m.window_start for m in members_a])[:, None]
        end_a = np.array([m.window_end for m in members_a])[:, None]
        start_b = np.array([m.window_start for m in members_b])[None, :]
        end_b = np.array([m.window_end for m in members_b])[None, :]
        overlap = np.minimum(end_a, end_b) - np.maximum(start_a, start_b)
        return np.clip(overlap / horizon, 0.0, 1.0)

    def _within_block(self, members: Sequence[_Member], base_p: float) -> Iterator[Batch]:
        n = len(members)
        if n < 2:
            return
        probs = base_p * self._overlap_factor(members, members)
        iu, ju = np.triu_indices(n, k=1)
        hits = self.np_rng.random(iu.shape[0]) < probs[iu, ju]
        uids = _uid_array(members)
        yield uids[iu[hits]], uids[ju[hits]]

    def _cross_block(
        self, members_a: Sequence[_Member], members_b: Sequence[_Member], base_p: float
    ) -> Iterator[Batch]:
        if not members_a or not members_b:
            return
        probs = base_p * self._overlap_factor(members_a, members_b)
        hits = self.np_rng.random(probs.shape) < probs
        ia, ib = np.nonzero(hits)
        yield _uid_array(members_a)[ia], _uid_array(members_b)[ib]

    def _sparse_bipartite(
        self, uids_a: Sequence[int], uids_b: Sequence[int], p: float
    ) -> Iterator[Batch]:
        """Sample a sparse bipartite edge set without enumerating pairs."""
        na, nb = len(uids_a), len(uids_b)
        if na == 0 or nb == 0 or p <= 0:
            return
        count = self.np_rng.binomial(na * nb, min(p, 1.0))
        if count == 0:
            return
        ia = self.np_rng.integers(0, na, size=count)
        ib = self.np_rng.integers(0, nb, size=count)
        yield np.asarray(uids_a, dtype=np.int64)[ia], np.asarray(uids_b, dtype=np.int64)[ib]

    def _sparse_within(self, uids: Sequence[int], p: float) -> Iterator[Batch]:
        """Like ``_sparse_bipartite`` within one group.  A draw of one
        member twice is no edge and is dropped: this is the one sampler
        that can pair a uid with itself (the others pair disjoint groups
        or distinct members)."""
        n = len(uids)
        if n < 2 or p <= 0:
            return
        n_pairs = n * (n - 1) // 2
        count = self.np_rng.binomial(n_pairs, min(p, 1.0))
        if count == 0:
            return
        ia = self.np_rng.integers(0, n, size=count)
        ib = self.np_rng.integers(0, n, size=count)
        keep = ia != ib
        group = np.asarray(uids, dtype=np.int64)
        yield group[ia[keep]], group[ib[keep]]

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------
    def _family_edges(self) -> Iterator[Batch]:
        p_friend = self.config.family.p_parent_friends_child
        child_uids: List[int] = []
        parent_uids: List[int] = []
        for children, parents in self.population.households.values():
            for child_pid in children:
                child_uid = self.index.user_for(child_pid)
                if child_uid is None:
                    continue
                for parent_pid in parents:
                    parent_uid = self.index.user_for(parent_pid)
                    if parent_uid is not None and self.rng.random() < p_friend:
                        child_uids.append(child_uid)
                        parent_uids.append(parent_uid)
        yield np.array(child_uids, dtype=np.int64), np.array(parent_uids, dtype=np.int64)

    # ------------------------------------------------------------------
    # External friends
    # ------------------------------------------------------------------
    def _external_pool(self) -> np.ndarray:
        uids = [
            uid
            for role in (Role.EXTERNAL, Role.CITY_ADULT)
            for pid in self.population.ids_with_role(role)
            if (uid := self.index.user_for(pid)) is not None
        ]
        return np.array(uids, dtype=np.int64)

    def _external_degree(self, median: float, sigma: float, size: int) -> np.ndarray:
        mu = math.log(max(median, 1.0))
        return np.maximum(1, self.np_rng.lognormal(mu, sigma, size).astype(int))

    def _external_edges(self) -> Iterator[Batch]:
        cfg = self.config.friendship
        pool = self._external_pool()
        if len(pool) == 0:
            return
        plans = (
            ((Role.STUDENT, Role.FORMER_STUDENT), cfg.student_external_median, cfg.student_external_sigma),
            ((Role.ALUMNUS,), cfg.alumni_external_median, cfg.alumni_external_sigma),
            ((Role.PARENT,), cfg.parent_external_median, cfg.parent_external_sigma),
        )
        for roles, median, sigma in plans:
            uids = [
                uid
                for role in roles
                for pid in self.population.ids_with_role(role)
                if (uid := self.index.user_for(pid)) is not None
            ]
            if not uids:
                continue
            degrees = self._external_degree(median, sigma, len(uids))
            sizes = np.minimum(degrees, len(pool))
            for lo in range(0, len(uids), _EXTERNAL_USERS_PER_BATCH):
                hi = lo + _EXTERNAL_USERS_PER_BATCH
                targets = [
                    self.np_rng.choice(pool, size=int(k), replace=False) for k in sizes[lo:hi]
                ]
                yield (
                    np.repeat(np.array(uids[lo:hi], dtype=np.int64), sizes[lo:hi]),
                    np.concatenate(targets),
                )
