"""Tests for reverse lookup and the x(u) scoring rule (Eqs. 1-2).

The dict-of-sets implementation that the array :class:`ScoreTable`
replaced is kept here as the reference (``reference_*``).  The property
tests require the table to match it exactly: the same floats, the same
ranking and the same Python types.
"""

import gc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coreset import CoreSet
from repro.core.scoring import (
    ScoreTable,
    ScoringRule,
    reverse_lookup_pairs,
    score_candidates,
)


# ----------------------------------------------------------------------
# Reference: one dict entry per candidate, as scoring worked before the
# table held arrays.
# ----------------------------------------------------------------------
@dataclass
class ReferenceScore:
    uid: int
    counts: Dict[int, int]
    fractions: Dict[int, float]
    score: float
    year: Optional[int]


@dataclass
class ReferenceTable:
    scores: Dict[int, ReferenceScore] = field(default_factory=dict)
    rule: ScoringRule = ScoringRule.MAX_FRACTION

    def ranked(self, exclude: Optional[Set[int]] = None) -> List[int]:
        exclude = exclude or set()
        return sorted(
            (uid for uid in self.scores if uid not in exclude),
            key=lambda uid: (
                -self.scores[uid].score,
                -sum(self.scores[uid].counts.values()),
                uid,
            ),
        )

    def year_of(self, uid: int) -> Optional[int]:
        entry = self.scores.get(uid)
        return entry.year if entry else None

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, uid: int) -> bool:
        return uid in self.scores


def reference_reverse_lookup_index(
    friend_lists: Mapping[int, Sequence[int]]
) -> Dict[int, Set[int]]:
    """candidate uid -> set of core owners whose lists contain it."""
    index: Dict[int, Set[int]] = {}
    for owner, friends in friend_lists.items():
        for friend in friends:
            index.setdefault(friend, set()).add(owner)
    return index


def _reference_fold(
    rule: ScoringRule, fractions: Dict[int, float], counts: Dict[int, int]
) -> float:
    if rule is ScoringRule.MAX_FRACTION:
        return max(fractions.values(), default=0.0)
    if rule is ScoringRule.SUM_FRACTION:
        return sum(fractions.values())
    return float(sum(counts.values()))


def _reference_argmax_year(
    fractions: Dict[int, float], counts: Dict[int, int]
) -> Optional[int]:
    if not any(counts.values()):
        return None
    return max(fractions, key=lambda y: (fractions[y], counts[y], -y))


def reference_score_candidates(
    core: CoreSet,
    rule: ScoringRule = ScoringRule.MAX_FRACTION,
    denominator_floor: int = 3,
) -> ReferenceTable:
    by_year = core.core_by_year()
    sizes = {
        year: max(len(uids), denominator_floor) if uids else 0
        for year, uids in by_year.items()
    }
    owner_year = dict(core.core)
    index = reference_reverse_lookup_index(core.friend_lists)
    table = ReferenceTable(rule=rule)
    for uid, owners in index.items():
        if uid in core.core:
            continue
        counts: Dict[int, int] = {year: 0 for year in core.years}
        for owner in owners:
            year = owner_year.get(owner)
            if year in counts:
                counts[year] += 1
        fractions = {
            year: (counts[year] / sizes[year]) if sizes.get(year) else 0.0
            for year in core.years
        }
        table.scores[uid] = ReferenceScore(
            uid=uid,
            counts=counts,
            fractions=fractions,
            score=_reference_fold(rule, fractions, counts),
            year=_reference_argmax_year(fractions, counts),
        )
    return table


def assert_same_table(table, reference, exclude: Set[int]) -> None:
    """Everything a caller can read off ``table`` equals the reference.

    ``repr`` comparisons also require Python ints, not numpy scalars:
    ``bench/`` digests ``repr(ranking)``.
    """
    assert repr(table.ranked(exclude)) == repr(reference.ranked(exclude))
    assert repr(table.ranked()) == repr(reference.ranked())
    assert len(table) == len(reference)
    for uid in range(-1, 42):  # every uid cores_strategy draws, and two more
        assert (uid in table) == (uid in reference)
        assert repr(table.year_of(uid)) == repr(reference.year_of(uid))
    assert list(table.scores) == sorted(reference.scores)
    for uid, want in reference.scores.items():
        got = table.scores[uid]
        assert repr((got.uid, got.counts, got.fractions, got.score, got.year)) == repr(
            (want.uid, want.counts, want.fractions, want.score, want.year)
        )


#: owner uid -> (class-year offset from 2012, friend list).  Offsets -1
#: and 4 fall outside the four cohorts; owner and friend uids overlap,
#: so core members appear in other core lists.
cores_strategy = st.dictionaries(
    keys=st.integers(0, 30),
    values=st.tuples(st.integers(-1, 4), st.lists(st.integers(0, 40), max_size=12)),
    max_size=8,
)


def build_core(owners) -> CoreSet:
    core = CoreSet(school_id=1, current_year=2012)
    for uid, (offset, friends) in owners.items():
        core.add_core(uid, 2012 + offset, friends)
    return core


def make_core():
    """Core with |C_2012|=2, |C_2013|=1."""
    core = CoreSet(school_id=1, current_year=2012)
    core.add_core(10, 2012, [100, 101, 102])
    core.add_core(11, 2012, [100, 103])
    core.add_core(12, 2013, [100, 104])
    return core


class TestReverseLookupIndex:
    """The shared (candidate, owner) pair primitive against the
    dict-of-sets index it replaced."""

    @staticmethod
    def index_from_pairs(friend_lists):
        owners = list(friend_lists)
        candidates, positions = reverse_lookup_pairs(friend_lists)
        index: Dict[int, Set[int]] = {}
        for uid, position in zip(candidates.tolist(), positions.tolist()):
            index.setdefault(uid, set()).add(owners[position])
        return index

    def test_maps_candidates_to_owners(self):
        friend_lists = {1: [7, 8], 2: [8]}
        assert reference_reverse_lookup_index(friend_lists) == {7: {1}, 8: {1, 2}}
        assert self.index_from_pairs(friend_lists) == {7: {1}, 8: {1, 2}}

    def test_empty(self):
        assert reference_reverse_lookup_index({}) == {}
        assert self.index_from_pairs({}) == {}
        assert self.index_from_pairs({1: []}) == {}

    @given(st.dictionaries(st.integers(0, 9), st.lists(st.integers(0, 30), max_size=15)))
    @example({1: [7, 7, 8], 2: [8, 1]})
    @settings(max_examples=100)
    def test_each_pair_once_in_order(self, friend_lists):
        candidates, positions = reverse_lookup_pairs(friend_lists)
        pairs = list(zip(candidates.tolist(), positions.tolist()))
        assert pairs == sorted(set(pairs))
        assert self.index_from_pairs(friend_lists) == reference_reverse_lookup_index(
            friend_lists
        )


class TestMaxFractionScoring:
    def test_equation_two(self):
        table = score_candidates(make_core(), denominator_floor=1)
        # candidate 100: 2/2 in 2012, 1/1 in 2013 -> max = 1.0
        assert table.scores[100].score == pytest.approx(1.0)
        # candidate 101: 1/2 in 2012 -> 0.5
        assert table.scores[101].score == pytest.approx(0.5)
        # candidate 104: 1/1 in 2013 -> 1.0
        assert table.scores[104].score == pytest.approx(1.0)

    def test_counts_recorded_per_year(self):
        table = score_candidates(make_core(), denominator_floor=1)
        assert table.scores[100].counts == {2012: 2, 2013: 1, 2014: 0, 2015: 0}

    def test_year_assignment_argmax(self):
        table = score_candidates(make_core())
        assert table.scores[101].year == 2012
        assert table.scores[104].year == 2013

    def test_year_tie_breaks_on_raw_count(self):
        # candidate 100 ties at 1.0 for 2012 (2/2) and 2013 (1/1);
        # 2012 has more raw core friends, so it wins.
        table = score_candidates(make_core())
        assert table.scores[100].year == 2012

    def test_core_members_not_scored(self):
        core = make_core()
        core.add_core(13, 2013, [10])  # core user 10 appears in a list
        table = score_candidates(core)
        assert 10 not in table

    def test_scores_bounded(self):
        table = score_candidates(make_core())
        for entry in table.scores.values():
            assert 0.0 <= entry.score <= 1.0


class TestAlternateRules:
    def test_sum_fraction(self):
        table = score_candidates(
            make_core(), ScoringRule.SUM_FRACTION, denominator_floor=1
        )
        assert table.scores[100].score == pytest.approx(2.0)  # 1.0 + 1.0

    def test_raw_count(self):
        table = score_candidates(make_core(), ScoringRule.RAW_COUNT)
        assert table.scores[100].score == pytest.approx(3.0)


class TestRanking:
    def test_descending_by_score(self):
        table = score_candidates(make_core())
        ranked = table.ranked()
        scores = [table.scores[uid].score for uid in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_exclusion(self):
        table = score_candidates(make_core())
        ranked = table.ranked(exclude={100, 104})
        assert 100 not in ranked and 104 not in ranked

    def test_tie_break_deterministic(self):
        table = score_candidates(make_core())
        assert table.ranked() == table.ranked()

    def test_equal_score_prefers_more_core_friends(self):
        # 100 (3 core friends) and 104 (1 core friend) both score 1.0.
        table = score_candidates(make_core())
        ranked = table.ranked()
        assert ranked.index(100) < ranked.index(104)

    def test_full_tie_breaks_on_uid_not_row_order(self):
        # Equal score and total: the uid decides, even when the rows
        # are not in uid order (as score_candidates leaves them).
        table = ScoreTable(
            rule=ScoringRule.MAX_FRACTION,
            years=(2012,),
            uids=np.array([101, 100]),
            counts=np.array([[1], [1]]),
            fractions=np.array([[0.5], [0.5]]),
            score=np.array([0.5, 0.5]),
            year=np.array([2012, 2012]),
        )
        assert table.ranked() == [100, 101]


class TestDenominatorFloor:
    def test_floor_caps_thin_year_scores(self):
        # |C_2013| = 1: with the default floor of 3, one hit scores 1/3.
        table = score_candidates(make_core())
        assert table.scores[104].score == pytest.approx(1.0 / 3.0)

    def test_floor_irrelevant_for_healthy_cores(self):
        core = CoreSet(school_id=1, current_year=2012)
        for i in range(5):
            core.add_core(10 + i, 2012, [100, 101 + i])
        literal = score_candidates(core, denominator_floor=1)
        floored = score_candidates(core, denominator_floor=3)
        for uid in literal.scores:
            assert literal.scores[uid].score == pytest.approx(
                floored.scores[uid].score
            )

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            score_candidates(make_core(), denominator_floor=0)

    def test_empty_year_still_scores_zero(self):
        table = score_candidates(make_core())
        assert all(
            entry.fractions[2014] == 0.0 and entry.fractions[2015] == 0.0
            for entry in table.scores.values()
        )


friend_lists_strategy = st.dictionaries(
    keys=st.integers(0, 9),
    values=st.lists(st.integers(100, 160), max_size=15),
    max_size=8,
)


class TestScoringProperties:
    @given(friend_lists_strategy, st.sampled_from(list(ScoringRule)))
    @settings(max_examples=60)
    def test_scores_non_negative_and_bounded(self, friend_lists, rule):
        core = CoreSet(school_id=1, current_year=2012)
        for i, (uid, friends) in enumerate(friend_lists.items()):
            core.add_core(uid, 2012 + (i % 4), friends)
        table = score_candidates(core, rule)
        for entry in table.scores.values():
            assert entry.score >= 0.0
            if rule is ScoringRule.MAX_FRACTION:
                assert entry.score <= 1.0
            total = sum(entry.counts.values())
            assert total >= 1
            if entry.year is not None:
                assert entry.year in core.years

    @given(friend_lists_strategy)
    @settings(max_examples=60)
    def test_every_candidate_scored(self, friend_lists):
        core = CoreSet(school_id=1, current_year=2012)
        for i, (uid, friends) in enumerate(friend_lists.items()):
            core.add_core(uid, 2012 + (i % 4), friends)
        table = score_candidates(core)
        assert set(table.scores) == core.candidate_set()

    @given(
        cores_strategy,
        st.sampled_from(list(ScoringRule)),
        st.integers(1, 5),
        st.sets(st.integers(0, 40), max_size=10),
    )
    # One hit in each of 2013-2015 with |C_i| = 1, 1, 3: the fractions
    # 0 + 1 + 1 + 1/3 sum to a different float in any other order.
    @example({10: (0, []), 11: (1, [100]), 12: (2, [100]), 13: (3, [100]),
              14: (3, []), 15: (3, [])}, ScoringRule.SUM_FRACTION, 1, set())
    # A uid listed twice in one list, a core member in another core
    # list, and an owner outside the four cohorts.
    @example({10: (0, [100, 100, 11]), 11: (1, [100, 101]), 12: (-1, [100, 102])},
             ScoringRule.RAW_COUNT, 1, set())
    # Equal scores and totals: only the uid orders 100 before 101.
    @example({10: (0, [101, 100])}, ScoringRule.MAX_FRACTION, 3, set())
    @example({}, ScoringRule.MAX_FRACTION, 3, set())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, owners, rule, floor, exclude):
        core = build_core(owners)
        assert_same_table(
            score_candidates(core, rule, floor),
            reference_score_candidates(core, rule, floor),
            exclude,
        )


class TestNoObjectPerCandidate:
    def test_scoring_allocates_no_object_per_candidate(self):
        # 160 owners x 400 friends, ~19k distinct candidates.
        rng = random.Random(0)
        core = CoreSet(school_id=1, current_year=2012)
        for owner in range(160):
            core.add_core(owner, 2012 + owner % 4, rng.sample(range(10_000, 30_000), 400))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            table = score_candidates(core)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(table) > 18_000
        assert added < 100
