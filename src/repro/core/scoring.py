"""Reverse lookup and candidate scoring (paper, Section 4.1 steps 4–5).

For every candidate u ∈ K the attacker computes, per class year i,

    G_i(u) = { v ∈ C_i : u ∈ F(v) }          (Eq. 1)

— *without fetching anything about u*: G_i is read off the already
crawled core friend lists ("reverse lookup").  The score is

    x(u) = max_i |G_i(u)| / |C_i|            (Eq. 2)

and the argmax year is the candidate's inferred class year.  Alternate
scoring rules (sum of fractions, raw counts) are provided for the
ablation benchmarks.

One robustness addition over the paper: a *denominator floor*.  When a
class-year core C_i is very thin (one or two users), Eq. 2 degenerates —
any single friend of that core user scores 1.0 and floods the top of
the ranking with noise.  ``denominator_floor`` (default 3) computes the
fraction as |G_i(u)| / max(|C_i|, floor); with healthy cores (the
paper's |C_i| of 4-5) it changes almost nothing, with degenerate ones
it keeps the ranking sane.  Set it to 1 for the literal Eq. 2.

A :class:`ScoreTable` holds every candidate as one row of parallel
arrays sorted by uid, built from the deduplicated (candidate, owner)
pairs of :func:`reverse_lookup_pairs`; a hs2 core yields ~18k rows, so
no Python object is built per candidate unless a caller asks for one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .coreset import CoreSet


class ScoringRule(str, enum.Enum):
    """How per-year reverse-lookup evidence folds into one score."""

    MAX_FRACTION = "max_fraction"  # the paper's x(u)
    SUM_FRACTION = "sum_fraction"  # ablation: sum_i |G_i|/|C_i|
    RAW_COUNT = "raw_count"        # ablation: total core friends


@dataclass(frozen=True)
class CandidateScore:
    """Reverse-lookup evidence for one candidate."""

    uid: int
    counts: Dict[int, int]          # year -> |G_i(u)|
    fractions: Dict[int, float]     # year -> |G_i(u)| / |C_i|
    score: float                    # x(u) under the chosen rule
    year: Optional[int]             # argmax year (None if no evidence)


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores for every candidate, rank-orderable.

    Row ``r`` describes candidate ``uids[r]``; :func:`score_candidates`
    sorts the rows by uid.
    ``counts`` and ``fractions`` have one column per class year in
    ``years``; ``year`` holds the argmax year, 0 where a candidate has
    no evidence in any year column.
    """

    rule: ScoringRule
    years: Tuple[int, ...]
    uids: np.ndarray        # int64 (n,)
    counts: np.ndarray      # int64 (n, len(years)): |G_i(u)|
    fractions: np.ndarray   # float64 (n, len(years)): |G_i(u)| / |C_i|
    score: np.ndarray       # float64 (n,): x(u) under ``rule``
    year: np.ndarray        # int64 (n,)

    def ranked(self, exclude: Optional[Set[int]] = None) -> List[int]:
        """Candidate uids from highest to lowest score.

        Ties break on higher total core-friend count, then on uid, so
        the ordering is deterministic across runs.
        """
        rows = np.arange(len(self.uids))
        if exclude:
            dropped = np.fromiter(exclude, np.int64, len(exclude))
            rows = rows[~np.isin(self.uids, dropped)]
        total = self.counts[rows].sum(axis=1)
        order = np.lexsort((self.uids[rows], -total, -self.score[rows]))
        return self.uids[rows[order]].tolist()

    @cached_property
    def _rows(self) -> Dict[int, int]:
        """uid -> row, built on the first lookup by uid."""
        return dict(zip(self.uids.tolist(), range(len(self.uids))))

    def year_of(self, uid: int) -> Optional[int]:
        row = self._rows.get(uid)
        return None if row is None else int(self.year[row]) or None

    @property
    def scores(self) -> Mapping[int, CandidateScore]:
        """uid -> :class:`CandidateScore`, each built when it is read."""
        return _Entries(self)

    def __len__(self) -> int:
        return len(self.uids)

    def __contains__(self, uid: int) -> bool:
        return uid in self._rows


class _Entries(Mapping[int, CandidateScore]):
    """A read-only view of a :class:`ScoreTable` by candidate uid."""

    def __init__(self, table: ScoreTable) -> None:
        self._table = table

    def __getitem__(self, uid: int) -> CandidateScore:
        table = self._table
        row = table._rows[uid]
        return CandidateScore(
            uid=int(table.uids[row]),
            counts=dict(zip(table.years, table.counts[row].tolist())),
            fractions=dict(zip(table.years, table.fractions[row].tolist())),
            score=float(table.score[row]),
            year=table.year_of(uid),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._table.uids.tolist())

    def __len__(self) -> int:
        return len(self._table)


def reverse_lookup_pairs(
    friend_lists: Mapping[int, Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 1's reverse lookup: each (candidate, owner) pair once.

    Returns two int64 arrays, the candidate uids and the owners'
    positions in ``friend_lists``, sorted by candidate and then owner.
    A uid listed twice in one friend list yields one pair.
    """
    sizes = [len(friends) for friends in friend_lists.values()]
    owners = len(sizes)
    if not owners:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    friends = np.fromiter(
        chain.from_iterable(friend_lists.values()), np.int64, sum(sizes)
    )
    # One int64 key per pair (uids are account ids, far below
    # 2**63 / owners); sorting and keeping each run's first key is
    # ~18x faster on hs2's 70k pairs than numpy 2.4's hashing np.unique.
    pairs = friends * owners + np.repeat(np.arange(owners, dtype=np.int64), sizes)
    pairs.sort()
    pairs = pairs[_run_starts(pairs)]
    return pairs // owners, pairs % owners


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def score_candidates(
    core: CoreSet,
    rule: ScoringRule = ScoringRule.MAX_FRACTION,
    denominator_floor: int = 3,
) -> ScoreTable:
    """Score every candidate in K against the core class sets.

    The year assignment follows the paper: the class year i with the
    highest |G_i(u)|/|C_i|, ties broken toward the year with more raw
    core friends, then the earlier year.  ``denominator_floor`` guards
    against degenerate one-member year-cores (see module docstring).
    An owner outside the four class years, or not in the core, adds a
    candidate but no evidence.
    """
    if denominator_floor < 1:
        raise ValueError("denominator_floor must be at least 1")
    years = tuple(core.years)
    by_year = core.core_by_year()
    sizes = np.array(
        [max(len(by_year[year]), denominator_floor) if by_year[year] else 0
         for year in years],
        dtype=np.float64,
    )
    column = {year: i for i, year in enumerate(years)}
    owner_column = np.array(
        [column.get(core.core.get(owner), -1) for owner in core.friend_lists],
        dtype=np.int64,
    )

    candidates, owners = reverse_lookup_pairs(core.friend_lists)
    members = np.fromiter(core.core, np.int64, len(core.core))
    keep = ~np.isin(candidates, members)
    candidates, owners = candidates[keep], owners[keep]
    starts = _run_starts(candidates)
    uids = candidates[starts]
    rows = np.cumsum(starts) - 1

    columns = owner_column[owners]
    cohort = columns >= 0
    counts = np.bincount(
        rows[cohort] * len(years) + columns[cohort],
        minlength=len(uids) * len(years),
    ).reshape(len(uids), len(years))
    fractions = np.divide(
        counts, sizes, out=np.zeros(counts.shape), where=sizes > 0
    )

    # Argmax year: a later column wins only on a higher fraction, or an
    # equal fraction with more raw core friends.
    every = np.arange(len(uids))
    best = np.zeros(len(uids), dtype=np.int64)
    for i in range(1, len(years)):
        top_fraction, top_count = fractions[every, best], counts[every, best]
        better = (fractions[:, i] > top_fraction) | (
            (fractions[:, i] == top_fraction) & (counts[:, i] > top_count)
        )
        best[better] = i
    year = np.where(counts.any(axis=1), np.array(years)[best], 0)

    if rule is ScoringRule.MAX_FRACTION:
        score = fractions[every, best]
    elif rule is ScoringRule.SUM_FRACTION:
        score = np.zeros(len(uids))
        for i in range(len(years)):  # left to right, as sum() would
            score += fractions[:, i]
    elif rule is ScoringRule.RAW_COUNT:
        score = counts.sum(axis=1).astype(np.float64)
    else:
        raise ValueError(f"unknown scoring rule: {rule}")

    return ScoreTable(
        rule=rule,
        years=years,
        uids=uids,
        counts=counts,
        fractions=fractions,
        score=score,
        year=year,
    )
