"""Undirected friendship graph.

A thin, fast adjacency structure (dict of sets) with the handful of
queries the simulator and the attack need: neighbourhoods, mutual
friends, and degree statistics.  We deliberately avoid networkx here —
the hot loops (reverse lookup over tens of thousands of candidates) want
plain set operations.  It is the object world's only adjacency store:
accounts keep no copy of their friend set.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple, Union

import numpy as np


class FriendGraph:
    """An undirected graph over integer user ids."""

    def __init__(self) -> None:
        self._adj: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, user_id: int) -> None:
        self._adj.setdefault(user_id, set())

    def add_edge(self, a: int, b: int) -> bool:
        """Add a friendship; returns ``False`` if it already existed.

        Self-friendships are rejected: no OSN allows them and they would
        corrupt mutual-friend counts.
        """
        if a == b:
            raise ValueError(f"self-friendship not allowed: {a}")
        neighbours_a = self._adj.setdefault(a, set())
        if b in neighbours_a:
            return False
        neighbours_a.add(b)
        self._adj.setdefault(b, set()).add(a)
        return True

    def remove_edge(self, a: int, b: int) -> bool:
        """Remove a friendship; returns ``False`` if it did not exist."""
        if a not in self._adj or b not in self._adj[a]:
            return False
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        return True

    def remove_node(self, user_id: int) -> None:
        """Remove a user and all incident friendships."""
        for other in self._adj.pop(user_id, set()):
            self._adj[other].discard(user_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, user_id: int) -> bool:
        return user_id in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> Iterator[int]:
        return iter(self._adj)

    def neighbors(self, user_id: int) -> Set[int]:
        """The friend set of ``user_id`` (a *copy-free view*; do not mutate)."""
        return self._adj.get(user_id, frozenset())  # type: ignore[return-value]

    def degree(self, user_id: int) -> int:
        return len(self._adj.get(user_id, ()))

    def are_friends(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def mutual_friends(self, a: int, b: int) -> Set[int]:
        return set(self._adj.get(a, set())) & self._adj.get(b, set())

    def mutual_friend_count(self, a: int, b: int) -> int:
        fa = self._adj.get(a, set())
        fb = self._adj.get(b, set())
        if len(fb) < len(fa):
            fa, fb = fb, fa
        return sum(1 for f in fa if f in fb)

    def has_mutual_friend(self, a: int, b: int) -> bool:
        fa = self._adj.get(a, set())
        fb = self._adj.get(b, set())
        if len(fb) < len(fa):
            fa, fb = fb, fa
        return any(f in fb for f in fa)

    def edge_count(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge exactly once, as (low id, high id)."""
        for a, neighbours in self._adj.items():
            for b in neighbours:
                if a < b:
                    yield (a, b)

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping degree -> number of nodes with that degree."""
        hist: Dict[int, int] = {}
        for neighbours in self._adj.values():
            d = len(neighbours)
            hist[d] = hist.get(d, 0) + 1
        return hist

    def mean_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self.edge_count() / len(self._adj)

    def subgraph_degree(self, user_id: int, within: Set[int]) -> int:
        """How many of ``user_id``'s friends fall inside ``within``."""
        return sum(1 for f in self._adj.get(user_id, ()) if f in within)

    def bulk_add_edges(
        self, edges: Union[Iterable[Tuple[int, int]], np.ndarray]
    ) -> int:
        """Add many edges; returns how many were new.

        ``edges`` holds ``(a, b)`` pairs, as an iterable or an ``(n, 2)``
        integer array, in either orientation and possibly repeated.  A
        self-pair raises :class:`ValueError` before any edge is added.

        The result equals an ``add_edge`` loop over the pairs, built in
        one pass: both orientations are grouped by endpoint with one
        stable argsort, and each endpoint's set grows by one
        ``set.update``.  Neighbour entries reuse the int object that
        already keys each node, so a million edges allocate no new ints.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise ValueError(f"self-friendship not allowed: {pairs[loops[0], 0]}")
        if not len(pairs):
            return 0
        # ends[i] and ends[i ± m] are the two ends of one pair.
        m = len(pairs)
        ends = np.concatenate((pairs[:, 0], pairs[:, 1]))
        order = np.argsort(ends, kind="stable")
        grouped = ends[order]
        first = np.concatenate(([True], grouped[1:] != grouped[:-1]))
        starts = np.flatnonzero(first)
        node_of = np.empty_like(order)
        node_of[order] = np.cumsum(first) - 1
        partner = np.concatenate((node_of[m:], node_of[:m]))[order]
        existing = {uid: uid for uid in self._adj}
        objects = np.array(
            [existing.get(uid, uid) for uid in grouped[starts].tolist()], dtype=object
        )
        neighbours = objects[partner].tolist()
        bounds = starts.tolist() + [len(neighbours)]
        added = 0
        for uid, lo, hi in zip(objects.tolist(), bounds, bounds[1:]):
            friends = self._adj.setdefault(uid, set())
            before = len(friends)
            friends.update(neighbours[lo:hi])
            added += len(friends) - before
        # Each new edge adds one entry to each endpoint's set.
        return added // 2

    def neighbors_list(self, user_id: int) -> List[int]:
        """Friends in a deterministic (sorted) order, for stable pagination."""
        return sorted(self._adj.get(user_id, ()))
