"""CSR adjacency: the friendship graph as two flat arrays.

Every world keeps its friendships here: the object ``SocialNetwork``
and the columnar ``ColumnarWorld`` hold the same structure.  The
undirected graph is stored as

* ``indptr``  — ``n + 1`` monotone offsets (int64), and
* ``indices`` — every neighbour of node ``u`` in the half-open slice
  ``indices[indptr[u]:indptr[u + 1]]``, **sorted ascending**,

which is 4–8 bytes per edge endpoint and answers the queries the
simulator and the attack pipeline issue (neighbour lists, degrees,
membership, mutual friends) with contiguous slices and binary search.
Rows being sorted is a class invariant: construction sorts,
deduplicates and drops self-loops, ``validate()`` re-checks it, and
``are_friends`` and ``mutual_friend_count`` rely on it.

A row is a user id, and an id outside the rows has no friends.  That
one rule covers every account registered after the graph was built:
attacker accounts on the object network and the session accounts a
columnar server lays over its world.

The structure is immutable: a world's friendships are installed by one
:meth:`CSRGraph.from_key` build, whose composite key
:func:`put_edges` fills, and adding a friendship means building a new
graph.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np


def index_dtype(n: int) -> "np.dtype":
    """The ``indices`` dtype for ``n`` nodes: int32 when every id fits."""
    return np.dtype(np.int32 if n <= 2**31 else np.int64)


def check_endpoints(src: np.ndarray, dst: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``src`` and ``dst`` are one-dimensional
    and of one length: numpy would broadcast a mismatched pair into edges
    that were never given."""
    if src.ndim != 1 or src.shape != dst.shape:
        raise ValueError(
            f"endpoints must be two 1-D arrays of one length, not shapes "
            f"{src.shape} and {dst.shape}"
        )


def put_edges(key: np.ndarray, at: int, n: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Write edges ``src[i]``-``dst[i]`` into ``key`` from ``at``, in both
    orientations, as the composite key ``row * n + col``.

    ``src`` and ``dst`` pass :func:`check_endpoints`.  A key too short
    for the batch grows in place to 9/8 of what it needs, so a key filled
    batch by batch is resized only a logarithmic number of times; it must
    own its buffer, and no view of it may be alive.  Returns where the
    written keys end.  The order the keys go in does not matter:
    :meth:`CSRGraph.from_key` sorts them.
    """
    m = src.shape[0]
    end = at + 2 * m
    if end > key.shape[0]:
        key.resize(end + end // 8, refcheck=False)
    forward = key[at:at + m]
    np.multiply(src, n, out=forward, dtype=np.int64)
    forward += dst
    backward = key[at + m:end]
    np.multiply(dst, n, out=backward, dtype=np.int64)
    backward += src
    return end


#: Keys :func:`_narrow_in_place` reads per step: 8,192 (64 KiB).  A
#: block's temporaries (mask, ids, rows, and counts for the ~340 rows a
#: city block spans) then stay below glibc's default 128 KiB mmap
#: threshold and reuse the heap pages the last block freed; 65,536-key
#: blocks map and fault in their 512 KiB temporaries afresh (82k page
#: faults on the city), which costs the pass all it saves.
_NARROW_BLOCK = 1 << 13


def _narrow_in_place(key: np.ndarray, n: int, dtype) -> np.ndarray:
    """Deduplicate the sorted ``key`` into its own buffer, as ``dtype`` ids,
    and return ``indptr``.

    Drops repeats and self-loops, splits each kept key into its row and
    id with one floor division, writes the ids to the front of the
    buffer and counts each row's ids into the ``n + 1`` array whose
    running sum is ``indptr``.

    Blocks go in ascending order; each block's ids are copied out before
    anything is written, and its last key is kept to test the next
    block's first.  The ids written so far end at or before the byte
    where the next block starts, because an id is never wider than a
    key, so no key is overwritten unread.
    """
    out = key.view(dtype)
    indptr = np.zeros(n + 1, dtype=np.int64)
    size = 0
    last = -1  # below every key
    for lo in range(0, key.shape[0], _NARROW_BLOCK):
        block = key[lo:lo + _NARROW_BLOCK]
        fresh = np.empty(block.shape[0], dtype=bool)
        fresh[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=fresh[1:])
        last = block[-1]
        ids = block[fresh]
        rows = ids // n
        ids -= rows * n
        keep = ids != rows
        if not keep.all():
            ids, rows = ids[keep], rows[keep]
        if ids.shape[0]:
            # Rows are sorted: the counts span rows[0]..rows[-1] exactly.
            indptr[rows[0] + 1:rows[-1] + 2] += np.bincount(rows - rows[0])
            out[size:size + ids.shape[0]] = ids
            size += ids.shape[0]
    np.cumsum(indptr, out=indptr)
    return indptr


class CSRGraph:
    """An immutable undirected graph with a row for each id ``0..n-1``.

    Any other id is a node without friends.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "CSRGraph":
        """Build from undirected edge pairs (either orientation, dups ok).

        Pure-python path: fine up to paper scale, and the reference the
        vectorised :func:`put_edges` + :meth:`from_key` build is tested
        against.  An id outside ``0..n-1`` raises ``ValueError``.
        """
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for a, b in edges:
            for v in (a, b):
                if not 0 <= v < n:
                    raise ValueError(f"node id {v} outside 0..{n - 1}")
            if a == b:
                continue
            adjacency[a].append(b)
            adjacency[b].append(a)
        return cls.from_sorted_rows(
            sorted(set(row)) for row in adjacency
        )

    @classmethod
    def from_sorted_rows(cls, rows: Iterable[Sequence[int]]) -> "CSRGraph":
        """Build from per-node neighbour lists already sorted ascending."""
        counts: List[int] = []
        flat: List[int] = []
        for row in rows:
            counts.append(len(row))
            flat.extend(row)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=indptr[1:])
        return cls(indptr, np.asarray(flat, dtype=np.int64))

    @classmethod
    def from_key(cls, n: int, key: np.ndarray) -> "CSRGraph":
        """Build from a composite key holding both orientations of every edge.

        ``key`` is an int64 array that owns its buffer, filled by
        :func:`put_edges`; repeats and self-loops are fine and dropped,
        as :meth:`from_edges` drops them.  The build consumes it: the
        key is sorted in place, and one :func:`_narrow_in_place` pass
        writes the deduplicated neighbour ids, narrowed to
        :func:`index_dtype`, to the front of the key's own buffer and
        counts them per row into ``indptr``.  The buffer then shrinks to
        the ids and becomes ``indices``.  Besides the key, only
        ``indptr`` and block-sized temporaries are ever alive: no array
        as long as the key.
        """
        key.sort()
        dtype = index_dtype(n)
        indptr = _narrow_in_place(key, n, dtype)
        size = int(indptr[-1])
        # Shrink to the ids, rounded up to whole keys.  No view of the
        # buffer is alive here, so no view is left on freed memory.
        key.resize(-(-size * dtype.itemsize // key.itemsize), refcheck=False)
        return cls(indptr, key.view(dtype)[:size])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.indptr) - 1

    def _span(self, user_id: int) -> Tuple[int, int]:
        """The ``indices`` range of ``user_id``'s row; empty outside the rows."""
        if 0 <= user_id < len(self.indptr) - 1:
            return int(self.indptr[user_id]), int(self.indptr[user_id + 1])
        return 0, 0

    def degree(self, user_id: int) -> int:
        lo, hi = self._span(user_id)
        return hi - lo

    def neighbors_list(self, user_id: int) -> List[int]:
        """Neighbours sorted ascending (the row is stored that way)."""
        lo, hi = self._span(user_id)
        return self.indices[lo:hi].tolist()

    def neighbors_slice(self, user_id: int, start: int, stop: int) -> List[int]:
        """``neighbors_list(user_id)[start:stop]``, listing only the slice.

        A 1-D array slice follows a list slice's rules for any bounds
        (negative, past the end, empty), so the two agree everywhere.
        """
        lo, hi = self._span(user_id)
        return self.indices[lo:hi][start:stop].tolist()

    def neighbors(self, user_id: int) -> Set[int]:
        return set(self.neighbors_list(user_id))

    def are_friends(self, a: int, b: int) -> bool:
        lo, hi = self._span(a)
        if lo == hi:
            return False
        pos = lo + int(self.indices[lo:hi].searchsorted(b))
        return pos < hi and int(self.indices[pos]) == b

    def mutual_friend_count(self, a: int, b: int) -> int:
        """Size of the intersection of two sorted rows.

        Each of ``a``'s friends is looked up in ``b``'s row by one
        vectorised binary search; rows hold no duplicates, so every hit
        is one mutual friend.
        """
        lo_a, hi_a = self._span(a)
        if lo_a == hi_a:
            return 0
        lo_b, hi_b = self._span(b)
        if lo_b == hi_b:
            return 0
        row_a = self.indices[lo_a:hi_a]
        row_b = self.indices[lo_b:hi_b]
        pos = row_b.searchsorted(row_a)
        np.minimum(pos, hi_b - lo_b - 1, out=pos)
        return int(np.count_nonzero(row_b[pos] == row_a))

    def mutual_friends(self, a: int, b: int) -> Set[int]:
        return self.neighbors(a) & self.neighbors(b)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def mean_degree(self) -> float:
        n = len(self)
        return (len(self.indices) / n) if n else 0.0

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge once, as (low id, high id)."""
        for u in range(len(self)):
            for v in self.neighbors_list(u):
                if u < v:
                    yield (u, v)

    def subgraph_degree(self, user_id: int, within: Set[int]) -> int:
        return sum(1 for f in self.neighbors_list(user_id) if f in within)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the class invariants; raises ``ValueError`` on breakage.

        Sorted rows, no self-loops, no duplicates, symmetric adjacency,
        and an ``indptr`` that is monotone and spans ``indices`` exactly.
        O(E log d) — meant for tests and post-build checks, not hot paths.
        """
        n = len(self)
        if int(self.indptr[0]) != 0 or int(self.indptr[n]) != len(self.indices):
            raise ValueError("indptr does not span indices")
        for u in range(n):
            lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
            if lo > hi:
                raise ValueError(f"indptr not monotone at node {u}")
            prev = -1
            for i in range(lo, hi):
                v = int(self.indices[i])
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if v <= prev:
                    raise ValueError(f"row {u} not sorted/deduplicated")
                if not 0 <= v < n:
                    raise ValueError(f"row {u} references out-of-range node {v}")
                prev = v
        for u in range(n):
            for v in self.neighbors_list(u):
                if not self.are_friends(v, u):
                    raise ValueError(f"asymmetric edge {u}->{v}")
