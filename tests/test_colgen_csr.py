"""CSR adjacency: construction paths, queries and invariants."""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colgen import CSRGraph
from repro.colgen.csr import (
    _NARROW_BLOCK,
    _narrow_in_place,
    check_endpoints,
    index_dtype,
    put_edges,
)

#: A small fixed graph: 0-1, 0-2, 1-2, 2-3, 4 isolated.
_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3)]
_N = 5
#: Ids with no row in that graph: below 0 and at or past ``_N``.
_OUTSIDE = (-1, _N, _N + 7)


@pytest.fixture
def graph():
    return CSRGraph.from_edges(_N, _EDGES)


class TestConstruction:
    def test_from_edges_round_trips(self, graph):
        # Each edge exactly once, as (low id, high id), in row order.
        assert list(graph.edges()) == _EDGES

    def test_rows_are_sorted_and_symmetric(self, graph):
        graph.validate()
        assert graph.neighbors_list(0) == [1, 2]
        assert graph.neighbors_list(2) == [0, 1, 3]
        assert graph.neighbors_list(4) == []

    def test_duplicate_and_self_edges_are_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
        g.validate()
        assert g.edge_count() == 1
        assert g.neighbors_list(2) == []

    def test_from_sorted_rows_matches_from_edges(self, graph):
        rebuilt = CSRGraph.from_sorted_rows(
            graph.neighbors_list(u) for u in range(_N)
        )
        assert rebuilt.neighbors_list(2) == graph.neighbors_list(2)
        assert rebuilt.edge_count() == graph.edge_count()

    def test_from_key_dedups_and_sorts(self):
        # both orientations of 0-1 (twice), 1-2, 2-3, plus a self loop
        src = np.array([0, 1, 0, 1, 1, 2, 2, 3, 0], dtype=np.int64)
        dst = np.array([1, 0, 1, 0, 2, 1, 3, 2, 0], dtype=np.int64)
        g = from_endpoints(4, src, dst)
        g.validate()
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def from_endpoints(n, src, dst):
    """The vectorised build every world runs: fill a composite key with
    :func:`put_edges`, self-pairs and all, and build it with ``from_key``."""
    key = np.empty(2 * src.shape[0], dtype=np.int64)
    put_edges(key, 0, n, src, dst)
    return CSRGraph.from_key(n, key)


def directed(n, pairs, dtype="int64"):
    ends = np.array(pairs, dtype=dtype).reshape(-1, 2)
    return from_endpoints(n, ends[:, 0], ends[:, 1])


class TestDirectedArraysMatchFromEdges:
    """``from_edges`` is the pure-Python reference for the vectorised build."""

    @given(
        edges=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60),
        loops=st.lists(st.integers(0, 20), max_size=4),
        tail=st.integers(0, 3),
        dtype=st.sampled_from(["int32", "int64"]),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_same_graph(self, edges, loops, tail, dtype, data):
        # Repeats, both orientations and self-loops; the ``tail`` nodes
        # past the largest id stay isolated.
        pairs = data.draw(
            st.permutations(edges + [(b, a) for a, b in edges[::2]] + [(v, v) for v in loops])
        )
        n = max((max(p) for p in pairs), default=0) + 1 + tail
        built = directed(n, pairs, dtype)
        reference = CSRGraph.from_edges(n, pairs)
        assert built.indptr.tolist() == list(reference.indptr)
        assert built.indices.tolist() == list(reference.indices)
        assert built.indptr.dtype == np.int64
        assert built.indices.dtype == np.int32
        built.validate()

    @pytest.mark.parametrize(
        "n, pairs",
        [(4, []), (0, []), (3, [(0, 0), (2, 2), (2, 2)]), (1, []), (1, [(0, 0)])],
        ids=["no-edges", "no-nodes", "only-self-loops", "one-node", "one-node-loop"],
    )
    def test_edgeless_graphs(self, n, pairs):
        g = directed(n, pairs)
        assert g.indptr.tolist() == [0] * (n + 1)
        assert g.indices.tolist() == []
        assert g.indptr.dtype == np.int64
        assert g.indices.dtype == np.int32
        g.validate()

    @pytest.mark.parametrize("bad", [-1, 3, 7], ids=["negative", "n", "past-n"])
    def test_ids_outside_the_rows_raise(self, bad):
        # Either end, and a self-loop too: an id with no row is no node.
        for pairs in ([(0, bad)], [(bad, 1)], [(bad, bad)]):
            with pytest.raises(ValueError, match=f"node id {bad} outside 0..2"):
                CSRGraph.from_edges(3, pairs)

    @pytest.mark.parametrize(
        "src, dst",
        [([0, 1], [2]), ([0], [1, 2]), ([[0, 1]], [[1, 2]]), (0, 1)],
        ids=["short-dst", "short-src", "two-dimensional", "scalars"],
    )
    def test_mismatched_endpoints_raise(self, src, dst):
        # The check every caller of ``put_edges`` runs on its batches.
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            check_endpoints(np.asarray(src), np.asarray(dst))

    def test_index_dtype_is_the_narrowest_that_holds_every_id(self):
        assert index_dtype(1) == np.int32
        assert index_dtype(2**31) == np.int32  # largest id 2**31 - 1
        assert index_dtype(2**31 + 1) == np.int64


class TestNarrowingBlocks:
    """``from_key`` narrows the sorted key into its own buffer
    ``_NARROW_BLOCK`` keys at a time; where the blocks fall must not
    matter, nor a block with nothing to write."""

    @staticmethod
    def check(n, pairs):
        built = from_endpoints(n, pairs[:, 0], pairs[:, 1])
        reference = CSRGraph.from_edges(n, pairs.tolist())
        assert built.indptr.tolist() == list(reference.indptr)
        assert built.indices.tolist() == list(reference.indices)
        assert built.indices.dtype == index_dtype(n)
        assert built.indices.flags.c_contiguous
        built.validate()

    def test_duplicate_runs_straddle_block_edges(self):
        # 4,000 distinct edges, each given three times in random
        # orientations: every key is a run of three mixing both
        # orientations, and the 24,000 keys fill three blocks whose
        # inner edges (8,192 = 3k + 2, 16,384 = 3k + 1) each cut a run.
        rng = np.random.default_rng(28)
        n = 2_000
        pairs = np.unique(np.sort(rng.integers(0, n, (6_000, 2)), axis=1), axis=0)
        pairs = rng.permutation(pairs[pairs[:, 0] != pairs[:, 1]])[:4_000]
        copies = rng.permutation(np.repeat(pairs, 3, axis=0))
        flip = rng.random(len(copies)) < 0.5
        copies[flip] = copies[flip][:, ::-1]
        keys = np.sort(np.concatenate((copies @ [n, 1], copies @ [1, n])))
        block_edges = range(_NARROW_BLOCK, len(keys), _NARROW_BLOCK)
        assert len(block_edges) == 2
        assert all(keys[edge - 1] == keys[edge] for edge in block_edges)
        self.check(n, copies)

    def test_all_duplicates(self):
        # One edge, 70,000 times a way: 140,000 keys in 18 blocks, all
        # but the first of which hold only repeats.
        self.check(10, np.tile([[3, 7], [7, 3]], (35_000, 1)))

    def test_empty(self):
        self.check(4, np.empty((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_ids_as_wide_as_the_key(self, dtype):
        # int64 ids (more than 2**31 rows) overwrite the key at the very
        # offset they read, which no buildable test graph reaches.  The
        # pass finds the repeats and self-loops and counts the rows itself.
        rng = np.random.default_rng(64)
        n = 1_000
        key = np.sort(rng.integers(0, n * n, 3 * _NARROW_BLOCK))
        distinct = np.unique(key)
        assert len(distinct) < len(key)
        loops = distinct % (n + 1) == 0
        assert loops.any()
        distinct = distinct[~loops]
        indptr = _narrow_in_place(key, n, np.dtype(dtype))
        size = indptr[-1]
        assert key.view(dtype)[:size].tolist() == (distinct % n).tolist()
        assert indptr.tolist() == np.searchsorted(distinct, np.arange(n + 1) * n).tolist()

    def test_indptr_counts_the_rows(self):
        # Loop-free keys with repeats on 1,000 rows, none of them in rows
        # 0-9, 400-449 or 990-999: empty rows at the start, in the middle
        # and at the end, past the last key.
        rng = np.random.default_rng(33)
        n = 1_000
        rows = rng.integers(10, 990, 5 * _NARROW_BLOCK)
        rows = rows[(rows < 400) | (rows >= 450)]
        cols = rng.integers(0, n - 1, rows.shape[0])
        cols[cols >= rows] += 1
        key = np.sort(rows * n + cols)
        expected = np.searchsorted(np.unique(key), np.arange(n + 1) * n)
        indptr = _narrow_in_place(key, n, index_dtype(n))
        assert indptr.dtype == np.int64
        assert indptr.tolist() == expected.tolist()
        assert (np.diff(indptr)[[0, 9, 400, 449, 990, 999]] == 0).all()

    def test_self_loops_at_the_ends_and_across_a_block_edge(self):
        # put_edges keys with a self-loop at the first sorted key (0-0)
        # and at the last (49-49), and a run of 20 repeated self-loop
        # keys (10-10) across the first block edge, then 10 repeats of
        # 10-11: ``from_key`` builds ``from_edges``' graph.
        n = 50
        filler = (_NARROW_BLOCK - 12) // 2  # 1-2: keys 52 and 101
        pairs = (
            [(0, 0)]
            + [(1, 2)] * filler
            + [(10, 10)] * 10
            + [(10, 11)] * 5
            + [(30, 40), (49, 49)]
        )
        ends = np.array(pairs)
        key = np.empty(2 * len(pairs), dtype=np.int64)
        put_edges(key, 0, n, ends[:, 0], ends[:, 1])
        keys = np.sort(key)
        assert keys[0] == 0 and keys[-1] == n * n - 1
        edge = _NARROW_BLOCK
        assert keys[edge - 10] == keys[edge + 9] == 10 * n + 10
        assert keys[edge + 10] == 10 * n + 11
        built = CSRGraph.from_key(n, key)
        reference = CSRGraph.from_edges(n, pairs)
        assert built.indptr.tolist() == list(reference.indptr)
        assert built.indices.tolist() == list(reference.indices)
        built.validate()
        assert built.neighbors_list(10) == [11]
        assert built.degree(0) == built.degree(49) == 0


class TestBuildMemory:
    def test_from_key_holds_little_beyond_the_key(self, traced_peak):
        # 1.2M loop-free random edges on hs2's 20,868 rows; the composite
        # key is 16 bytes an edge.  Narrowing the key in place, finding
        # its repeats block by block, holds 1.02x the key at once (1.07x
        # with a whole-key search for row starts); with a one-byte-per-key
        # repeat mask it held 1.20x, and building ``indices`` as a
        # narrowed copy of the key 1.7x.
        rng = np.random.default_rng(20_868)
        n, m = 20_868, 1_200_000
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n - 1, m)
        dst[dst >= src] += 1
        graph, peak = traced_peak(lambda: from_endpoints(n, src, dst))
        assert graph.indptr[-1] == len(graph.indices) > 2 * m * 0.99
        assert peak < 1.15 * 16 * m


class TestQueries:
    def test_degree(self, graph):
        assert [graph.degree(u) for u in range(_N)] == [2, 2, 3, 1, 0]
        assert sum(graph.degree(u) for u in range(_N)) == 2 * graph.edge_count()

    def test_are_friends_is_symmetric(self, graph):
        for a, b in _EDGES:
            assert graph.are_friends(a, b) and graph.are_friends(b, a)
        assert not graph.are_friends(0, 3)
        assert not graph.are_friends(4, 0)

    def test_mutual_friends(self, graph):
        assert graph.mutual_friends(0, 1) == {2}
        assert graph.mutual_friend_count(0, 1) == 1
        assert graph.mutual_friends(0, 3) == {2}
        assert graph.mutual_friend_count(2, 4) == 0
        assert graph.mutual_friends(1, 3) == {2}
        assert graph.mutual_friend_count(2, 2) == graph.degree(2)
        for a in range(_N):
            for b in range(_N):
                assert graph.mutual_friend_count(a, b) == len(graph.mutual_friends(a, b))

    def test_subgraph_degree(self, graph):
        assert graph.subgraph_degree(2, {0, 3, 99}) == 2
        assert graph.subgraph_degree(0, {1, 99}) == 1
        assert graph.subgraph_degree(4, set(range(_N))) == 0

    @pytest.mark.parametrize("outside", _OUTSIDE)
    def test_ids_outside_the_rows_have_no_friends(self, graph, outside):
        assert graph.degree(outside) == 0
        assert graph.neighbors_list(outside) == []
        assert graph.neighbors(outside) == set()
        assert graph.subgraph_degree(outside, set(range(_N))) == 0
        for u in range(_N):
            assert not graph.are_friends(outside, u)
            assert not graph.are_friends(u, outside)
            assert graph.mutual_friends(outside, u) == set()
            assert graph.mutual_friend_count(outside, u) == 0
            assert graph.mutual_friend_count(u, outside) == 0

    def test_mean_degree_and_edge_count(self, graph):
        assert graph.edge_count() == len(_EDGES)
        assert graph.mean_degree() == pytest.approx(2 * len(_EDGES) / _N)
        empty = CSRGraph.from_edges(0, [])
        assert (empty.edge_count(), empty.mean_degree()) == (0, 0.0)

    @given(
        edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
        tail=st.integers(0, 3),
    )
    @settings(max_examples=60)
    def test_queries_match_a_set_reference(self, edges, tail):
        """Every query against a dict of sets built from the same pairs."""
        n = max((max(p) for p in edges), default=0) + 1 + tail
        graph = directed(n, edges)
        friends = {u: set() for u in range(n)}
        for a, b in edges:
            if a != b:
                friends[a].add(b)
                friends[b].add(a)
        assert sum(graph.degree(u) for u in range(n)) == 2 * graph.edge_count()
        assert list(graph.edges()) == sorted(
            (a, b) for a in friends for b in friends[a] if a < b
        )
        for u in range(n):
            assert graph.neighbors_list(u) == sorted(friends[u])
        probes = [u for u in range(n) if friends[u]][:6] + [-1, n]
        for a in probes:
            for b in probes:
                mutual = friends.get(a, set()) & friends.get(b, set())
                assert graph.mutual_friends(a, b) == mutual
                assert graph.mutual_friend_count(a, b) == len(mutual)
                assert graph.are_friends(a, b) == graph.are_friends(b, a)
                assert graph.are_friends(a, b) == (b in friends.get(a, ()))

    def test_nbytes_positive(self, graph):
        assert graph.nbytes > 0

    @pytest.mark.parametrize("backend", ["numpy", "array"])
    def test_neighbors_list_is_python_ints(self, graph, backend):
        if backend == "numpy":
            # int32 indices, as the native city tier stores them
            buffers = CSRGraph(
                np.asarray(list(graph.indptr), dtype=np.int64),
                np.asarray(list(graph.indices), dtype=np.int32),
            )
        else:
            buffers = CSRGraph(array("q", graph.indptr), array("q", graph.indices))
        for u in range(_N):
            lo, hi = int(buffers.indptr[u]), int(buffers.indptr[u + 1])
            row = buffers.neighbors_list(u)
            assert row == [int(v) for v in buffers.indices[lo:hi]]
            assert all(type(v) is int for v in row)


class TestValidate:
    def test_rejects_unsorted_row(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2)])
        g.indices[0], g.indices[1] = g.indices[1], g.indices[0]
        with pytest.raises(ValueError):
            g.validate()

    def test_rejects_asymmetry(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        g.indices[0] = 2  # 0->2 without 2->0
        with pytest.raises(ValueError):
            g.validate()

    def test_rejects_self_loop(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        # make 1's row contain 1 itself while staying sorted
        row = g.neighbors_list(1)
        assert row == [0, 2]
        g.indices[g.indptr[1] + 1] = 1
        with pytest.raises(ValueError):
            g.validate()
