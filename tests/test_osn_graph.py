"""Unit and property tests for the friendship graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osn.graph import FriendGraph


@pytest.fixture()
def triangle():
    g = FriendGraph()
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    return g


class TestMutation:
    def test_add_edge_is_mutual(self, triangle):
        assert triangle.are_friends(1, 2)
        assert triangle.are_friends(2, 1)

    def test_add_duplicate_edge_returns_false(self, triangle):
        assert not triangle.add_edge(1, 2)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            FriendGraph().add_edge(5, 5)

    def test_remove_edge(self, triangle):
        assert triangle.remove_edge(1, 2)
        assert not triangle.are_friends(1, 2)
        assert triangle.are_friends(1, 3)

    def test_remove_missing_edge_returns_false(self):
        assert not FriendGraph().remove_edge(1, 2)

    def test_remove_node_clears_incident_edges(self, triangle):
        triangle.remove_node(2)
        assert 2 not in triangle
        assert not triangle.are_friends(1, 2)
        assert triangle.are_friends(1, 3)

    def test_add_node_idempotent(self):
        g = FriendGraph()
        g.add_node(7)
        g.add_node(7)
        assert len(g) == 1
        assert g.degree(7) == 0

    def test_bulk_add_counts_new_only(self):
        g = FriendGraph()
        added = g.bulk_add_edges([(1, 2), (2, 3), (1, 2)])
        assert added == 2


class TestQueries:
    def test_degree(self, triangle):
        assert triangle.degree(1) == 2

    def test_degree_of_unknown_node_is_zero(self):
        assert FriendGraph().degree(42) == 0

    def test_mutual_friends(self, triangle):
        assert triangle.mutual_friends(1, 2) == {3}

    def test_mutual_friend_count_matches(self, triangle):
        assert triangle.mutual_friend_count(1, 2) == 1

    def test_has_mutual_friend(self, triangle):
        assert triangle.has_mutual_friend(1, 2)
        triangle.remove_node(3)
        assert not triangle.has_mutual_friend(1, 2)

    def test_edge_count(self, triangle):
        assert triangle.edge_count() == 3

    def test_edges_yielded_once(self, triangle):
        assert sorted(triangle.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_neighbors_list_sorted(self):
        g = FriendGraph()
        g.add_edge(1, 9)
        g.add_edge(1, 3)
        g.add_edge(1, 7)
        assert g.neighbors_list(1) == [3, 7, 9]

    def test_subgraph_degree(self, triangle):
        assert triangle.subgraph_degree(1, {2, 99}) == 1

    def test_degree_histogram(self, triangle):
        assert triangle.degree_histogram() == {2: 3}

    def test_mean_degree(self, triangle):
        assert triangle.mean_degree() == pytest.approx(2.0)

    def test_mean_degree_empty(self):
        assert FriendGraph().mean_degree() == 0.0


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda p: p[0] != p[1]),
    max_size=60,
)


class TestProperties:
    @given(edge_lists)
    @settings(max_examples=60)
    def test_symmetry(self, edges):
        g = FriendGraph()
        g.bulk_add_edges(edges)
        for a in g.nodes():
            for b in g.neighbors(a):
                assert g.are_friends(b, a)

    @given(edge_lists)
    @settings(max_examples=60)
    def test_handshake_lemma(self, edges):
        g = FriendGraph()
        g.bulk_add_edges(edges)
        assert sum(g.degree(n) for n in g.nodes()) == 2 * g.edge_count()

    @given(edge_lists)
    @settings(max_examples=60)
    def test_mutual_count_consistent_with_set(self, edges):
        g = FriendGraph()
        g.bulk_add_edges(edges)
        nodes = list(g.nodes())[:6]
        for a in nodes:
            for b in nodes:
                if a != b:
                    assert g.mutual_friend_count(a, b) == len(g.mutual_friends(a, b))


def adjacency(graph):
    return {uid: set(graph.neighbors(uid)) for uid in graph.nodes()}


def graph_of(edges):
    graph = FriendGraph()
    for a, b in edges:
        graph.add_edge(a, b)
    return graph


class TestBulkAddMatchesEdgeLoop:
    """The per-edge ``add_edge`` loop is the reference for the bulk install."""

    @given(start=edge_lists, fresh=edge_lists, data=st.data())
    @settings(max_examples=100)
    def test_same_adjacency_and_count(self, start, fresh, data):
        # Repeats, both orientations, and pairs the graph already holds.
        pairs = data.draw(
            st.permutations(fresh + [(b, a) for a, b in fresh + start])
        )
        loop = graph_of(start)
        expected = sum(loop.add_edge(a, b) for a, b in pairs)
        for given_pairs in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
            bulk = graph_of(start)
            assert bulk.bulk_add_edges(given_pairs) == expected
            assert adjacency(bulk) == adjacency(loop)

    @given(
        start=edge_lists,
        fresh=edge_lists,
        node=st.integers(0, 30),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_self_pair_raises_and_adds_nothing(self, start, fresh, node, data):
        at = data.draw(st.integers(0, len(fresh)))
        graph = graph_of(start)
        before = adjacency(graph)
        with pytest.raises(ValueError):
            graph.bulk_add_edges(fresh[:at] + [(node, node)] + fresh[at:])
        assert adjacency(graph) == before
