"""Unit and property tests for the friendship graph.

The graph is the :class:`~repro.colgen.csr.CSRGraph` a
:class:`SocialNetwork` keeps with one row per uid, built through the
network's write verbs ``add_friendship`` and ``add_friendships``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osn.clock import SimClock
from repro.osn.network import SocialNetwork
from repro.osn.profile import Birthday, Name, Profile

#: Uids run 1..N_USERS in every network built here.
N_USERS = 31


def network_of(n_users, pairs=()):
    """A network with ``n_users`` adult accounts befriended along ``pairs``."""
    net = SocialNetwork(clock=SimClock(now_year=2012.25))
    for i in range(n_users):
        net.register_account(
            profile=Profile(name=Name("User", str(i))),
            registered_birthday=Birthday(1980),
        )
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    net.add_friendships([(ends[:, 0], ends[:, 1])])
    return net


@pytest.fixture()
def triangle():
    net = network_of(3)
    net.add_friendship(1, 2)
    net.add_friendship(2, 3)
    net.add_friendship(1, 3)
    return net


class TestMutation:
    def test_add_edge_is_mutual(self, triangle):
        assert triangle.graph.are_friends(1, 2)
        assert triangle.graph.are_friends(2, 1)

    def test_add_duplicate_edge_returns_false(self, triangle):
        assert not triangle.add_friendship(1, 2)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            network_of(5).add_friendship(5, 5)

    def test_bulk_add_counts_new_only(self):
        net = network_of(3)
        assert net.add_friendships([([1, 2, 1], [2, 3, 2])]) == 2

    @pytest.mark.parametrize(
        "batches",
        [
            [([1, 2], [3])],
            [([1], [2, 3])],
            [([[1, 2]], [[3, 4]])],
            [(1, 2)],
            [([1, 2], [2, 3]), ([1, 2], [3])],
        ],
        ids=["short-dst", "short-src", "two-dimensional", "scalars", "second-batch"],
    )
    def test_mismatched_endpoints_raise_and_add_nothing(self, batches):
        # Mismatched endpoints would broadcast: [1, 2] with [3] is not 1-3 and 2-3.
        net = network_of(4, [(1, 4)])
        before = adjacency(net), net.version
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            net.add_friendships(batches)
        assert (adjacency(net), net.version) == before


class TestQueries:
    def test_degree(self, triangle):
        assert triangle.graph.degree(1) == 2

    def test_degree_of_unknown_node_is_zero(self, triangle):
        assert triangle.graph.degree(42) == 0

    def test_mutual_friends(self, triangle):
        assert triangle.graph.mutual_friends(1, 2) == {3}

    def test_mutual_friend_count_matches(self, triangle):
        assert triangle.graph.mutual_friend_count(1, 2) == 1

    def test_has_mutual_friend(self):
        net = network_of(4, [(1, 2), (2, 3), (1, 3), (1, 4)])
        assert net._has_mutual_friend(1, 2)
        assert net._has_mutual_friend(3, 4)  # both friends with 1
        assert not net._has_mutual_friend(1, 4)

    def test_edge_count(self, triangle):
        assert triangle.graph.edge_count() == 3
        assert triangle.population_stats()["edges"] == 3

    def test_edges_yielded_once(self, triangle):
        assert sorted(triangle.graph.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_neighbors_list_sorted(self):
        net = network_of(9)
        net.add_friendship(1, 9)
        net.add_friendship(1, 3)
        net.add_friendship(1, 7)
        assert net.graph.neighbors_list(1) == [3, 7, 9]

    def test_subgraph_degree(self, triangle):
        assert triangle.graph.subgraph_degree(1, {2, 99}) == 1

    def test_mean_degree(self, triangle):
        # over the registered accounts; row 0 of the graph is no account
        assert triangle.population_stats()["mean_degree"] == pytest.approx(2.0)

    def test_mean_degree_empty(self):
        net = SocialNetwork()
        assert net.graph.mean_degree() == 0.0
        assert net.population_stats()["mean_degree"] == 0.0


edge_lists = st.lists(
    st.tuples(st.integers(1, N_USERS), st.integers(1, N_USERS)).filter(
        lambda p: p[0] != p[1]
    ),
    max_size=60,
)


class TestProperties:
    @given(edge_lists)
    @settings(max_examples=60)
    def test_symmetry(self, edges):
        g = network_of(N_USERS, edges).graph
        for a in range(1, N_USERS + 1):
            for b in g.neighbors(a):
                assert g.are_friends(b, a)

    @given(edge_lists)
    @settings(max_examples=60)
    def test_handshake_lemma(self, edges):
        g = network_of(N_USERS, edges).graph
        assert sum(g.degree(u) for u in range(1, N_USERS + 1)) == 2 * g.edge_count()

    @given(edge_lists)
    @settings(max_examples=60)
    def test_mutual_count_consistent_with_set(self, edges):
        g = network_of(N_USERS, edges).graph
        nodes = [u for u in range(1, N_USERS + 1) if g.degree(u)][:6]
        for a in nodes:
            for b in nodes:
                if a != b:
                    assert g.mutual_friend_count(a, b) == len(g.mutual_friends(a, b))


def adjacency(net):
    return {uid: net.graph.neighbors_list(uid) for uid in net.users}


class TestBulkAddMatchesEdgeLoop:
    """The one-pair ``add_friendship`` loop is the reference for the batch."""

    @given(start=edge_lists, fresh=edge_lists, data=st.data())
    @settings(max_examples=100)
    def test_same_adjacency_and_count(self, start, fresh, data):
        # Repeats, both orientations, and pairs the graph already holds.
        pairs = data.draw(
            st.permutations(fresh + [(b, a) for a, b in fresh + start])
        )
        cut = data.draw(st.integers(0, len(pairs)))
        loop = network_of(N_USERS, start)
        expected = sum(loop.add_friendship(a, b) for a, b in pairs)
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        for batches in (
            [([a for a, _ in pairs], [b for _, b in pairs])],
            [(ends[:, 0], ends[:, 1])],
            # Two batches from a generator, either of them maybe empty.
            ((ends[part, 0], ends[part, 1]) for part in (slice(None, cut), slice(cut, None))),
        ):
            bulk = network_of(N_USERS, start)
            assert bulk.add_friendships(batches) == expected
            assert adjacency(bulk) == adjacency(loop)

    @given(
        start=edge_lists,
        fresh=edge_lists,
        node=st.integers(1, N_USERS),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_self_pair_raises_and_adds_nothing(self, start, fresh, node, data):
        at = data.draw(st.integers(0, len(fresh)))
        net = network_of(N_USERS, start)
        before = adjacency(net), net.version
        pairs = fresh[:at] + [(node, node)] + fresh[at:]
        with pytest.raises(ValueError):
            net.add_friendships([([a for a, _ in pairs], [b for _, b in pairs])])
        assert (adjacency(net), net.version) == before
