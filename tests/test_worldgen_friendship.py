"""Tests for the friendship builder's structural guarantees."""

import dataclasses
import enum
import functools
import hashlib
import random

import pytest

from repro.colgen.csr import CSRGraph
from repro.worldgen import friendship as friendship_mod
from repro.worldgen.population import Role
from repro.worldgen.presets import hs1, hs2, smoke, tiny
from repro.worldgen.world import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(tiny(seed=23))


class TestAttendanceWindows:
    def test_student_window_ends_now(self, world):
        now = world.config.observation_year
        for pid in world.population.students_by_school[0][2013][:10]:
            person = world.population.person(pid)
            start, end = friendship_mod._attendance_window(person, now)
            assert end == pytest.approx(now)
            assert start < end

    def test_former_student_window_in_past(self, world):
        now = world.config.observation_year
        for pid in world.population.former_by_school[0][:10]:
            person = world.population.person(pid)
            start, end = friendship_mod._attendance_window(person, now)
            assert end < now
            assert start < end

    def test_alumnus_window_ends_at_graduation(self, world):
        now = world.config.observation_year
        cohort = sorted(world.population.alumni_by_school[0])[0]
        for pid in world.population.alumni_by_school[0][cohort][:10]:
            person = world.population.person(pid)
            start, end = friendship_mod._attendance_window(person, now)
            assert end == pytest.approx(cohort + 0.45)
            assert end - start == pytest.approx(4.0)

    def test_external_has_no_window(self, world):
        pid = world.population.ids_with_role(Role.EXTERNAL)[0]
        with pytest.raises(ValueError):
            friendship_mod._attendance_window(world.population.person(pid), 2012.25)


class TestEdgeStructure:
    def test_no_self_edges(self, world):
        for a, b in list(world.network.graph.edges())[:5000]:
            assert a != b

    def test_recent_alumni_know_current_students(self, world):
        """The Section-7 'natural approach' depends on these edges."""
        truth = world.ground_truth()
        graph = world.network.graph
        current = world.network.clock.current_year
        recent = [
            uid
            for pid in world.population.alumni_by_school[0].get(current - 1, [])
            if (uid := world.account_index.user_for(pid)) is not None
        ]
        students = truth.all_student_uids
        with_student_friends = sum(
            1 for uid in recent if graph.neighbors(uid) & students
        )
        assert with_student_friends / max(len(recent), 1) > 0.3

    def test_distant_alumni_rarely_know_students(self, world):
        truth = world.ground_truth()
        graph = world.network.graph
        oldest = sorted(world.population.alumni_by_school[0])[0]
        old_uids = [
            uid
            for pid in world.population.alumni_by_school[0][oldest]
            if (uid := world.account_index.user_for(pid)) is not None
        ]
        students = truth.all_student_uids
        linked = sum(1 for uid in old_uids if graph.neighbors(uid) & students)
        assert linked / max(len(old_uids), 1) < 0.3

    def test_transfer_students_less_connected(self, world):
        """Window weighting: short-tenure students have fewer in-school
        friends than long-tenure classmates."""
        truth = world.ground_truth()
        graph = world.network.graph
        students = truth.all_student_uids
        short, long_ = [], []
        for members in world.population.students_by_school[0].values():
            for pid in members:
                uid = world.account_index.user_for(pid)
                if uid is None:
                    continue
                person = world.population.person(pid)
                in_school = graph.subgraph_degree(uid, students)
                if person.tenure_years < 1.0:
                    short.append(in_school)
                elif person.tenure_years > 2.0:
                    long_.append(in_school)
        if not short or not long_:
            pytest.skip("no tenure contrast in this seed")
        assert sum(short) / len(short) < sum(long_) / len(long_)

    def test_deterministic(self):
        a = build_world(tiny(seed=29)).network.graph
        b = build_world(tiny(seed=29)).network.graph
        assert sorted(a.edges()) == sorted(b.edges())


class TestInstallMemory:
    def test_hs2_install_holds_little_beyond_the_key(self, traced_peak, monkeypatch):
        """hs2's friendship install, sampling and CSR build, under ``tracemalloc``.

        The composite key (16 bytes a drawn pair, 18.35 MiB) is the
        install's only full-size array: each sampler's batch goes into it
        as it is drawn, the external friends by chunks of users, and the
        peak is 1.18x the key.  Queueing every batch, concatenating the
        endpoint arrays and copying them to drop self-pairs held 4.26x;
        drawing the external sampler's ~1.1M pairs as one batch, 1.88x.
        """
        seen = {}
        build = friendship_mod.FriendshipBuilder.build
        from_key = CSRGraph.from_key.__func__

        def traced_build(builder):
            installed, seen["peak"] = traced_peak(lambda: build(builder))
            return installed

        def counted_from_key(cls, n, key):
            seen["keys"] = key.shape[0]
            return from_key(cls, n, key)

        monkeypatch.setattr(friendship_mod.FriendshipBuilder, "build", traced_build)
        monkeypatch.setattr(CSRGraph, "from_key", classmethod(counted_from_key))
        world = build_world(hs2(seed=202))
        assert world.network.graph.edge_count() == 1_200_850
        assert seen["peak"] < 1.5 * 8 * seen["keys"]


def world_digest(world) -> str:
    """SHA-256 over every uid's sorted friend list, every account's
    wall-post authors and the world RNG's state after the build."""
    digest = hashlib.sha256()
    network = world.network
    for uid in sorted(network.users):
        authors = [post.author_id for post in network.users[uid].profile.wall_posts]
        digest.update(repr((uid, network.graph.neighbors_list(uid), authors)).encode())
    digest.update(repr(world.rng.getstate()).encode())
    return digest.hexdigest()


_SCALARS = frozenset({bool, int, float, str, type(None)})


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def _plain(value):
    """``value`` spelled out in plain values: a record as the tuple of its
    fields in declaration order, a mapping as its items in insertion
    order, an enum member as its value."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return tuple(_plain(getattr(value, name)) for name in _field_names(type(value)))
    if isinstance(value, dict):
        return tuple((_plain(key), _plain(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_plain(item) for item in value)
    return value


def record_digest(world) -> str:
    """SHA-256 over every account's full record and the person→user index.

    An account's record is every ``Account`` field: every ``Profile``
    field, the settings (audiences in insertion order, ``default``,
    ``public_search``, ``message_audience``), both birthdays,
    ``person_id``, ``created_at_year``, ``is_fake`` and ``disabled``."""
    digest = hashlib.sha256()
    users = world.network.users
    for uid in sorted(users):
        digest.update(repr(_plain(users[uid])).encode())
    digest.update(repr(_plain(world.account_index.person_to_user)).encode())
    return digest.hexdigest()


class TestWorldIdentity:
    """One seed yields one world: a digest moves only when a change
    means to draw a different world."""

    @pytest.mark.parametrize(
        "factory, seed, expected",
        [
            (tiny, 7, "64e27771a5841215b5da03f273266ce5142c19f048575d86febae224806e92ad"),
            (tiny, 29, "9bf6a926d6ebcc320cee26fac736202ab69acb415b586834d11f9ea471eecf38"),
            (smoke, 11, "e80ae26b8cfb2d40350387e94800b7c6ac9a848e527c428266ba63f621033700"),
            (hs1, 101, "c73ca41789f3f88939685ecf2b0f6dc408f20bebddcf006199bfa446045d6262"),
        ],
        ids=["tiny-7", "tiny-29", "smoke-11", "hs1-101"],
    )
    def test_pinned_digest(self, factory, seed, expected):
        assert world_digest(build_world(factory(seed=seed))) == expected

    @pytest.mark.parametrize(
        "factory, seed, expected",
        [
            (tiny, 7, "e9e28cda6ca73cf2430e3e750c1789cacbe26b0f8f9852d0dd442aebc0dad4ba"),
            (smoke, 11, "ffbcc14e2ba1af355b3ce76900cfb45fa02f6c1f3d50741d798cbbc8cc45acfa"),
            (hs1, 101, "9fdfe69cef325fca816aa04f57ab4f9a813e9eb84168356d6e0be4b59802c4ee"),
        ],
        ids=["tiny-7", "smoke-11", "hs1-101"],
    )
    def test_pinned_record_digest(self, factory, seed, expected):
        """Every profile field, setting and birthday, not just the edges."""
        assert record_digest(build_world(factory(seed=seed))) == expected
