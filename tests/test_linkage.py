"""Tests for the Section-2 data-broker linkage (voter registry -> address)."""

from types import SimpleNamespace

import pytest

from repro.core.api import make_client
from repro.core.extension import build_extended_profiles
from repro.core.linkage import (
    AddressCandidate,
    Confidence,
    evaluate_linkage,
    friend_name_resolver,
    link_home_addresses,
)
from repro.worldgen.records import VoterRecord, VoterRegistry, build_voter_registry


@pytest.fixture(scope="module")
def registry(tiny_world):
    return build_voter_registry(
        tiny_world.population, tiny_world.config.observation_year, seed=5
    )


@pytest.fixture(scope="module")
def extended(tiny_world, tiny_attack):
    client = make_client(tiny_world, 1)
    return build_extended_profiles(tiny_attack, client, t=100)


class TestVoterRegistry:
    def test_contains_only_adults(self, registry, tiny_world):
        obs = tiny_world.config.observation_year
        for record in registry.records:
            assert obs - record.birth_year >= 17.0

    def test_no_minors_even_lying_ones(self, registry, tiny_world):
        """The registry keys off REAL age - lying on Facebook does not
        put a 15-year-old in the voter file."""
        minors = {
            tiny_world.population.person(pid).name.full
            for pid in range(len(tiny_world.population))
            if tiny_world.population.person(pid).real_age(
                tiny_world.config.observation_year
            )
            < 18.0
            and tiny_world.population.person(pid).street_address
        }
        registered = {f"{r.first_name} {r.last_name}" for r in registry.records}
        # Name collisions are possible, but most minors must be absent.
        assert len(minors & registered) < max(3, len(minors) // 4)

    def test_registration_rate_respected(self, tiny_world):
        full = build_voter_registry(
            tiny_world.population, tiny_world.config.observation_year,
            registration_rate=1.0,
        )
        partial = build_voter_registry(
            tiny_world.population, tiny_world.config.observation_year,
            registration_rate=0.5, seed=1,
        )
        assert 0.35 * len(full) < len(partial) < 0.65 * len(full)

    def test_lookup_by_surname_city(self, registry):
        record = registry.records[0]
        hits = registry.lookup(record.last_name, record.city)
        assert record in hits

    def test_lookup_case_insensitive(self, registry):
        record = registry.records[0]
        assert registry.lookup(record.last_name.upper(), record.city.upper())

    def test_lookup_person_exact(self, registry):
        record = registry.records[0]
        found = registry.lookup_person(record.first_name, record.last_name, record.city)
        assert found is not None
        assert found.street_address == record.street_address


class TestLinkageUnit:
    def test_parent_on_friend_list_high_confidence(self):
        registry = VoterRegistry(
            [VoterRecord("Pat", "Miller", "12 Oak St", "Smallville", 1970)]
        )
        from repro.core.extension import ExtendedProfile

        student = ExtendedProfile(
            user_id=1,
            name="Kim Miller",
            gender=None,
            school_name="HS",
            inferred_year=2014,
            inferred_city="Smallville",
            inferred_birth_year=1996,
            appears_registered_adult=False,
            view=None,
            reverse_friends={42},
        )
        linked = link_home_addresses(
            {1: student}, registry, friend_name_of={42: "Pat Miller"}.get
        )
        candidate = linked[1][0]
        assert candidate.confidence is Confidence.HIGH
        assert candidate.street_address == "12 Oak St"
        assert candidate.via_friend == "Pat Miller"

    def test_unique_household_medium_confidence(self):
        registry = VoterRegistry(
            [VoterRecord("Pat", "Miller", "12 Oak St", "Smallville", 1970)]
        )
        from repro.core.extension import ExtendedProfile

        student = ExtendedProfile(
            user_id=1, name="Kim Miller", gender=None, school_name="HS",
            inferred_year=2014, inferred_city="Smallville",
            inferred_birth_year=1996, appears_registered_adult=False, view=None,
        )
        linked = link_home_addresses({1: student}, registry)
        assert linked[1][0].confidence is Confidence.MEDIUM

    def test_ambiguous_surname_low_confidence(self):
        registry = VoterRegistry(
            [
                VoterRecord("Pat", "Miller", "12 Oak St", "Smallville", 1970),
                VoterRecord("Sam", "Miller", "900 Elm Ave", "Smallville", 1965),
            ]
        )
        from repro.core.extension import ExtendedProfile

        student = ExtendedProfile(
            user_id=1, name="Kim Miller", gender=None, school_name="HS",
            inferred_year=2014, inferred_city="Smallville",
            inferred_birth_year=1996, appears_registered_adult=False, view=None,
        )
        linked = link_home_addresses({1: student}, registry)
        assert all(c.confidence is Confidence.LOW for c in linked[1])
        assert len(linked[1]) == 2

    def test_no_match_yields_nothing(self):
        registry = VoterRegistry([])
        from repro.core.extension import ExtendedProfile

        student = ExtendedProfile(
            user_id=1, name="Kim Miller", gender=None, school_name="HS",
            inferred_year=2014, inferred_city="Smallville",
            inferred_birth_year=1996, appears_registered_adult=False, view=None,
        )
        assert link_home_addresses({1: student}, registry) == {}

    def test_friend_names_come_from_crawled_pages_else_one_get_per_uid(self):
        class ProfileGets:
            def __init__(self, pages):
                self.pages = pages
                self.fetched = []

            def fetch_profile(self, uid):
                self.fetched.append(uid)
                return self.pages.get(uid)

        client = ProfileGets({2: SimpleNamespace(name="Sam Lee")})
        friend_name_of = friend_name_resolver({1: SimpleNamespace(name="Pat Miller")}, client)
        names = [friend_name_of(uid) for uid in (1, 3, 2, 3, 2, 1)]
        assert names == ["Pat Miller", None, "Sam Lee", None, "Sam Lee", "Pat Miller"]
        assert client.fetched == [3, 2]


class TestLinkageEndToEnd:
    def test_broker_pins_addresses(self, tiny_world, tiny_attack, extended, registry):
        names = {uid: p.name for uid, p in extended.items()}
        names.update(tiny_attack.seeds)

        def friend_name_of(uid):
            if uid in names:
                return names[uid]
            view = tiny_attack.profiles.get(uid)
            return view.name if view else None

        linked = link_home_addresses(extended, registry, friend_name_of)
        assert linked  # some students linked to candidate addresses
        evaluation = evaluate_linkage(linked, tiny_world)
        assert evaluation.linked > 0
        # High-confidence (parent-on-friend-list) links are very precise.
        if evaluation.high_confidence >= 5:
            assert evaluation.high_confidence_precision > 0.8
        # Best-candidate precision comfortably beats random streets.
        assert evaluation.precision_of_best > 0.1


def reference_link_home_addresses(extended, registry, friend_name_of=None):
    """``link_home_addresses`` as it was before it lowered each surname
    once: both surnames are split and lowered again for every (student,
    friend) pair.  Kept as the exact reference."""

    def _surname(full_name):
        return full_name.rsplit(" ", 1)[-1]

    linked = {}
    for uid, profile in extended.items():
        surname = _surname(profile.name)
        city = profile.inferred_city
        candidates = []
        if friend_name_of is not None:
            friend_ids = (
                profile.direct_friends
                if profile.direct_friends is not None
                else sorted(profile.reverse_friends)
            )
            for friend_uid in friend_ids:
                friend_name = friend_name_of(friend_uid)
                if friend_name is None:
                    continue
                if _surname(friend_name).lower() != surname.lower():
                    continue
                record = registry.lookup_person(friend_name.split(" ", 1)[0], surname, city)
                if record is not None:
                    candidates.append(
                        AddressCandidate(
                            street_address=record.street_address,
                            city=record.city,
                            confidence=Confidence.HIGH,
                            matched_voters=1,
                            via_friend=friend_name,
                        )
                    )
        if not candidates:
            records = registry.lookup(surname, city)
            addresses = sorted({r.street_address for r in records})
            confidence = Confidence.MEDIUM if len(addresses) == 1 else Confidence.LOW
            candidates.extend(
                AddressCandidate(
                    street_address=address,
                    city=city,
                    confidence=confidence,
                    matched_voters=len(records),
                )
                for address in addresses
            )
        if candidates:
            linked[uid] = candidates
    return linked


class TestSurnamesLoweredOnce:
    def recording(self, names):
        calls = []

        def friend_name_of(uid):
            calls.append(uid)
            return names.get(uid)

        return friend_name_of, calls

    def test_same_calls_and_result_as_the_reference(self, tiny_attack, extended, registry):
        names = {uid: view.name for uid, view in tiny_attack.profiles.items()}
        names.update(tiny_attack.seeds)
        # Case-only surname variants must still match their student.
        for uid, profile in list(extended.items())[::3]:
            names[uid] = profile.name.upper()
        ours, our_calls = self.recording(names)
        theirs, their_calls = self.recording(names)
        linked = link_home_addresses(extended, registry, ours)
        assert linked == reference_link_home_addresses(extended, registry, theirs)
        assert our_calls == list(dict.fromkeys(their_calls))
        assert len(their_calls) > len(set(their_calls))  # friends repeat across students
        assert any(c.confidence is Confidence.HIGH for cs in linked.values() for c in cs)

    def test_a_shared_name_is_lowered_for_each_student(self):
        from repro.core.extension import ExtendedProfile

        registry = VoterRegistry(
            [
                VoterRecord("Pat", "Miller", "12 Oak St", "Smallville", 1970),
                VoterRecord("Pat", "Lee", "9 Elm Ave", "Smallville", 1971),
            ]
        )
        students = {
            uid: ExtendedProfile(
                user_id=uid, name=name, gender=None, school_name="HS",
                inferred_year=2014, inferred_city="Smallville",
                inferred_birth_year=1996, appears_registered_adult=False,
                view=None, reverse_friends={42, 43},
            )
            for uid, name in ((1, "Kim Miller"), (2, "Jo Lee"), (3, "Al MILLER"))
        }
        names = {42: "Pat Miller", 43: "Pat Lee"}
        ours, our_calls = self.recording(names)
        theirs, their_calls = self.recording(names)
        linked = link_home_addresses(students, registry, ours)
        assert linked == reference_link_home_addresses(students, registry, theirs)
        assert our_calls == list(dict.fromkeys(their_calls)) == [42, 43]
        assert [linked[uid][0].via_friend for uid in (1, 2)] == ["Pat Miller", "Pat Lee"]


class TestEachFriendResolvedOnce:
    """``friend_name_of`` is asked once per distinct friend uid per call,
    in the order the per-pair walk first meets it; the result is the
    per-pair reference's."""

    REGISTRY = VoterRegistry(
        [
            VoterRecord("Pat", "Miller", "12 Oak St", "Smallville", 1970),
            VoterRecord("Sam", "Miller", "12 Oak St", "Smallville", 1972),
        ]
    )

    @staticmethod
    def student(uid, name, friends):
        from repro.core.extension import ExtendedProfile

        return ExtendedProfile(
            user_id=uid, name=name, gender=None, school_name="HS",
            inferred_year=2014, inferred_city="Smallville",
            inferred_birth_year=1996, appears_registered_adult=False,
            view=None, direct_friends=friends,
        )

    @staticmethod
    def recording(names):
        calls = []

        def friend_name_of(uid):
            calls.append(uid)
            return names.get(uid)

        return friend_name_of, calls

    def link_both(self, students, names):
        ours, our_calls = self.recording(names)
        theirs, their_calls = self.recording(names)
        linked = link_home_addresses(students, self.REGISTRY, ours)
        assert linked == reference_link_home_addresses(students, self.REGISTRY, theirs)
        return linked, our_calls, their_calls

    def test_an_unresolved_friend_is_asked_once_and_never_matches(self):
        students = {
            1: self.student(1, "Kim Miller", [42, 43, 42]),
            2: self.student(2, "Al Miller", [42]),
        }
        linked, our_calls, their_calls = self.link_both(students, {43: "Pat Miller"})
        assert our_calls == [42, 43]
        assert their_calls == [42, 43, 42, 42]
        assert [c.via_friend for c in linked[1]] == ["Pat Miller"]
        assert [c.confidence for c in linked[2]] == [Confidence.MEDIUM]

    def test_a_friend_listed_twice_yields_two_candidates(self):
        students = {1: self.student(1, "Kim Miller", [44, 43, 44])}
        names = {43: "Pat Miller", 44: "Sam Miller"}
        linked, our_calls, _ = self.link_both(students, names)
        assert our_calls == [44, 43]
        assert [c.via_friend for c in linked[1]] == ["Sam Miller", "Pat Miller", "Sam Miller"]
        assert {c.confidence for c in linked[1]} == {Confidence.HIGH}

    def test_resolver_gets_follow_the_per_pair_walk(self):
        """On the tiny world, after the attack and the extension, the
        resolver's profile GETs are the ones the per-pair reference
        walk makes, in the same order."""
        from repro.core.api import run_attack
        from repro.core.profiler import ProfilerConfig
        from repro.worldgen.presets import tiny
        from repro.worldgen.world import build_world

        world = build_world(tiny())
        attack = run_attack(
            world, accounts=2,
            config=ProfilerConfig(threshold=120, enhanced=True, filtering=True),
        )
        extended = build_extended_profiles(attack, make_client(world, 1), t=100)
        registry = build_voter_registry(
            world.population, world.config.observation_year, seed=5
        )

        class RecordingClient:
            def __init__(self):
                self.client = make_client(world, 1)
                self.fetched = []

            def fetch_profile(self, uid):
                self.fetched.append(uid)
                return self.client.fetch_profile(uid)

        ours, theirs = RecordingClient(), RecordingClient()
        linked = link_home_addresses(
            extended, registry, friend_name_resolver(attack.profiles, ours)
        )
        assert linked == reference_link_home_addresses(
            extended, registry, friend_name_resolver(attack.profiles, theirs)
        )
        assert ours.fetched == theirs.fetched
        assert len(set(ours.fetched)) == len(ours.fetched) > 0
