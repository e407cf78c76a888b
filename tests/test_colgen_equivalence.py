"""Lossless-encoding contract: columns decode back to the exact objects.

The ``paper`` tier runs the legacy object generator and encodes the
result into columns; the lazy views must then reproduce every legacy
object **exactly** — same ``Person`` dataclasses, same
``PrivacySettings`` (including which fields were explicitly set, not
just their effective audience), same birth instants, same friendship
sets.  This is what licenses the attack pipeline to run over columns
without a recalibration.

Everything here scans *every* person and account (no sampling): the
worlds are module-scoped so the O(n) sweeps run against one build.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.colgen import PopulationView, encode_world, generate, pack_privacy, person_view
from repro.osn.privacy import Audience, ProfileField
from repro.worldgen.population import Role
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

_SEED = 101


@pytest.fixture(scope="module")
def legacy_world():
    return build_world(hs1(_SEED))


@pytest.fixture(scope="module")
def columnar(legacy_world):
    return encode_world(legacy_world, tier="paper")


class TestPeopleEquivalence:
    def test_every_person_decodes_equal(self, legacy_world, columnar):
        for person in legacy_world.population.people:
            assert person_view(columnar, person.person_id) == person

    def test_role_indexes_match(self, legacy_world, columnar):
        view = PopulationView(columnar)
        for role in Role:
            assert view.ids_with_role(role) == legacy_world.population.by_role.get(
                role, []
            )

    def test_students_by_school_match(self, legacy_world, columnar):
        view = PopulationView(columnar)
        for school_index in range(len(legacy_world.schools)):
            assert view.students_by_school(
                school_index
            ) == legacy_world.population.students_by_school.get(school_index, {})

    def test_households_match(self, legacy_world, columnar):
        view = PopulationView(columnar)
        assert view.households() == legacy_world.population.households


class TestAccountEquivalence:
    def test_every_privacy_settings_decodes_equal(self, legacy_world, columnar):
        for uid, account in legacy_world.network.users.items():
            decoded = columnar.privacy_settings(uid)
            assert decoded == account.settings
            # the explicit-set mapping itself, not just effective lookups
            assert decoded.audiences == account.settings.audiences

    def test_every_birth_date_matches(self, legacy_world, columnar):
        for uid, account in legacy_world.network.users.items():
            assert (
                columnar.registered_birth_instant(uid)
                == account.registered_birthday.as_year_fraction
            )
            assert (
                columnar.real_birth_instant(uid)
                == account.real_birthday.as_year_fraction
            )

    def test_person_account_mapping_round_trips(self, legacy_world, columnar):
        index = legacy_world.account_index
        for pid, uid in index.person_to_user.items():
            assert columnar.user_for(pid) == uid
            assert columnar.person_for(uid) == pid

    def test_privacy_column_packs_each_accounts_settings(self, legacy_world):
        """Shared settings are packed once, and an account whose settings
        were replaced still gets its own word."""
        users = legacy_world.network.users
        widest = Counter(id(a.settings) for a in users.values()).most_common(1)[0][0]
        target = next(a for a in users.values() if id(a.settings) == widest)
        original = target.settings
        try:
            target.settings = original.with_field(
                ProfileField.FRIEND_LIST, Audience.ONLY_ME
            )
            encoded = encode_world(legacy_world, tier="paper")
            uids = sorted(users)
            assert encoded.accounts.privacy.tolist() == [
                pack_privacy(users[uid].settings) for uid in uids
            ]
            assert pack_privacy(target.settings) != pack_privacy(original)
        finally:
            target.settings = original


class TestFriendshipEquivalence:
    def test_every_friendship_set_matches(self, legacy_world, columnar):
        graph = legacy_world.network.graph
        for uid in legacy_world.network.users:
            assert columnar.friend_set(uid) == frozenset(graph.neighbors(uid))
            assert columnar.friends(uid) == graph.neighbors_list(uid)

    def test_edge_count_and_degrees_match(self, legacy_world, columnar):
        graph = legacy_world.network.graph
        total = 0
        for uid in legacy_world.network.users:
            n = len(graph.neighbors(uid))
            assert columnar.degree(uid) == n
            total += n
        assert columnar.n_edges == total // 2

    def test_are_friends_agrees_on_sampled_pairs(self, legacy_world, columnar):
        import random

        rng = random.Random(0)
        uids = sorted(legacy_world.network.users)
        graph = legacy_world.network.graph
        for _ in range(500):
            a, b = rng.choice(uids), rng.choice(uids)
            if a == b:
                continue
            assert columnar.are_friends(a, b) == (b in graph.neighbors(a))

    def test_csr_invariants_hold(self, columnar):
        columnar.csr.validate()


class TestGenerateDispatch:
    def test_paper_tier_generate_equals_direct_encode(self, columnar):
        via_tier = generate("paper", seed=_SEED, school="hs1")
        assert via_tier.n_accounts == columnar.n_accounts
        assert via_tier.n_edges == columnar.n_edges
        sample_uid = columnar.uid_base
        assert via_tier.friend_set(sample_uid) == columnar.friend_set(sample_uid)
        assert via_tier.privacy_settings(sample_uid) == columnar.privacy_settings(
            sample_uid
        )
