"""Encode a legacy object :class:`~repro.worldgen.world.World` into columns.

This is the bridge between the two generations of worldgen: the
``smoke``/``paper`` tiers run the fully-calibrated object generator
(every behavioural knob of the paper intact), then *encode* the result
into the columnar layout.  Because encoding is a pure re-representation
— no RNG draws, no reordering — the lazy views decode back to objects
that compare equal field-for-field, which is exactly what the
equivalence suite asserts.  The friendships are not re-encoded: the
object network already keeps them in a :class:`~repro.colgen.csr.CSRGraph`
with a row per uid, the layout a :class:`ColumnarWorld` reads, so the
encoded world shares that graph.  The native vectorised path
(:mod:`repro.colgen.generate`) takes over at ``city`` scale, where the
object generator cannot go.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.worldgen.world import World

from .columns import (
    AccountColumns,
    ColumnarWorld,
    PeopleColumns,
    ProfileColumns,
    StringTable,
    pack_privacy,
)
from .views import GENDER_TO_ORDINAL, ROLE_TO_ORDINAL


def int_column(values: Iterable[int], *, dtype: str) -> np.ndarray:
    """Freeze integers into a column of numpy dtype code ``dtype``."""
    return np.asarray(list(values), dtype=np.dtype(dtype))


def float_column(values: Iterable[float]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.float64)


def _encode_profiles(accounts: List, strings: StringTable) -> ProfileColumns:
    """Column-pack every account's Profile (row order == uid order)."""
    intern = strings.intern
    first_name_id: List[int] = []
    last_name_id: List[int] = []
    gender: List[int] = []
    has_profile_photo: List[int] = []
    has_birthday: List[int] = []
    birthday_year: List[int] = []
    birthday_fraction: List[float] = []
    relationship_id: List[int] = []
    interested_in_id: List[int] = []
    hometown_id: List[int] = []
    current_city_id: List[int] = []
    employer_id: List[int] = []
    graduate_school_id: List[int] = []
    photo_count: List[int] = []
    has_contact: List[int] = []
    contact_email_id: List[int] = []
    contact_phone_id: List[int] = []
    contact_im_id: List[int] = []
    contact_street_id: List[int] = []
    networks_indptr: List[int] = [0]
    network_id: List[int] = []
    hs_indptr: List[int] = [0]
    hs_school_id: List[int] = []
    hs_name_id: List[int] = []
    hs_grad_year: List[int] = []
    wall_indptr: List[int] = [0]
    wall_author: List[int] = []
    wall_text_id: List[int] = []
    for account in accounts:
        profile = account.profile
        first_name_id.append(intern(profile.name.first))
        last_name_id.append(intern(profile.name.last))
        gender.append(GENDER_TO_ORDINAL[profile.gender])
        has_profile_photo.append(int(profile.has_profile_photo))
        birthday = profile.birthday
        has_birthday.append(int(birthday is not None))
        birthday_year.append(-1 if birthday is None else birthday.year)
        birthday_fraction.append(0.0 if birthday is None else birthday.fraction)
        relationship_id.append(intern(profile.relationship_status))
        interested_in_id.append(intern(profile.interested_in))
        hometown_id.append(intern(profile.hometown))
        current_city_id.append(intern(profile.current_city))
        employer_id.append(intern(profile.employer))
        graduate_school_id.append(intern(profile.graduate_school))
        photo_count.append(profile.photo_count)
        contact = profile.contact_info
        has_contact.append(int(contact is not None))
        contact_email_id.append(intern(contact.email if contact else None))
        contact_phone_id.append(intern(contact.phone if contact else None))
        contact_im_id.append(
            intern(contact.im_screen_name if contact else None)
        )
        contact_street_id.append(
            intern(contact.street_address if contact else None)
        )
        for net in profile.networks:
            network_id.append(intern(net))
        networks_indptr.append(len(network_id))
        for aff in profile.high_schools:
            hs_school_id.append(aff.school_id)
            hs_name_id.append(intern(aff.school_name))
            hs_grad_year.append(
                -1 if aff.graduation_year is None else aff.graduation_year
            )
        hs_indptr.append(len(hs_school_id))
        for post in profile.wall_posts:
            wall_author.append(post.author_id)
            wall_text_id.append(intern(post.text))
        wall_indptr.append(len(wall_author))
    return ProfileColumns(
        first_name_id=int_column(first_name_id, dtype="i4"),
        last_name_id=int_column(last_name_id, dtype="i4"),
        gender=int_column(gender, dtype="i1"),
        has_profile_photo=int_column(has_profile_photo, dtype="i1"),
        has_birthday=int_column(has_birthday, dtype="i1"),
        birthday_year=int_column(birthday_year, dtype="i4"),
        birthday_fraction=float_column(birthday_fraction),
        relationship_id=int_column(relationship_id, dtype="i4"),
        interested_in_id=int_column(interested_in_id, dtype="i4"),
        hometown_id=int_column(hometown_id, dtype="i4"),
        current_city_id=int_column(current_city_id, dtype="i4"),
        employer_id=int_column(employer_id, dtype="i4"),
        graduate_school_id=int_column(graduate_school_id, dtype="i4"),
        photo_count=int_column(photo_count, dtype="i4"),
        has_contact=int_column(has_contact, dtype="i1"),
        contact_email_id=int_column(contact_email_id, dtype="i4"),
        contact_phone_id=int_column(contact_phone_id, dtype="i4"),
        contact_im_id=int_column(contact_im_id, dtype="i4"),
        contact_street_id=int_column(contact_street_id, dtype="i4"),
        networks_indptr=int_column(networks_indptr, dtype="i8"),
        network_id=int_column(network_id, dtype="i4"),
        hs_indptr=int_column(hs_indptr, dtype="i8"),
        hs_school_id=int_column(hs_school_id, dtype="i4"),
        hs_name_id=int_column(hs_name_id, dtype="i4"),
        hs_grad_year=int_column(hs_grad_year, dtype="i4"),
        wall_indptr=int_column(wall_indptr, dtype="i8"),
        wall_author=int_column(wall_author, dtype="i8"),
        wall_text_id=int_column(wall_text_id, dtype="i4"),
    )


def encode_world(world: World, tier: str = "paper") -> ColumnarWorld:
    """Losslessly re-represent a built world as columns plus its CSR."""
    names = StringTable()
    cities = StringTable()
    streets = StringTable()

    people = world.population.people
    people_cols = PeopleColumns(
        birth_year_fraction=float_column(p.birth_year_fraction for p in people),
        role=int_column((ROLE_TO_ORDINAL[p.role] for p in people), dtype="i1"),
        gender=int_column((GENDER_TO_ORDINAL[p.gender] for p in people), dtype="i1"),
        school_index=int_column(
            (-1 if p.school_index is None else p.school_index for p in people),
            dtype="i2",
        ),
        cohort_year=int_column(
            (-1 if p.cohort_year is None else p.cohort_year for p in people),
            dtype="i4",
        ),
        tenure_years=float_column(p.tenure_years for p in people),
        left_years_ago=float_column(p.left_years_ago for p in people),
        household_id=int_column(
            (-1 if p.household_id is None else p.household_id for p in people),
            dtype="i8",
        ),
        first_name_id=int_column(
            (names.intern(p.name.first) for p in people), dtype="i4"
        ),
        last_name_id=int_column(
            (names.intern(p.name.last) for p in people), dtype="i4"
        ),
        city_id=int_column((cities.intern(p.city) for p in people), dtype="i4"),
        street_id=int_column(
            (streets.intern(p.street_address) for p in people), dtype="i4"
        ),
    )

    n_users = len(world.network.users)
    uids = sorted(world.network.users)
    uid_base = uids[0] if uids else 0
    if uids != list(range(uid_base, uid_base + n_users)):
        raise ValueError("expected contiguous user ids from worldgen")
    accounts = [world.network.users[uid] for uid in uids]
    # Worldgen shares one frozen settings object among the accounts that
    # drew the same choices, so each distinct object is packed once.
    distinct = {id(a.settings): a.settings for a in accounts}
    words = {key: pack_privacy(settings) for key, settings in distinct.items()}
    account_cols = AccountColumns(
        person_id=int_column(
            (-1 if a.person_id is None else a.person_id for a in accounts),
            dtype="i8",
        ),
        registered_birth_year=int_column(
            (a.registered_birthday.year for a in accounts), dtype="i4"
        ),
        registered_birth_fraction=float_column(
            a.registered_birthday.fraction for a in accounts
        ),
        real_birth_year=int_column(
            (a.real_birthday.year for a in accounts), dtype="i4"
        ),
        real_birth_fraction=float_column(
            a.real_birthday.fraction for a in accounts
        ),
        created_at_year=float_column(a.created_at_year for a in accounts),
        is_fake=int_column((int(a.is_fake) for a in accounts), dtype="i1"),
        privacy=int_column((words[id(a.settings)] for a in accounts), dtype="u8"),
    )

    profile_strings = StringTable()
    profile_cols = _encode_profiles(accounts, profile_strings)

    columnar = ColumnarWorld(
        tier=tier,
        seed=world.config.seed,
        observation_year=world.config.observation_year,
        people=people_cols,
        accounts=account_cols,
        csr=world.network.graph,
        uid_base=uid_base,
        names=names,
        cities=cities,
        streets=streets,
        schools=[(s.name, s.city) for s in world.schools],
        person_to_user=dict(world.account_index.person_to_user),
        profiles=profile_cols,
        profile_strings=profile_strings,
        # the network's directory includes the noise schools that
        # ``schools`` (config schools only) leaves out — the serve path
        # needs all of them.
        directory=[
            (s.school_id, s.name, s.city, s.enrollment_hint)
            for s in world.network.schools.values()
        ],
    )
    columnar.stats["accounts"] = float(n_users)
    columnar.stats["edges"] = float(columnar.n_edges)
    columnar.stats["profile_bytes"] = float(profile_cols.nbytes)
    return columnar
