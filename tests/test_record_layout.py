"""Layout guard for the records every account holds.

``Name``, ``Birthday``, ``SchoolAffiliation``, ``ContactInfo``,
``WallPost``, ``Profile``, ``Account``, ``PrivacySettings`` and the
generator's ``Person`` are slotted dataclasses: an attribute read makes
no instance-dict hop and a world holds no per-record dict.  Slots change
what a record accepts (no undeclared attribute) and how ``copy`` and
``pickle`` rebuild it, so this guard pins both.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.osn.privacy import Audience, PrivacySettings, ProfileField
from repro.osn.profile import (
    Birthday,
    ContactInfo,
    Gender,
    Name,
    Profile,
    SchoolAffiliation,
    WallPost,
)
from repro.osn.user import Account
from repro.worldgen.population import Person, Role

_NAME = Name("Pat", "O'Neil")
_BIRTHDAY = Birthday(1996, 0.25)

FROZEN = [
    _NAME,
    _BIRTHDAY,
    SchoolAffiliation(7, "Springfield High", 2014),
    ContactInfo(email="pat@example.com", phone="555-0100"),
    WallPost(3, "hi"),
    PrivacySettings(audiences={ProfileField.HOMETOWN: Audience.PUBLIC}, public_search=False),
]

_PROFILE = Profile(
    name=_NAME,
    gender=Gender.FEMALE,
    networks=("Springfield",),
    high_schools=(FROZEN[2],),
    birthday=_BIRTHDAY,
    wall_posts=[FROZEN[4]],
    contact_info=FROZEN[3],
)

MUTABLE = [
    _PROFILE,
    Account(
        user_id=9,
        profile=_PROFILE,
        registered_birthday=Birthday(1990),
        real_birthday=_BIRTHDAY,
        settings=FROZEN[5],
        person_id=4,
    ),
    Person(
        person_id=4,
        name=_NAME,
        gender=Gender.FEMALE,
        birth_year_fraction=1996.25,
        role=Role.STUDENT,
        city="Springfield",
        school_index=0,
        cohort_year=2014,
        household_id=2,
        street_address="12 Oak St",
    ),
]

RECORDS = FROZEN + MUTABLE


def _id(record):
    return type(record).__name__


@pytest.mark.parametrize("record", RECORDS, ids=_id)
class TestSlottedLayout:
    def test_has_slots_and_no_instance_dict(self, record):
        cls = type(record)
        assert "__slots__" in vars(cls)
        assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}
        assert not hasattr(record, "__dict__")

    def test_takes_no_undeclared_attribute(self, record):
        with pytest.raises((AttributeError, TypeError)):
            record.undeclared = 1

    def test_survives_replace(self, record):
        assert dataclasses.replace(record) == record
        first = dataclasses.fields(record)[0].name
        value = getattr(record, first)
        assert getattr(dataclasses.replace(record, **{first: value}), first) == value

    def test_survives_copy(self, record):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record

    def test_survives_a_pickle_round_trip(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        assert clone == record


@pytest.mark.parametrize("record", FROZEN, ids=_id)
def test_frozen_records_refuse_assignment(record):
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))


@pytest.mark.parametrize("record", MUTABLE, ids=_id)
def test_mutable_records_take_their_fields(record):
    clone = copy.copy(record)
    first = dataclasses.fields(record)[0].name
    setattr(clone, first, 12345)
    assert getattr(clone, first) == 12345
    assert clone != record
