"""The columnar world layout: parallel typed columns keyed by integer id.

Two tables:

* **people** — one row per ground-truth person (row index == person id):
  birth instant, role, gender, school/cohort, attendance, household and
  interned name/city/address ids.
* **accounts** — one row per OSN account (row index == user id; worldgen
  assigns uids densely in creation order): the person behind it, both
  birth dates, creation instant, and the complete privacy configuration
  packed into one 64-bit lattice word.

Strings live once in :class:`StringTable` vocabularies; columns hold
int32 ids.  Sentinel ``-1`` encodes "absent" everywhere a legacy field
is ``Optional``.

The privacy word packs, in ascending bit order: 17 per-field audiences
(2 bits each), a 17-bit "explicitly set" mask (so the exact legacy
``audiences`` mapping — not just its effective lookup — round-trips),
the default audience, the public-search flag and the message audience.
Decoding rebuilds a :class:`~repro.osn.privacy.PrivacySettings` that
compares **equal** to the original dataclass; the equivalence suite in
``tests/test_colgen_equivalence.py`` holds the layout to that bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

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

from .csr import CSRGraph

#: Fixed field order for the packed audiences (declaration order is part
#: of the on-disk/in-memory contract; never reorder without a version bump).
PRIVACY_FIELD_ORDER: Tuple[ProfileField, ...] = tuple(ProfileField)

_N_FIELDS = len(PRIVACY_FIELD_ORDER)
_MASK_SHIFT = 2 * _N_FIELDS
_DEFAULT_SHIFT = _MASK_SHIFT + _N_FIELDS
_SEARCH_SHIFT = _DEFAULT_SHIFT + 2
_MESSAGE_SHIFT = _SEARCH_SHIFT + 1

assert _MESSAGE_SHIFT + 2 <= 64, "privacy word must fit in 64 bits"

#: Public aliases for the vectorised generator, which edits packed words
#: in bulk instead of round-tripping through PrivacySettings objects.
PRIVACY_SEARCH_SHIFT = _SEARCH_SHIFT
PRIVACY_MESSAGE_SHIFT = _MESSAGE_SHIFT
PRIVACY_DEFAULT_SHIFT = _DEFAULT_SHIFT

_FIELD_POSITION: Dict[ProfileField, int] = {
    f: i for i, f in enumerate(PRIVACY_FIELD_ORDER)
}


def audience_shift(field_: ProfileField) -> int:
    """Bit offset of one field's 2-bit audience inside the packed word."""
    return 2 * _FIELD_POSITION[field_]


def pack_privacy(settings: PrivacySettings) -> int:
    """Pack a :class:`PrivacySettings` into one 64-bit word."""
    word = 0
    for i, field_ in enumerate(PRIVACY_FIELD_ORDER):
        if field_ in settings.audiences:
            word |= 1 << (_MASK_SHIFT + i)
            word |= int(settings.audiences[field_]) << (2 * i)
    word |= int(settings.default) << _DEFAULT_SHIFT
    word |= int(bool(settings.public_search)) << _SEARCH_SHIFT
    word |= int(settings.message_audience) << _MESSAGE_SHIFT
    return word


def unpack_privacy(word: int) -> PrivacySettings:
    """Rebuild the exact :class:`PrivacySettings` a word was packed from."""
    word = int(word)
    audiences: Dict[ProfileField, Audience] = {}
    for i, field_ in enumerate(PRIVACY_FIELD_ORDER):
        if word >> (_MASK_SHIFT + i) & 1:
            audiences[field_] = Audience(word >> (2 * i) & 0b11)
    return PrivacySettings(
        audiences=audiences,
        default=Audience(word >> _DEFAULT_SHIFT & 0b11),
        public_search=bool(word >> _SEARCH_SHIFT & 1),
        message_audience=Audience(word >> _MESSAGE_SHIFT & 0b11),
    )


class StringTable:
    """An interning vocabulary: string <-> dense int32 id."""

    def __init__(self, values: Optional[List[str]] = None) -> None:
        self.values: List[str] = list(values or [])
        self._ids: Dict[str, int] = {v: i for i, v in enumerate(self.values)}

    def intern(self, value: Optional[str]) -> int:
        """Id for ``value`` (interning it if new); -1 for ``None``."""
        if value is None:
            return -1
        found = self._ids.get(value)
        if found is None:
            found = len(self.values)
            self.values.append(value)
            self._ids[value] = found
        return found

    def lookup(self, string_id: int) -> Optional[str]:
        return None if string_id < 0 else self.values[string_id]

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class PeopleColumns:
    """The ground-truth population as parallel columns (row == person id)."""

    birth_year_fraction: np.ndarray
    role: np.ndarray            # Role ordinal (views.ROLE_ORDER)
    gender: np.ndarray          # Gender ordinal (views.GENDER_ORDER)
    school_index: np.ndarray    # -1 when unaffiliated
    cohort_year: np.ndarray     # -1 when not cohorted
    tenure_years: np.ndarray
    left_years_ago: np.ndarray
    household_id: np.ndarray    # -1 when no household
    first_name_id: np.ndarray
    last_name_id: np.ndarray
    city_id: np.ndarray
    street_id: np.ndarray       # -1 when no street address

    def __len__(self) -> int:
        return len(self.role)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f).nbytes for f in self.__dataclass_fields__)


@dataclass
class AccountColumns:
    """Every OSN account as parallel columns (row == user id)."""

    person_id: np.ndarray            # -1 for accounts with no ground-truth person
    registered_birth_year: np.ndarray
    registered_birth_fraction: np.ndarray
    real_birth_year: np.ndarray
    real_birth_fraction: np.ndarray
    created_at_year: np.ndarray
    is_fake: np.ndarray
    privacy: np.ndarray              # 64-bit packed words (pack_privacy)

    def __len__(self) -> int:
        return len(self.person_id)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f).nbytes for f in self.__dataclass_fields__)


#: Gender ordinals for :class:`ProfileColumns` (mirrors views.GENDER_ORDER;
#: duplicated here so columns.py stays import-cycle-free with views.py).
GENDER_ORDER: Tuple[Gender, ...] = tuple(Gender)


@dataclass
class ProfileColumns:
    """Every account's *profile* as parallel columns (row == account row).

    Filled by :func:`~repro.colgen.encode.encode_world` so the columnar
    serve path (:mod:`repro.colgen.serve`) can rebuild each
    :class:`~repro.osn.profile.Profile` exactly — field-for-field equal
    to the object world's, which is what makes columnar page serving
    byte-identical.  Native vectorised tiers carry no profile columns
    (``ColumnarWorld.profiles is None``) and serve a documented
    synthesised projection instead.

    Variable-length fields (networks, school affiliations, wall posts)
    are ragged arrays: ``<x>_indptr`` of length ``n_accounts + 1``
    delimits row ``i``'s slice of the value columns, CSR-style.  All
    strings are ids into one shared profile vocabulary; ``-1`` is
    ``None`` throughout.
    """

    first_name_id: np.ndarray
    last_name_id: np.ndarray
    gender: np.ndarray              # Gender ordinal (GENDER_ORDER)
    has_profile_photo: np.ndarray
    has_birthday: np.ndarray        # whether profile.birthday was set
    birthday_year: np.ndarray       # -1 when no birthday
    birthday_fraction: np.ndarray
    relationship_id: np.ndarray
    interested_in_id: np.ndarray
    hometown_id: np.ndarray
    current_city_id: np.ndarray
    employer_id: np.ndarray
    graduate_school_id: np.ndarray
    photo_count: np.ndarray
    has_contact: np.ndarray         # whether profile.contact_info was set
    contact_email_id: np.ndarray
    contact_phone_id: np.ndarray
    contact_im_id: np.ndarray
    contact_street_id: np.ndarray
    networks_indptr: np.ndarray
    network_id: np.ndarray
    hs_indptr: np.ndarray
    hs_school_id: np.ndarray
    hs_name_id: np.ndarray
    hs_grad_year: np.ndarray        # -1 when no graduation year
    wall_indptr: np.ndarray
    wall_author: np.ndarray
    wall_text_id: np.ndarray

    def __len__(self) -> int:
        return len(self.gender)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f).nbytes for f in self.__dataclass_fields__)


def decode_profile(
    cols: ProfileColumns, strings: "StringTable", row: int
) -> Profile:
    """Rebuild row ``row``'s exact legacy :class:`Profile` object."""
    lookup = strings.lookup
    birthday = None
    if cols.has_birthday[row]:
        birthday = Birthday(
            year=int(cols.birthday_year[row]),
            fraction=float(cols.birthday_fraction[row]),
        )
    contact = None
    if cols.has_contact[row]:
        contact = ContactInfo(
            email=lookup(int(cols.contact_email_id[row])),
            phone=lookup(int(cols.contact_phone_id[row])),
            im_screen_name=lookup(int(cols.contact_im_id[row])),
            street_address=lookup(int(cols.contact_street_id[row])),
        )
    nw_lo, nw_hi = int(cols.networks_indptr[row]), int(cols.networks_indptr[row + 1])
    hs_lo, hs_hi = int(cols.hs_indptr[row]), int(cols.hs_indptr[row + 1])
    wp_lo, wp_hi = int(cols.wall_indptr[row]), int(cols.wall_indptr[row + 1])
    return Profile(
        name=Name(
            first=lookup(int(cols.first_name_id[row])) or "",
            last=lookup(int(cols.last_name_id[row])) or "",
        ),
        gender=GENDER_ORDER[int(cols.gender[row])],
        networks=tuple(
            lookup(int(cols.network_id[i])) or "" for i in range(nw_lo, nw_hi)
        ),
        has_profile_photo=bool(cols.has_profile_photo[row]),
        high_schools=tuple(
            SchoolAffiliation(
                school_id=int(cols.hs_school_id[i]),
                school_name=lookup(int(cols.hs_name_id[i])) or "",
                graduation_year=(
                    int(cols.hs_grad_year[i])
                    if int(cols.hs_grad_year[i]) >= 0
                    else None
                ),
            )
            for i in range(hs_lo, hs_hi)
        ),
        relationship_status=lookup(int(cols.relationship_id[row])),
        interested_in=lookup(int(cols.interested_in_id[row])),
        birthday=birthday,
        hometown=lookup(int(cols.hometown_id[row])),
        current_city=lookup(int(cols.current_city_id[row])),
        employer=lookup(int(cols.employer_id[row])),
        graduate_school=lookup(int(cols.graduate_school_id[row])),
        photo_count=int(cols.photo_count[row]),
        wall_posts=[
            WallPost(
                author_id=int(cols.wall_author[i]),
                text=lookup(int(cols.wall_text_id[i])) or "",
            )
            for i in range(wp_lo, wp_hi)
        ],
        contact_info=contact,
    )


@dataclass
class ColumnarWorld:
    """A generated world in columnar form.

    This is the scale-proof representation: ~100 bytes/person of columns
    plus 8 bytes per friendship endpoint, versus multiple kilobytes per
    user on the object path.  The lazy object API over it lives in
    :mod:`repro.colgen.views`; ``csr`` is ``None`` only for
    generation-only tiers (``metro``) that never materialise adjacency.
    """

    tier: str
    seed: int
    observation_year: float
    people: PeopleColumns
    accounts: AccountColumns
    csr: Optional[CSRGraph]
    names: StringTable
    cities: StringTable
    streets: StringTable
    #: first user id (legacy worldgen starts at 1; native tiers at 0).
    #: Row ``i`` of the account and profile columns holds user
    #: ``uid_base + i``; CSR row ``u`` holds user ``u`` (an encoded
    #: world's row 0 is empty).  The public API below always speaks raw
    #: user ids.
    uid_base: int = 0
    #: (name, city) per school index, aligned with ``people.school_index``.
    schools: List[Tuple[str, str]] = field(default_factory=list)
    #: person id -> user id (dense dict; built by encoder/generator)
    person_to_user: Dict[int, int] = field(default_factory=dict)
    #: native tiers assign row i of both tables to the same entity, so
    #: person id == user id and no million-entry mapping dict is built.
    identity_mapping: bool = False
    #: phase timings and counters filled in by the generator/bench layer.
    stats: Dict[str, float] = field(default_factory=dict)
    #: exact per-account profile columns (encoder-built worlds only;
    #: ``None`` on native tiers, which synthesise profiles at serve time).
    profiles: Optional[ProfileColumns] = None
    #: vocabulary for every string referenced by ``profiles``.
    profile_strings: StringTable = field(default_factory=StringTable)
    #: the *complete* school directory as served — (school_id, name,
    #: city, enrollment_hint) — including noise schools that
    #: ``schools`` (config schools only, aligned with
    #: ``people.school_index``) does not carry.
    directory: List[Tuple[int, str, str, Optional[int]]] = field(
        default_factory=list
    )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def n_people(self) -> int:
        return len(self.people)

    @property
    def n_accounts(self) -> int:
        return len(self.accounts)

    @property
    def n_edges(self) -> int:
        return self.csr.edge_count() if self.csr is not None else 0

    @property
    def column_nbytes(self) -> int:
        return self.people.nbytes + self.accounts.nbytes

    @property
    def graph_nbytes(self) -> int:
        return self.csr.nbytes if self.csr is not None else 0

    # ------------------------------------------------------------------
    # Id mapping (AccountIndex vocabulary)
    # ------------------------------------------------------------------
    def user_for(self, person_id: int) -> Optional[int]:
        if self.identity_mapping:
            if 0 <= person_id < self.n_accounts:
                return person_id + self.uid_base
            return None
        return self.person_to_user.get(person_id)

    def person_for(self, user_id: int) -> Optional[int]:
        pid = int(self.accounts.person_id[self._row(user_id)])
        return None if pid < 0 else pid

    def _row(self, user_id: int) -> int:
        """Column/CSR row for a raw user id."""
        row = user_id - self.uid_base
        if not 0 <= row < self.n_accounts:
            raise IndexError(f"unknown user id {user_id}")
        return row

    # ------------------------------------------------------------------
    # Friendship queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The adjacency for reads; a generation-only tier has none."""
        if self.csr is None:
            raise RuntimeError(
                f"tier {self.tier!r} is generation-only: no adjacency was "
                "materialised (columns and degrees only)"
            )
        return self.csr

    def friends(self, user_id: int) -> List[int]:
        """Sorted friend ids of ``user_id``."""
        return self.graph.neighbors_list(user_id)

    def friend_set(self, user_id: int) -> frozenset:
        return frozenset(self.friends(user_id))

    def degree(self, user_id: int) -> int:
        return self.graph.degree(user_id)

    def are_friends(self, a: int, b: int) -> bool:
        return self.graph.are_friends(a, b)

    # ------------------------------------------------------------------
    # Privacy / ages
    # ------------------------------------------------------------------
    def privacy_settings(self, user_id: int) -> PrivacySettings:
        """The account's privacy configuration, decoded lazily."""
        return unpack_privacy(self.accounts.privacy[self._row(user_id)])

    def registered_birth_instant(self, user_id: int) -> float:
        row = self._row(user_id)
        return float(self.accounts.registered_birth_year[row]) + float(
            self.accounts.registered_birth_fraction[row]
        )

    def real_birth_instant(self, user_id: int) -> float:
        row = self._row(user_id)
        return float(self.accounts.real_birth_year[row]) + float(
            self.accounts.real_birth_fraction[row]
        )

    def is_registered_minor(self, user_id: int, adult_age: float = 18.0) -> bool:
        return self.observation_year - self.registered_birth_instant(user_id) < adult_age
