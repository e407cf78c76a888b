"""Serve the OSN's HTML surface directly off a :class:`ColumnarWorld`.

:class:`ColumnarNetwork` is the columnar store under
:class:`~repro.osn.network.BaseNetwork`: relationship classification,
profile views, friend pages, both search surfaces, the school directory
and the contact verbs are the base's code, shared with the object
:class:`~repro.osn.network.SocialNetwork`, and this module implements
only the storage surface they read, off the flat columns and CSR
adjacency instead of per-account objects.  That is what unlocks
city-tier crawls: a million-account world held as ~100 bytes/user of
columns is served page-by-page without ever materialising a million
``Account`` objects.

Two serving regimes:

* **Encoder-built worlds** (``world.profiles is not None``): every
  profile field was column-packed losslessly, all pages render through
  the same :func:`~repro.osn.network.render_profile_view` + template
  pipeline as the object path, and the output is **byte-identical** to
  the object world's (``tests/test_colgen_serve.py`` holds it there).
* **Native vectorised tiers** (``world.profiles is None``): the
  generator never built profile objects, so the serve path synthesises
  a documented projection per account — name/gender/city from the
  person columns, one school affiliation from ``school_index`` /
  ``cohort_year``, registered birthday from the account columns, and
  empty wall/photo/contact surfaces.

The whole read path is mutation-free (PURE001 proves it across the
frontend call graph).  Everything it consults is built eagerly in
``__init__``: per-school member row arrays, and one decoded
:class:`PrivacySettings` per distinct packed privacy word, shared by
every account carrying that word — settings are frozen and nothing on
the read path mutates them.  Search eligibility is one vectorised
:meth:`~repro.osn.policy.SitePolicy.school_search_mask` over a school's
member rows, so no ``Account`` is decoded to answer it, and a listing
page reads its display names with one gather per name column.
``Account`` views for profile pages and the remaining policy checks
are assembled per call from the columns, never cached.  The only
mutable state is the POST-only
:class:`~repro.osn.messaging.ContactService` and the attacker overlay
registered up front via :meth:`add_session_accounts`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.osn.clock import SimClock
from repro.osn.frontend import HtmlFrontend
from repro.osn.network import BaseNetwork, School
from repro.osn.policy import SitePolicy
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile, SchoolAffiliation
from repro.osn.ratelimit import RateLimitConfig
from repro.osn.rendercache import RenderCache
from repro.osn.user import Account

from .backend import np, require_numpy
from .columns import (
    PRIVACY_SEARCH_SHIFT,
    ColumnarWorld,
    decode_profile,
    unpack_privacy,
)
from .views import GENDER_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.runtime import Telemetry

#: Shared sentinel profile for *eligibility* account views: policy
#: predicates (friend-list audience, message button, minor status) read
#: only ``settings`` and ``registered_birthday``, so those checks skip
#: the full profile decode.  Never rendered.
_ELIGIBILITY_PROFILE = Profile(name=Name("", ""))


def _school_member_rows(world: ColumnarWorld) -> Dict[int, "np.ndarray"]:
    """School id -> ascending member rows: the serve path's scan index.

    Grouped with one stable sort, so rows stay ascending within each
    school.  There is one entry per listed affiliation: an account that
    lists a school twice appears twice, exactly as the object network's
    registration-time ``_index_member`` appends it.
    """
    profiles = world.profiles
    if profiles is not None:
        listed = np.diff(profiles.hs_indptr)
        rows = np.repeat(np.arange(world.n_accounts, dtype=np.int64), listed)
        school_ids = np.asarray(profiles.hs_school_id, dtype=np.int64)
    else:
        person = np.asarray(world.accounts.person_id, dtype=np.int64)
        # Drop person-less rows first: a -1 index would silently wrap.
        rows = np.flatnonzero(person >= 0)
        school_ids = world.people.school_index[person[rows]].astype(np.int64) + 1
        affiliated = school_ids > 0
        rows, school_ids = rows[affiliated], school_ids[affiliated]
    order = np.argsort(school_ids, kind="stable")
    ids, starts = np.unique(school_ids[order], return_index=True)
    return dict(zip(ids.tolist(), np.split(rows[order], starts[1:])))


class ColumnarNetwork(BaseNetwork):
    """The columnar store: :class:`BaseNetwork`'s reads over columns + CSR.

    Constructor knobs are :class:`BaseNetwork`'s, so a columnar server
    can be configured identically to the object world it was encoded
    from; the clock defaults to the world's observation year and
    ``search_salt`` to the world's generation seed, which is exactly
    what ``build_world`` passes on the object path.
    """

    # bench/trace.py wraps these eight reads from each class's own
    # __dict__, so each store binds them itself.
    relationship = BaseNetwork.relationship
    view_profile = BaseNetwork.view_profile
    friend_page = BaseNetwork.friend_page
    school_search = BaseNetwork.school_search
    graph_search = BaseNetwork.graph_search
    get_school = BaseNetwork.get_school
    can_message = BaseNetwork.can_message
    is_registered_minor = BaseNetwork.is_registered_minor

    def __init__(
        self,
        world: ColumnarWorld,
        policy: Optional[SitePolicy] = None,
        clock: Optional[SimClock] = None,
        *,
        search_salt: Optional[int] = None,
        **knobs: Any,
    ) -> None:
        require_numpy("columnar serving")
        super().__init__(
            policy,
            clock or SimClock(now_year=world.observation_year),
            search_salt=world.seed if search_salt is None else search_salt,
            **knobs,
        )
        self.world = world
        #: session (attacker) accounts laid over the immutable columns.
        self._overlay: Dict[int, Account] = {}

        # School directory: encoder worlds carry the complete served
        # directory (config + noise schools); native tiers synthesise
        # ids 1..n from the generator's school list, matching the
        # registration order the object path would have used.
        if world.directory:
            self.schools = {
                sid: School(sid, name, city, hint)
                for sid, name, city, hint in world.directory
            }
        else:
            self.schools = {
                i + 1: School(i + 1, name, city, None)
                for i, (name, city) in enumerate(world.schools)
            }

        self._school_rows = _school_member_rows(world)
        #: One decoded settings object per distinct packed word, shared
        #: by every account that carries the word.
        self._settings_by_word: Dict[int, PrivacySettings] = {
            word: unpack_privacy(word)
            for word in np.unique(world.accounts.privacy).tolist()
        }

    # ------------------------------------------------------------------
    # Session (attacker) accounts
    # ------------------------------------------------------------------
    def add_session_accounts(self, count: int) -> List[int]:
        """Register ``count`` fake crawl accounts over the columns.

        Mirrors ``World.create_attacker_accounts`` — same profiles, same
        privacy settings, and uids continuing exactly where the encoded
        world's dense range ends, so a columnar crawl sees the same
        account numbering as an object crawl of the same world.  The
        columns themselves are immutable, so this is the only verb that
        bumps :attr:`version`.
        """
        uids: List[int] = []
        world = self.world
        for i in range(count):
            uid = world.uid_base + world.n_accounts + len(self._overlay)
            account = Account(
                user_id=uid,
                profile=Profile(name=Name("Crawl", f"Account{i}")),
                registered_birthday=Birthday(1985),
                real_birthday=Birthday(1985),
                settings=PrivacySettings.everything_private(),
                person_id=None,
                created_at_year=self.clock.now_year,
                is_fake=True,
            )
            self._overlay[uid] = account
            self.bump_version()
            uids.append(uid)
        return uids

    # ------------------------------------------------------------------
    # Account decoding (lazy views; never cached, so reads stay pure)
    # ------------------------------------------------------------------
    def _has_uid(self, user_id: int) -> bool:
        if user_id in self._overlay:
            return True
        return 0 <= user_id - self.world.uid_base < self.world.n_accounts

    def _row(self, user_id: int) -> int:
        return user_id - self.world.uid_base

    def _account(self, user_id: int, profile: Profile) -> Account:
        """Assemble an :class:`Account` around ``profile`` from columns."""
        world = self.world
        row = self._row(user_id)
        acc = world.accounts
        pid = int(acc.person_id[row])
        return Account(
            user_id=user_id,
            profile=profile,
            registered_birthday=Birthday(
                year=int(acc.registered_birth_year[row]),
                fraction=float(acc.registered_birth_fraction[row]),
            ),
            real_birthday=Birthday(
                year=int(acc.real_birth_year[row]),
                fraction=float(acc.real_birth_fraction[row]),
            ),
            settings=self._settings_by_word[int(acc.privacy[row])],
            person_id=None if pid < 0 else pid,
            created_at_year=float(acc.created_at_year[row]),
            is_fake=bool(int(acc.is_fake[row])),
        )

    def _light_account(self, user_id: int) -> Account:
        """Eligibility view: exact settings/birthdays, sentinel profile."""
        overlay = self._overlay.get(user_id)
        if overlay is not None:
            return overlay
        return self._account(user_id, _ELIGIBILITY_PROFILE)

    def get_account(self, user_id: int) -> Account:
        """Full account view (profile decoded); raises on unknown uid."""
        overlay = self._overlay.get(user_id)
        if overlay is not None:
            return overlay
        self._check_uid(user_id)
        return self._account(user_id, self._full_profile(self._row(user_id)))

    def _full_profile(self, row: int) -> Profile:
        world = self.world
        if world.profiles is not None:
            return decode_profile(world.profiles, world.profile_strings, row)
        return self._synth_profile(row)

    def _synth_profile(self, row: int) -> Profile:
        """The native tiers' documented profile projection (see module doc)."""
        world = self.world
        pid = int(world.accounts.person_id[row])
        if pid < 0:
            return Profile(name=Name("", ""))
        people = world.people
        lookup = world.names.lookup
        name = Name(
            lookup(int(people.first_name_id[pid])) or "",
            lookup(int(people.last_name_id[pid])) or "",
        )
        city = world.cities.lookup(int(people.city_id[pid]))
        idx = int(people.school_index[pid])
        cohort = int(people.cohort_year[pid])
        affiliations: Tuple[SchoolAffiliation, ...] = ()
        if idx >= 0:
            school = self.schools.get(idx + 1)
            affiliations = (
                SchoolAffiliation(
                    school_id=idx + 1,
                    school_name=school.name if school is not None else "",
                    graduation_year=cohort if cohort >= 0 else None,
                ),
            )
        return Profile(
            name=name,
            gender=GENDER_ORDER[int(people.gender[pid])],
            high_schools=affiliations,
            hometown=city,
            current_city=city,
        )

    def _display_names(self, user_ids: List[int]) -> List[str]:
        """Display names read in one gather per name column.

        Listings only ever hold column rows: overlay accounts are
        friendless and list no school, so no listing can contain one.
        """
        world = self.world
        rows = np.asarray(user_ids, dtype=np.int64) - world.uid_base
        profiles = world.profiles
        if profiles is not None:
            lookup = world.profile_strings.lookup
            firsts = profiles.first_name_id[rows].tolist()
            lasts = profiles.last_name_id[rows].tolist()
            return [
                Name(lookup(first) or "", lookup(last) or "").full
                for first, last in zip(firsts, lasts)
            ]
        lookup = world.names.lookup
        people = world.people
        pids = world.accounts.person_id[rows]
        # A -1 person id gathers a wrapped row; its name is blanked.
        return [
            Name(lookup(first) or "", lookup(last) or "").full if pid >= 0 else ""
            for pid, first, last in zip(
                pids.tolist(),
                people.first_name_id[pids].tolist(),
                people.last_name_id[pids].tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # Graph queries (CSR; overlay accounts are friendless by design)
    # ------------------------------------------------------------------
    def _are_friends(self, a: int, b: int) -> bool:
        if a in self._overlay or b in self._overlay:
            return False
        return self.world.are_friends(a, b)

    def _has_mutual_friend(self, a: int, b: int) -> bool:
        if a in self._overlay or b in self._overlay:
            return False
        graph = self.world.csr
        if graph is None:
            raise RuntimeError(
                f"tier {self.world.tier!r} is generation-only: no adjacency"
            )
        return graph.mutual_friend_count(self._row(a), self._row(b)) > 0

    def _friend_ids(self, user_id: int) -> List[int]:
        if user_id in self._overlay:
            return []
        return self.world.friends(user_id)

    def _network_ids(self, user_id: int) -> Tuple[int, ...]:
        """Interned ids of ``profile.networks`` (shared vocabulary)."""
        if user_id in self._overlay:
            return ()
        profiles = self.world.profiles
        if profiles is None:
            return ()
        row = self._row(user_id)
        lo = int(profiles.networks_indptr[row])
        hi = int(profiles.networks_indptr[row + 1])
        return tuple(int(profiles.network_id[i]) for i in range(lo, hi))

    def _share_network(self, a: int, b: int) -> bool:
        return bool(set(self._network_ids(a)) & set(self._network_ids(b)))

    # ------------------------------------------------------------------
    # Search (school index, eligibility mask, Graph Search filters)
    # ------------------------------------------------------------------
    def _eligible_member_ids(self, school_id: int) -> List[int]:
        """Ascending uids of the school's members that people search may
        return: one vectorised policy mask, no account decoded."""
        rows = self._school_rows.get(school_id)
        if rows is None:
            return []
        acc = self.world.accounts
        eligible = self.policy.school_search_mask(
            acc.registered_birth_year[rows],
            acc.registered_birth_fraction[rows],
            ((acc.privacy[rows] >> PRIVACY_SEARCH_SHIFT) & 1).astype(bool),
            self.clock.now_year,
        )
        return (rows[eligible] + self.world.uid_base).tolist()

    def _affiliation_for(
        self, user_id: int, school_id: int
    ) -> Optional[SchoolAffiliation]:
        world = self.world
        row = self._row(user_id)
        profiles = world.profiles
        if profiles is not None:
            lo = int(profiles.hs_indptr[row])
            hi = int(profiles.hs_indptr[row + 1])
            for i in range(lo, hi):
                if int(profiles.hs_school_id[i]) == school_id:
                    grad = int(profiles.hs_grad_year[i])
                    return SchoolAffiliation(
                        school_id=school_id,
                        school_name=world.profile_strings.lookup(
                            int(profiles.hs_name_id[i])
                        )
                        or "",
                        graduation_year=grad if grad >= 0 else None,
                    )
            return None
        pid = int(world.accounts.person_id[row])
        if pid < 0 or int(world.people.school_index[pid]) + 1 != school_id:
            return None
        school = self.schools.get(school_id)
        cohort = int(world.people.cohort_year[pid])
        return SchoolAffiliation(
            school_id=school_id,
            school_name=school.name if school is not None else "",
            graduation_year=cohort if cohort >= 0 else None,
        )

    def _current_city(self, user_id: int) -> Optional[str]:
        world = self.world
        row = self._row(user_id)
        profiles = world.profiles
        if profiles is not None:
            return world.profile_strings.lookup(
                int(profiles.current_city_id[row])
            )
        pid = int(world.accounts.person_id[row])
        if pid < 0:
            return None
        return world.cities.lookup(int(world.people.city_id[pid]))


def columnar_frontend(
    world: ColumnarWorld,
    *,
    policy: Optional[SitePolicy] = None,
    reverse_lookup_enabled: bool = True,
    search_result_cap: int = 256,
    search_page_size: int = 20,
    friends_page_size: int = 20,
    search_salt: Optional[int] = None,
    rate_limit: Optional[RateLimitConfig] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional[RenderCache] = None,
) -> HtmlFrontend:
    """Stand up an :class:`HtmlFrontend` over a columnar world.

    Returns a frontend whose ``network`` is a :class:`ColumnarNetwork`;
    call ``frontend.network.add_session_accounts(n)`` to mint crawl
    accounts.  Pass the same policy/cap/rate-limit knobs the object
    world was built with to get byte-identical pages.
    """
    network = ColumnarNetwork(
        world,
        policy=policy,
        reverse_lookup_enabled=reverse_lookup_enabled,
        search_result_cap=search_result_cap,
        search_page_size=search_page_size,
        friends_page_size=friends_page_size,
        search_salt=search_salt,
    )
    return HtmlFrontend(network, rate_limit, telemetry=telemetry, cache=cache)


def frontend_for_object_world(
    world: "object",
    *,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional[RenderCache] = None,
) -> HtmlFrontend:
    """Encode a built object :class:`~repro.worldgen.world.World` and
    serve it with *identical* knobs.

    Copies the policy, search/paging caps, salt and rate-limit config
    straight off ``world.config`` — the exact values ``build_world``
    wired into the object frontend — so the returned frontend's pages
    are byte-for-byte those of ``world.frontend``.  This is the
    drop-in used by ``--serve columnar`` on paper-tier presets.
    """
    from repro.osn.policy import policy_by_name

    from .encode import encode_world

    config = world.config  # type: ignore[attr-defined]
    columnar = encode_world(world)  # type: ignore[arg-type]
    return columnar_frontend(
        columnar,
        policy=policy_by_name(config.site),
        search_result_cap=config.osn.search_result_cap,
        search_page_size=config.osn.search_page_size,
        friends_page_size=config.osn.friends_page_size,
        search_salt=config.seed,
        rate_limit=RateLimitConfig(
            max_requests=config.osn.rate_limit_max_requests,
            window_seconds=config.osn.rate_limit_window_seconds,
        ),
        telemetry=telemetry,
        cache=cache,
    )


def session_accounts(frontend: HtmlFrontend, count: int) -> list:
    """Register ``count`` crawl accounts on a columnar-served frontend.

    The simulator-side door for callers that hold only the frontend:
    reaching through ``frontend.network`` from CLI/bench code would
    cross the oracle boundary the lint polices, so the one-line reach
    lives here, inside the simulator layer.
    """
    return frontend.network.add_session_accounts(count)


def first_school_id(frontend: HtmlFrontend) -> int:
    """The lowest school id a columnar-served frontend knows about.

    Native tiers have no object ``World`` to ask; this is the
    simulator-side equivalent of ``world.school().school_id``.
    """
    return min(frontend.network.schools)
