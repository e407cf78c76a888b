"""The simulated Online Social Network.

:class:`BaseNetwork` answers the only questions the outside world may
ask, and writes each answer once:

* ``view_profile(viewer, target)`` — the policy-filtered profile view;
* ``friend_page(viewer, target, offset)`` — one page (20 entries, the
  paper's ``p = 20``) of a friend list, *if* it is visible, with the
  Section-8 reverse-lookup countermeasure applied when enabled;
* ``school_search(...)`` — the Find Friends Portal: registered adults
  associated with a school, truncated per account, never minors;
* ``graph_search(...)`` — structured queries ("current students at HS1
  who live in city C"), with the same minor exclusion;
* ``send_message`` / ``send_friend_request`` — the contact verbs.

Two stores subclass it and implement only a narrow storage surface
(see :class:`BaseNetwork`): :class:`SocialNetwork` keeps accounts as
objects in dicts and owns the write verbs that build a world;
``ColumnarNetwork`` (:mod:`repro.colgen.serve`) reads the same facts off
flat columns for city-tier worlds.  Both keep their friendships in one
:class:`~repro.colgen.csr.CSRGraph` with a row per uid, so the base
reads the graph itself.  The tiers differ in storage, not in code path.

Everything the crawler does goes through the HTML frontend
(``repro.osn.frontend``) which in turn calls these methods, so the
attack code can never accidentally peek at ground truth.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .clock import SimClock
from .errors import ForbiddenError, NotFoundError, RegistrationError
from .messaging import ContactService, FriendRequest, Message
from .policy import SitePolicy, facebook_policy
from .privacy import PrivacySettings, ProfileField, Relationship
from .profile import Birthday, Profile, SchoolAffiliation
from .user import Account
from .view import ProfileView, WallPostView, build_profile_view


@dataclass(frozen=True)
class School:
    """An entry in the OSN's school directory.

    ``enrollment_hint`` models the approximate school size an attacker
    can look up on Wikipedia (the paper's step 6 uses it to pick the
    threshold ``t``).
    """

    school_id: int
    name: str
    city: str
    enrollment_hint: Optional[int] = None


class DirectoryEntry(NamedTuple):
    """A search result or friend-list row: id plus display name.

    A named tuple: immutable, and cheaper to build than a frozen
    dataclass, with the same ``repr`` and hash (the hash of
    ``(user_id, name)``).  Every listing page serves or parses 20.
    """

    user_id: int
    name: str


def directory_entries(
    user_ids: Iterable[int], names: Iterable[str]
) -> List[DirectoryEntry]:
    """One row per (uid, name) pair, built at C level.

    ``tuple.__new__`` makes each row from its pair directly: the rows
    ``DirectoryEntry._make`` would build, without its Python-level call
    and length check (a pair always has two items).
    """
    return list(map(tuple.__new__, repeat(DirectoryEntry), zip(user_ids, names)))


#: Graph Search's class-year operators: ``year_op`` names how a
#: member's graduation year must compare with the query's ``year``.
YEAR_OPS: Dict[str, Callable[[int, int], bool]] = {
    "in": operator.eq,
    "after": operator.gt,
    "before": operator.lt,
}


@dataclass(frozen=True)
class GraphSearchQuery:
    """A structured Graph-Search-style query.

    ``year_op`` is a key of :data:`YEAR_OPS` or ``None`` (no year
    constraint); ``current_city`` optionally restricts to users
    whose profile lists that city.  ``current_students_only`` mirrors
    "current students at HS1" queries.
    """

    school_id: int
    year_op: Optional[str] = None
    year: Optional[int] = None
    current_city: Optional[str] = None
    current_students_only: bool = False


def render_profile_view(
    policy: SitePolicy, account: Account, rel: Relationship, now: float
) -> ProfileView:
    """Build the policy-filtered view of ``account`` for one viewer class.

    Pure function of (policy, account, relationship, instant).  Both
    stores render through this exact field logic, then through the same
    HTML templates, which is what makes their pages byte-identical.
    The owner's registered-minor status is decided once per view, and
    the policy answers once for every field the relationship sees.
    """
    minor = policy.is_registered_minor(account, now)
    sees = policy.visible_fields(account, rel, now, minor=minor).__contains__
    profile = account.profile
    contact = profile.contact_info
    contact_visible = sees(ProfileField.CONTACT_INFO) and contact is not None
    wall_visible = sees(ProfileField.WALL)
    return build_profile_view(
        user_id=account.user_id,
        name=profile.name.full,
        gender=profile.gender if sees(ProfileField.GENDER) else None,
        networks=profile.networks if sees(ProfileField.NETWORKS) else (),
        has_profile_photo=profile.has_profile_photo and sees(ProfileField.PROFILE_PHOTO),
        high_schools=profile.high_schools if sees(ProfileField.HIGH_SCHOOL) else (),
        relationship_status=(
            profile.relationship_status if sees(ProfileField.RELATIONSHIP) else None
        ),
        interested_in=profile.interested_in if sees(ProfileField.INTERESTED_IN) else None,
        birthday_year=(
            account.registered_birthday.year
            if sees(ProfileField.BIRTHDAY) and profile.birthday is not None
            else None
        ),
        hometown=profile.hometown if sees(ProfileField.HOMETOWN) else None,
        current_city=profile.current_city if sees(ProfileField.CURRENT_CITY) else None,
        employer=profile.employer if sees(ProfileField.EMPLOYER) else None,
        graduate_school=(
            profile.graduate_school if sees(ProfileField.GRADUATE_SCHOOL) else None
        ),
        photo_count=profile.photo_count if sees(ProfileField.PHOTOS) else None,
        wall_post_count=len(profile.wall_posts) if wall_visible else None,
        wall_posts=(
            tuple(
                WallPostView(post.author_id, post.text)
                for post in profile.wall_posts
            )
            if wall_visible
            else ()
        ),
        contact_email=contact.email if contact_visible else None,
        contact_phone=contact.phone if contact_visible else None,
        friend_list_visible=sees(ProfileField.FRIEND_LIST),
        message_button=policy.message_button_visible(account, rel, now, minor=minor),
        public_search_listed=policy.public_search_eligible(account, now, minor=minor),
    )


class BaseNetwork:
    """The OSN's read and contact logic, written once over a store.

    A subclass is a store: it implements the storage surface below, and
    the policy, visibility, paging and search logic here runs unchanged
    on top of it.

    * ``graph``: the friendships, a
      :class:`~repro.colgen.csr.CSRGraph` whose row ``uid`` lists that
      account's friends.  A uid past its rows has none.
    * ``_has_uid(uid)``: whether the account exists.
      ``_light_account(uid)``: an eligibility view of an existing
      account, with exact settings, birthdays and ``disabled`` flag but
      possibly no profile.  ``get_account(uid)``: the full account, or
      :class:`NotFoundError`.
    * ``_share_network(a, b)``: whether two accounts list a common
      network.
    * ``_display_names(uids)``: the display name of each uid.
    * ``_eligible_member_ids(school_id)``: ascending uids of the
      school's members that people search may return.
    * ``_affiliation_for(uid, school_id)`` and ``_current_city(uid)``:
      the two profile fields Graph Search filters on.

    The base declares none of these hooks, so the call-graph lint
    resolves every ``self.<hook>()`` by name to both stores.  The graph
    reads (``_friend_ids``, ``_are_friends``, ``_has_mutual_friend``)
    are the base's own.
    """

    def __init__(
        self,
        policy: Optional[SitePolicy] = None,
        clock: Optional[SimClock] = None,
        *,
        reverse_lookup_enabled: bool = True,
        search_result_cap: int = 256,
        search_page_size: int = 20,
        friends_page_size: int = 20,
        search_salt: int = 0,
    ) -> None:
        self.policy = policy or facebook_policy()
        self.policy.validate()
        self.clock = clock or SimClock()
        self.reverse_lookup_enabled = reverse_lookup_enabled
        self.search_result_cap = search_result_cap
        self.search_page_size = search_page_size
        self.friends_page_size = friends_page_size
        self.search_salt = search_salt

        self.contact = ContactService()
        self.schools: Dict[int, School] = {}
        self._version = 0

    # ------------------------------------------------------------------
    # World version (render-cache invalidation contract)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter bumped on every page-visible world mutation.

        The frontend's render cache holds the pages of one version and
        drops them all on the first lookup at another, so a bump
        invalidates every cached page at once.  Mutating verbs bump it
        automatically; code that mutates accounts *directly* (tests,
        countermeasure sweeps changing privacy settings) must call
        :meth:`bump_version` itself — that is the whole contract.
        Many accounts share one frozen settings object, so change an
        account's settings by replacing ``account.settings`` (for example
        with :meth:`PrivacySettings.with_field`), never by mutating its
        ``audiences``, which would change every account sharing it.
        Display names, like school affiliations, are indexed at
        registration, so a registered account's name is fixed: listings
        read it off that index, and no verb renames an account.
        """
        return self._version

    def bump_version(self) -> None:
        """Invalidate cached page renders after an out-of-band mutation."""
        self._version += 1

    # ------------------------------------------------------------------
    # Directory and accounts
    # ------------------------------------------------------------------
    def get_school(self, school_id: int) -> School:
        try:
            return self.schools[school_id]
        except KeyError:
            raise NotFoundError(f"no such school: {school_id}") from None

    def find_account(self, user_id: int) -> Optional[Account]:
        """The account's eligibility view, or ``None`` for an unknown uid.

        The frontend authenticates sessions with it: only existence and
        the ``disabled`` flag matter there.
        """
        if not self._has_uid(user_id):
            return None
        return self._light_account(user_id)

    def _check_uid(self, user_id: int) -> None:
        if not self._has_uid(user_id):
            raise NotFoundError(f"no such user: {user_id}")

    def is_registered_minor(self, user_id: int) -> bool:
        self._check_uid(user_id)
        return self.policy.is_registered_minor(
            self._light_account(user_id), self.clock.now_year
        )

    # ------------------------------------------------------------------
    # Viewer relationship
    # ------------------------------------------------------------------
    def relationship(self, viewer_id: Optional[int], target_id: int) -> Relationship:
        """The viewer's relationship to the target (paper, Section 3).

        ``viewer_id=None`` models a logged-out visitor: a stranger.
        """
        self._check_uid(target_id)
        if viewer_id is None:
            return Relationship.STRANGER
        if viewer_id == target_id:
            return Relationship.SELF
        self._check_uid(viewer_id)
        if self._are_friends(viewer_id, target_id):
            return Relationship.FRIEND
        if self._has_mutual_friend(viewer_id, target_id):
            return Relationship.FRIEND_OF_FRIEND
        if self._share_network(viewer_id, target_id):
            return Relationship.NETWORK_MEMBER
        return Relationship.STRANGER

    # ------------------------------------------------------------------
    # Profile views
    # ------------------------------------------------------------------
    def view_profile(
        self,
        viewer_id: Optional[int],
        target_id: int,
        rel: Optional[Relationship] = None,
    ) -> ProfileView:
        """Render ``target_id``'s profile as ``viewer_id`` sees it.

        ``rel`` is the viewer's :meth:`relationship` to the target when
        the caller has already classified it (the frontend does, for its
        render-cache key); left out, it is classified here.
        """
        account = self.get_account(target_id)
        if account.disabled:
            raise NotFoundError(f"account {target_id} is deactivated")
        if rel is None:
            rel = self.relationship(viewer_id, target_id)
        return render_profile_view(self.policy, account, rel, self.clock.now_year)

    # ------------------------------------------------------------------
    # Friendship reads (one CSR row per uid in both stores)
    # ------------------------------------------------------------------
    def _friend_ids(self, user_id: int) -> List[int]:
        """Friend uids in ascending order."""
        return self.graph.neighbors_list(user_id)

    def _are_friends(self, a: int, b: int) -> bool:
        return self.graph.are_friends(a, b)

    def _has_mutual_friend(self, a: int, b: int) -> bool:
        return self.graph.mutual_friend_count(a, b) > 0

    def _friend_list_visible(self, account: Account, rel: Relationship) -> bool:
        return self.policy.field_visible_to(
            account, ProfileField.FRIEND_LIST, rel, self.clock.now_year
        )

    # ------------------------------------------------------------------
    # Friend lists (paginated; reverse-lookup countermeasure lives here)
    # ------------------------------------------------------------------
    def friend_page(
        self,
        viewer_id: Optional[int],
        target_id: int,
        offset: int = 0,
        rel: Optional[Relationship] = None,
    ) -> Tuple[int, List[DirectoryEntry]]:
        """One page of ``target_id``'s friend list as seen by the viewer.

        Returns ``(total_visible, entries)``.  Raises
        :class:`ForbiddenError` when the list is not visible at all.
        ``rel`` is as for :meth:`view_profile`.  The page is the list's
        ``[offset : offset + friends_page_size]`` slice, with Python's
        slice rules for any offset.

        When ``reverse_lookup_enabled`` is ``False`` (the Section-8
        countermeasure), a member is omitted from *other people's* friend
        lists whenever their own friend list is hidden from this viewer —
        so users who hide their list (and all registered minors) can no
        longer be discovered through their friends' lists.
        """
        self._check_uid(target_id)
        account = self._light_account(target_id)
        if rel is None:
            rel = self.relationship(viewer_id, target_id)
        if not self._friend_list_visible(account, rel):
            raise ForbiddenError(f"friend list of {target_id} not visible")
        stop = offset + self.friends_page_size
        if self.reverse_lookup_enabled:
            # Every friend is listed: read only the page's ids off the row.
            total = self.graph.degree(target_id)
            page = self.graph.neighbors_slice(target_id, offset, stop)
        else:
            friend_ids = [
                fid
                for fid in self._friend_ids(target_id)
                if self._visible_in_friend_lists(viewer_id, fid)
            ]
            total = len(friend_ids)
            page = friend_ids[offset:stop]
        return total, self._entries(page)

    def _visible_in_friend_lists(self, viewer_id: Optional[int], member_id: int) -> bool:
        """Countermeasure predicate: may ``member_id`` appear in friend lists?"""
        member = self.find_account(member_id)
        if member is None or member.disabled:
            return False
        rel = self.relationship(viewer_id, member_id)
        return self._friend_list_visible(member, rel)

    def _entries(self, user_ids: List[int]) -> List[DirectoryEntry]:
        return directory_entries(user_ids, self._display_names(user_ids))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _search_pool(self, viewer_account_id: int, school_id: int) -> List[int]:
        """The truncated, per-account sample the Find Friends Portal serves.

        Real Facebook returned only a few hundred results per search and
        different (overlapping) result sets to different accounts — the
        paper exploits this by searching from multiple fake accounts.  We
        model it as a deterministic per-account shuffled sample of the
        eligible users, capped at ``search_result_cap``: it depends only
        on (viewer uid, school id, salt), so both stores serve the same
        account the same pool.
        """
        eligible = self._eligible_member_ids(school_id)
        if len(eligible) <= self.search_result_cap:
            return eligible
        rng = random.Random((viewer_account_id * 1_000_003 + school_id) ^ self.search_salt)
        return sorted(rng.sample(eligible, self.search_result_cap))

    def school_search(
        self, viewer_account_id: int, school_id: int, offset: int = 0
    ) -> Tuple[int, List[DirectoryEntry]]:
        """One page of Find-Friends-Portal results for a school.

        Registered minors are *never* returned (the precaution the paper
        verified with ground truth).  Returns ``(total, entries)``.
        """
        self.get_school(school_id)
        self._check_uid(viewer_account_id)
        pool = self._search_pool(viewer_account_id, school_id)
        page = pool[offset : offset + self.search_page_size]
        return len(pool), self._entries(page)

    def graph_search(
        self, viewer_account_id: int, query: GraphSearchQuery
    ) -> List[DirectoryEntry]:
        """Structured search; same eligibility rules as the portal.

        An unknown school raises :class:`NotFoundError`, as the portal
        does, and a ``year_op`` outside :data:`YEAR_OPS`
        :class:`ValueError`, whatever the school holds.
        """
        self.get_school(query.school_id)
        self._check_uid(viewer_account_id)
        year_test = None
        if query.year_op is not None:
            year_test = YEAR_OPS.get(query.year_op)
            if year_test is None:
                raise ValueError(f"bad year_op: {query.year_op!r}")
        if self.search_result_cap <= 0:
            return []
        current_year = self.clock.current_year
        hits: List[int] = []
        for uid in self._eligible_member_ids(query.school_id):
            affiliation = self._affiliation_for(uid, query.school_id)
            if affiliation is None:
                continue
            if query.current_students_only and not affiliation.is_current_student(
                current_year
            ):
                continue
            if year_test is not None:
                grad = affiliation.graduation_year
                if grad is None or query.year is None or not year_test(grad, query.year):
                    continue
            if (
                query.current_city is not None
                and self._current_city(uid) != query.current_city
            ):
                continue
            hits.append(uid)
            if len(hits) >= self.search_result_cap:
                break
        return self._entries(hits)

    # ------------------------------------------------------------------
    # Contact surfaces (messages and friend requests; Section 2 threats)
    # ------------------------------------------------------------------
    def can_message(self, sender_id: int, recipient_id: int) -> bool:
        """Whether the sender sees the recipient's Message button."""
        self._check_uid(recipient_id)
        recipient = self._light_account(recipient_id)
        rel = self.relationship(sender_id, recipient_id)
        return self.policy.message_button_visible(recipient, rel, self.clock.now_year)

    def send_message(self, sender_id: int, recipient_id: int, text: str) -> Message:
        """Deliver a direct message, or raise :class:`ForbiddenError`.

        The policy decides: strangers can never message registered
        minors on Facebook, but *can* message the many minors whose
        lied-about age makes them registered adults (Table 5's
        'Message link' row).
        """
        self._check_uid(sender_id)
        if not self.can_message(sender_id, recipient_id):
            raise ForbiddenError(
                f"user {sender_id} may not message user {recipient_id}"
            )
        message = Message(sender_id, recipient_id, text, self.clock.now_year)
        self.contact.deliver_message(message)
        return message

    def send_friend_request(self, sender_id: int, recipient_id: int) -> bool:
        """Send a friend request (allowed toward anyone, even minors)."""
        self._check_uid(sender_id)
        self._check_uid(recipient_id)
        if self._are_friends(sender_id, recipient_id):
            return False
        return self.contact.add_request(
            FriendRequest(sender_id, recipient_id, self.clock.now_year)
        )


class SocialNetwork(BaseNetwork):
    """A complete in-memory OSN with Facebook-like semantics.

    The object store: accounts in a dict, plus the write verbs that
    build a world.  Friendships live in a
    :class:`~repro.colgen.csr.CSRGraph` with a row per uid: uids start
    at 1, so row 0 stays empty, and an account registered after the
    last :meth:`add_friendships` lies past the last row, friendless.
    Constructor knobs are :class:`BaseNetwork`'s.
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
        policy: Optional[SitePolicy] = None,
        clock: Optional[SimClock] = None,
        **knobs: Any,
    ) -> None:
        # local: repro.colgen imports this module
        from repro.colgen.csr import CSRGraph

        super().__init__(policy, clock, **knobs)
        self.users: Dict[int, Account] = {}
        self.graph = CSRGraph.from_edges(0, ())
        self._next_user_id = 1
        self._next_school_id = 1
        self._school_members: Dict[int, List[int]] = {}
        # Display names by uid, written at registration; row 0 is unused.
        self._names: List[str] = [""]

    # ------------------------------------------------------------------
    # Directory management
    # ------------------------------------------------------------------
    def register_school(
        self, name: str, city: str, enrollment_hint: Optional[int] = None
    ) -> School:
        school = School(self._next_school_id, name, city, enrollment_hint)
        self._next_school_id += 1
        self.schools[school.school_id] = school
        self.bump_version()
        return school

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def register_account(
        self,
        profile: Profile,
        registered_birthday: Birthday,
        real_birthday: Optional[Birthday] = None,
        settings: Optional[PrivacySettings] = None,
        *,
        person_id: Optional[int] = None,
        created_at_year: Optional[float] = None,
        is_fake: bool = False,
        enforce_minimum_age: bool = True,
    ) -> Account:
        """Create an account, enforcing the registration age ban.

        ``real_birthday`` defaults to the registered one (truthful user).
        The age check applies to the *registered* birthday at the account
        creation instant — lying about the birth year is exactly how
        under-13 children bypass it (paper, Section 1).  A refused
        registration indexes nothing.
        """
        created = created_at_year if created_at_year is not None else self.clock.now_year
        registered_age = created - registered_birthday.as_year_fraction
        if enforce_minimum_age and not self.policy.registration_allowed(registered_age):
            raise RegistrationError(
                f"registered age {registered_age:.1f} below minimum "
                f"{self.policy.minimum_registration_age}"
            )
        account = Account(
            user_id=self._next_user_id,
            profile=profile,
            registered_birthday=registered_birthday,
            real_birthday=real_birthday or registered_birthday,
            settings=settings if settings is not None else self._default_settings(registered_birthday),
            person_id=person_id,
            created_at_year=created,
            is_fake=is_fake,
        )
        self._next_user_id += 1
        self.users[account.user_id] = account
        self._index_member(account)
        self._names.append(profile.name.full)
        self.bump_version()
        return account

    def _index_member(self, account: Account) -> None:
        """Eagerly index the account's school affiliations.

        User ids are handed out in increasing order, so appending keeps
        each member list sorted — same order the old full rebuild
        produced with ``sorted(self.users)``.
        """
        for affiliation in account.profile.high_schools:
            self._school_members.setdefault(affiliation.school_id, []).append(
                account.user_id
            )

    def _default_settings(self, registered_birthday: Birthday) -> PrivacySettings:
        age_now = registered_birthday.age_at(self.clock.now_year)
        if age_now < self.policy.adult_age:
            return self.policy.default_minor_settings
        return self.policy.default_adult_settings

    def get_account(self, user_id: int) -> Account:
        try:
            return self.users[user_id]
        except KeyError:
            raise NotFoundError(f"no such user: {user_id}") from None

    def add_friendships(self, batches: Iterable[Tuple[Any, Any]]) -> int:
        """Befriend ``src[i]`` and ``dst[i]`` for every ``i`` of every
        ``(src, dst)`` batch; returns how many of the friendships are new.

        Pairs may repeat and come in either orientation.  Endpoints that
        are not two 1-D arrays of one length and a self-pair raise
        :class:`ValueError`, an unknown uid :class:`NotFoundError`, all
        before the graph or :attr:`version` changes.  The old graph's
        edges and then each batch, as it comes, go into one composite key
        (:func:`~repro.colgen.csr.put_edges`), so the batches a generator
        yields are never all alive at once, and one
        :meth:`~repro.colgen.csr.CSRGraph.from_key` build with a row for
        every registered uid replaces the graph.  :attr:`version` moves
        only when an edge was added.
        """
        # local: see __init__
        from repro.colgen.csr import CSRGraph, check_endpoints, put_edges

        n = self._next_user_id
        old = self.graph
        key = np.repeat(np.arange(len(old), dtype=np.int64), np.diff(old.indptr))
        key *= n
        key += old.indices
        end = key.shape[0]
        for src, dst in batches:
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            check_endpoints(src, dst)
            if src.size:
                # Uids are dense from 1, so known extremes mean known uids.
                for uid in (src.min(), src.max(), dst.min(), dst.max()):
                    self._check_uid(int(uid))
                loops = np.flatnonzero(src == dst)
                if loops.size:
                    raise ValueError(f"self-friendship not allowed: {src[loops[0]]}")
            end = put_edges(key, end, n, src, dst)
        key.resize(end, refcheck=False)
        self.graph = CSRGraph.from_key(n, key)
        added = self.graph.edge_count() - old.edge_count()
        if added:
            self.bump_version()
        return added

    def add_friendship(self, a: int, b: int) -> bool:
        """Create a (mutual) friendship between two existing accounts;
        ``False`` if they already were friends."""
        return self.add_friendships([([a], [b])]) == 1

    # ------------------------------------------------------------------
    # Storage surface (see BaseNetwork)
    # ------------------------------------------------------------------
    def _has_uid(self, user_id: int) -> bool:
        return user_id in self.users

    def _light_account(self, user_id: int) -> Account:
        return self.users[user_id]

    def _share_network(self, a: int, b: int) -> bool:
        mine = self.users[a].profile.networks
        theirs = self.users[b].profile.networks
        # Almost every account, every crawl account among them, lists no
        # network: answer those without building sets.
        if not mine or not theirs:
            return False
        return bool(set(mine) & set(theirs))

    def _display_names(self, user_ids: List[int]) -> List[str]:
        """Each uid's ``Name.full``, read off the column that
        :meth:`register_account` writes: no account is visited and no
        string formatted per row."""
        names = self._names
        return [names[uid] for uid in user_ids]

    def _eligible_member_ids(self, school_id: int) -> List[int]:
        """Search-eligible members, in the registration-time index order.

        Pure read: the index is maintained eagerly at registration time
        (``_index_member``), never rebuilt lazily on the serve path —
        PURE001 holds the whole search surface to read-only.
        """
        now = self.clock.now_year
        return [
            uid
            for uid in self._school_members.get(school_id, [])
            if self.policy.school_search_eligible(self.users[uid], now)
        ]

    def _affiliation_for(
        self, user_id: int, school_id: int
    ) -> Optional[SchoolAffiliation]:
        return self.users[user_id].profile.affiliation_for(school_id)

    def _current_city(self, user_id: int) -> Optional[str]:
        return self.users[user_id].profile.current_city

    # ------------------------------------------------------------------
    # Statistics (for tests / world validation; not used by the attack)
    # ------------------------------------------------------------------
    def population_stats(self) -> Dict[str, float]:
        now = self.clock.now_year
        total = len(self.users)
        minors = sum(
            1 for a in self.users.values() if self.policy.is_registered_minor(a, now)
        )
        liars = sum(1 for a in self.users.values() if a.lied_about_age())
        edges = self.graph.edge_count()
        return {
            "users": float(total),
            "registered_minors": float(minors),
            "age_liars": float(liars),
            "edges": float(edges),
            # over every registered account, friendless ones included
            "mean_degree": 2.0 * edges / total if total else 0.0,
        }
