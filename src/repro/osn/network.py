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
objects in dicts and a :class:`FriendGraph`, and owns the write verbs
that build a world; ``ColumnarNetwork`` (:mod:`repro.colgen.serve`)
reads the same facts off flat columns and CSR adjacency for city-tier
worlds.  The tiers differ in storage, not in code path.

Everything the crawler does goes through the HTML frontend
(``repro.osn.frontend``) which in turn calls these methods, so the
attack code can never accidentally peek at ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .clock import SimClock
from .errors import ForbiddenError, NotFoundError, RegistrationError
from .graph import FriendGraph
from .messaging import ContactService, FriendRequest, Message
from .policy import SitePolicy, facebook_policy
from .privacy import PrivacySettings, ProfileField, Relationship
from .profile import Birthday, Profile, SchoolAffiliation
from .user import Account
from .view import ProfileView, WallPostView


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


@dataclass(frozen=True)
class DirectoryEntry:
    """A search result or friend-list row: id plus display name."""

    user_id: int
    name: str


@dataclass(frozen=True)
class GraphSearchQuery:
    """A structured Graph-Search-style query.

    ``year_op`` is one of ``"in"``, ``"after"``, ``"before"`` or ``None``
    (no year constraint); ``current_city`` optionally restricts to users
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
    """

    def sees(field_: ProfileField) -> bool:
        return policy.field_visible_to(account, field_, rel, now)

    profile = account.profile
    contact = profile.contact_info
    contact_visible = sees(ProfileField.CONTACT_INFO) and contact is not None
    return ProfileView(
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
        wall_post_count=len(profile.wall_posts) if sees(ProfileField.WALL) else None,
        wall_posts=(
            tuple(
                WallPostView(post.author_id, post.text)
                for post in profile.wall_posts
            )
            if sees(ProfileField.WALL)
            else ()
        ),
        contact_email=contact.email if contact_visible else None,
        contact_phone=contact.phone if contact_visible else None,
        friend_list_visible=policy.field_visible_to(
            account, ProfileField.FRIEND_LIST, rel, now
        ),
        message_button=policy.message_button_visible(account, rel, now),
        public_search_listed=policy.public_search_eligible(account, now),
    )


class BaseNetwork:
    """The OSN's read and contact logic, written once over a store.

    A subclass is a store: it implements the storage surface below, and
    the policy, visibility, paging and search logic here runs unchanged
    on top of it.

    * ``_has_uid(uid)``: whether the account exists.
      ``_light_account(uid)``: an eligibility view of an existing
      account, with exact settings, birthdays and ``disabled`` flag but
      possibly no profile.  ``get_account(uid)``: the full account, or
      :class:`NotFoundError`.
    * ``_friend_ids(uid)``: friend uids in ascending order.
      ``_are_friends(a, b)``, ``_has_mutual_friend(a, b)`` and
      ``_share_network(a, b)``: the relationship tests.
    * ``_display_names(uids)``: the display name of each uid.
    * ``_eligible_member_ids(school_id)``: ascending uids of the
      school's members that people search may return.
    * ``_affiliation_for(uid, school_id)`` and ``_current_city(uid)``:
      the two profile fields Graph Search filters on.

    The base declares none of these hooks, so the call-graph lint
    resolves every ``self.<hook>()`` by name to both stores.
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

        The frontend's render cache keys every entry on this value, so a
        bump invalidates all cached pages at once.  Mutating verbs bump
        it automatically; code that mutates accounts *directly* (tests,
        countermeasure sweeps flipping privacy settings in place) must
        call :meth:`bump_version` itself — that is the whole contract.
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

    def find_school_by_name(self, name: str) -> Optional[School]:
        lowered = name.lower()
        for school in self.schools.values():
            if school.name.lower() == lowered:
                return school
        return None

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
    def view_profile(self, viewer_id: Optional[int], target_id: int) -> ProfileView:
        """Render ``target_id``'s profile as ``viewer_id`` sees it."""
        account = self.get_account(target_id)
        if account.disabled:
            raise NotFoundError(f"account {target_id} is deactivated")
        rel = self.relationship(viewer_id, target_id)
        return render_profile_view(self.policy, account, rel, self.clock.now_year)

    def _friend_list_visible(self, account: Account, rel: Relationship) -> bool:
        return self.policy.field_visible_to(
            account, ProfileField.FRIEND_LIST, rel, self.clock.now_year
        )

    # ------------------------------------------------------------------
    # Friend lists (paginated; reverse-lookup countermeasure lives here)
    # ------------------------------------------------------------------
    def friend_page(
        self, viewer_id: Optional[int], target_id: int, offset: int = 0
    ) -> Tuple[int, List[DirectoryEntry]]:
        """One page of ``target_id``'s friend list as seen by the viewer.

        Returns ``(total_visible, entries)``.  Raises
        :class:`ForbiddenError` when the list is not visible at all.

        When ``reverse_lookup_enabled`` is ``False`` (the Section-8
        countermeasure), a member is omitted from *other people's* friend
        lists whenever their own friend list is hidden from this viewer —
        so users who hide their list (and all registered minors) can no
        longer be discovered through their friends' lists.
        """
        self._check_uid(target_id)
        account = self._light_account(target_id)
        rel = self.relationship(viewer_id, target_id)
        if not self._friend_list_visible(account, rel):
            raise ForbiddenError(f"friend list of {target_id} not visible")
        friend_ids = self._friend_ids(target_id)
        if not self.reverse_lookup_enabled:
            friend_ids = [
                fid for fid in friend_ids if self._visible_in_friend_lists(viewer_id, fid)
            ]
        total = len(friend_ids)
        page = friend_ids[offset : offset + self.friends_page_size]
        return total, self._entries(page)

    def _visible_in_friend_lists(self, viewer_id: Optional[int], member_id: int) -> bool:
        """Countermeasure predicate: may ``member_id`` appear in friend lists?"""
        member = self.find_account(member_id)
        if member is None or member.disabled:
            return False
        rel = self.relationship(viewer_id, member_id)
        return self._friend_list_visible(member, rel)

    def _entries(self, user_ids: List[int]) -> List[DirectoryEntry]:
        return [
            DirectoryEntry(uid, name)
            for uid, name in zip(user_ids, self._display_names(user_ids))
        ]

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
        """Structured search; same eligibility rules as the portal."""
        self._check_uid(viewer_account_id)
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
            if query.year_op is not None:
                if affiliation.graduation_year is None or query.year is None:
                    continue
                grad = affiliation.graduation_year
                matches = {
                    "in": grad == query.year,
                    "after": grad > query.year,
                    "before": grad < query.year,
                }.get(query.year_op)
                if matches is None:
                    raise ValueError(f"bad year_op: {query.year_op!r}")
                if not matches:
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

    The object store: accounts in a dict, friendships in a
    :class:`FriendGraph`, plus the write verbs that build a world.
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
        super().__init__(policy, clock, **knobs)
        self.users: Dict[int, Account] = {}
        self.graph = FriendGraph()
        self._next_user_id = 1
        self._next_school_id = 1
        self._school_members: Dict[int, List[int]] = {}

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
        under-13 children bypass it (paper, Section 1).
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
        self.graph.add_node(account.user_id)
        self._index_member(account)
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

    def add_friendship(self, a: int, b: int) -> bool:
        """Create a (mutual) friendship between two existing accounts."""
        acct_a, acct_b = self.get_account(a), self.get_account(b)
        if self.graph.add_edge(a, b):
            acct_a.friend_ids.add(b)
            acct_b.friend_ids.add(a)
            self.bump_version()
            return True
        return False

    def respond_to_friend_request(
        self, recipient_id: int, sender_id: int, accept: bool
    ) -> bool:
        """Answer a pending request; creates the friendship on accept."""
        request = self.contact.pop_request(recipient_id, sender_id)
        if request is None:
            return False
        if accept:
            self.add_friendship(sender_id, recipient_id)
        return accept

    # ------------------------------------------------------------------
    # Storage surface (see BaseNetwork)
    # ------------------------------------------------------------------
    def _has_uid(self, user_id: int) -> bool:
        return user_id in self.users

    def _light_account(self, user_id: int) -> Account:
        return self.users[user_id]

    def _friend_ids(self, user_id: int) -> List[int]:
        return self.graph.neighbors_list(user_id)

    def _are_friends(self, a: int, b: int) -> bool:
        return self.graph.are_friends(a, b)

    def _has_mutual_friend(self, a: int, b: int) -> bool:
        return self.graph.has_mutual_friend(a, b)

    def _share_network(self, a: int, b: int) -> bool:
        mine = self.users[a].profile.networks
        theirs = self.users[b].profile.networks
        return bool(set(mine) & set(theirs))

    def _display_names(self, user_ids: List[int]) -> List[str]:
        return [self.users[uid].profile.name.full for uid in user_ids]

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
        return {
            "users": float(total),
            "registered_minors": float(minors),
            "age_liars": float(liars),
            "edges": float(self.graph.edge_count()),
            "mean_degree": self.graph.mean_degree(),
        }
