"""Data-broker linkage: pin students to street addresses (paper, Section 2).

Given the extended high-school profiles and a purchased voter registry,
the broker matches each student's *last name + inferred city* against
registered voters to obtain candidate home addresses.  When one of the
student's recovered friends shares the student's surname and matches a
voter record — almost certainly a parent on the friend list — the
association is high-confidence: "if a parent appears in the friend
list, then the street-address association can be done with greater
certainty."

Everything here uses only attacker-visible data: names from crawled
pages and the public registry.  The evaluation helper (which *does*
look at ground truth) lives at the bottom, clearly separated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress, filterfalse
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
)

from repro.crawler.client import CrawlClient
from repro.osn.view import ProfileView

from .extension import ExtendedProfile
from .oracle import GroundTruthOracle

if TYPE_CHECKING:
    from .oracle import WorldLike


class VoterRecordLike(Protocol):
    """One row of the purchased registry: a registered voter."""

    street_address: str
    city: str


class VoterFile(Protocol):
    """The data broker's purchased public-records interface.

    The paper's broker buys a voter registry — public data, so querying
    it is inside the attacker's threat model.  Structural typing keeps
    this module decoupled from the simulator's concrete
    ``repro.worldgen.records.VoterRegistry``.
    """

    def lookup(self, last_name: str, city: str) -> Sequence[VoterRecordLike]:
        """All registered voters with this surname in this city."""
        ...

    def lookup_person(
        self, first_name: str, last_name: str, city: str
    ) -> Optional[VoterRecordLike]:
        """An exact (first, last, city) match, if registered."""
        ...


class Confidence(enum.Enum):
    HIGH = "high"      # a same-surname friend (likely parent) matched
    MEDIUM = "medium"  # surname+city matched a unique household
    LOW = "low"        # surname+city matched several households


@dataclass(frozen=True)
class AddressCandidate:
    """One possible home address for a student."""

    street_address: str
    city: str
    confidence: Confidence
    matched_voters: int
    via_friend: Optional[str] = None  # the (likely parent) friend's name


def _surname(full_name: str) -> str:
    return full_name.rsplit(" ", 1)[-1]


def friend_name_resolver(
    crawled: Mapping[int, ProfileView], client: CrawlClient
) -> Callable[[int], Optional[str]]:
    """A memoised ``friend_name_of`` for :func:`link_home_addresses`.

    A friend's display name comes from a page the crawl already fetched
    (``crawled``), else from one ``client.fetch_profile`` GET.  Each uid
    is resolved once, when the linkage first asks for it.  The linkage
    asks for each distinct uid once per call, in the order its
    (student, friend) walk first meets it, so the GETs follow that
    order; the memo also spans calls that share this resolver.
    """
    names: Dict[int, Optional[str]] = {}

    def friend_name_of(uid: int) -> Optional[str]:
        if uid not in names:
            view = crawled.get(uid) or client.fetch_profile(uid)
            names[uid] = view.name if view else None
        return names[uid]

    return friend_name_of


def link_home_addresses(
    extended: Mapping[int, ExtendedProfile],
    registry: VoterFile,
    friend_name_of: Optional[Callable[[int], Optional[str]]] = None,
) -> Dict[int, List[AddressCandidate]]:
    """Match every extended profile against the voter file.

    ``friend_name_of`` resolves a friend uid to a display name (e.g.
    :func:`friend_name_resolver`); without it only the surname+city
    channel runs.  It is asked once per distinct friend uid per call,
    in the order the walk over (student, friend) pairs first meets
    each uid, and a friend it resolves to ``None`` matches no student.
    A friend listed twice by one student yields a candidate for each
    listing.
    Returns uid -> candidates ordered best first.
    """
    linked: Dict[int, List[AddressCandidate]] = {}
    # Friend uid -> display name, resolved once within this call, and
    # lowered surname -> the resolved friends who carry it.
    friend_names: Dict[int, Optional[str]] = {}
    friends_by_surname: Dict[str, Set[int]] = {}
    met = friend_names.__contains__
    for uid, profile in extended.items():
        surname = _surname(profile.name)
        lowered = surname.lower()
        city = profile.inferred_city
        candidates: List[AddressCandidate] = []

        # High-confidence channel: a same-surname friend in the voter file.
        if friend_name_of is not None:
            friend_ids = (
                profile.direct_friends
                if profile.direct_friends is not None
                else sorted(profile.reverse_friends)
            )
            # ``filterfalse`` is lazy, so a uid stored in the loop body
            # is skipped when the same list meets it again.
            for friend_uid in filterfalse(met, friend_ids):
                friend_name = friend_name_of(friend_uid)
                friend_names[friend_uid] = friend_name
                if friend_name is not None:
                    friends_by_surname.setdefault(
                        _surname(friend_name).lower(), set()
                    ).add(friend_uid)
            # One pick per listing, among the friends resolved to this
            # surname; an unresolved friend is in no set.
            same = friends_by_surname.get(lowered, frozenset()).__contains__
            for friend_uid in compress(friend_ids, map(same, friend_ids)):
                friend_name = friend_names[friend_uid]
                record = registry.lookup_person(
                    friend_name.split(" ", 1)[0], surname, city
                )
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

        # Fallback channel: every same-surname household in the city.
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


# ----------------------------------------------------------------------
# Evaluation (uses ground truth; never available to the broker)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkageEvaluation:
    """How often the broker's best candidate is the true home address."""

    students_with_known_address: int
    linked: int
    correct_best: int
    high_confidence: int
    high_confidence_correct: int

    @property
    def precision_of_best(self) -> float:
        return self.correct_best / self.linked if self.linked else 0.0

    @property
    def high_confidence_precision(self) -> float:
        return (
            self.high_confidence_correct / self.high_confidence
            if self.high_confidence
            else 0.0
        )

    @property
    def coverage(self) -> float:
        return (
            self.linked / self.students_with_known_address
            if self.students_with_known_address
            else 0.0
        )


def evaluate_linkage(
    linked: Mapping[int, List[AddressCandidate]],
    world: WorldLike,
    school_index: int = 0,
) -> LinkageEvaluation:
    """Score address links against the ground-truth households.

    Ground truth arrives through the evaluation seam
    (:class:`~repro.core.oracle.GroundTruthOracle`), never by reading
    simulator internals here.
    """
    true_address = GroundTruthOracle.coerce(world, school_index).known_addresses

    linked_known = {
        uid: candidates for uid, candidates in linked.items() if uid in true_address
    }
    correct_best = sum(
        1
        for uid, candidates in linked_known.items()
        if candidates and candidates[0].street_address == true_address[uid]
    )
    high = [
        (uid, c)
        for uid, candidates in linked_known.items()
        for c in candidates
        if c.confidence is Confidence.HIGH
    ]
    high_correct = sum(
        1 for uid, c in high if c.street_address == true_address[uid]
    )
    return LinkageEvaluation(
        students_with_known_address=len(true_address),
        linked=len(linked_known),
        correct_best=correct_best,
        high_confidence=len(high),
        high_confidence_correct=high_correct,
    )
