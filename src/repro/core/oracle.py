"""The evaluation seam: the one sanctioned window onto ground truth.

Scoring an attack requires the answers — real birth years, real home
addresses, the true student roster.  Rather than letting every
evaluation helper grope around ``World`` internals (and silently blur
the attacker/oracle boundary the paper's result depends on), this
module materialises a :class:`GroundTruthOracle`: a frozen, narrow,
read-only snapshot of exactly the facts evaluation is entitled to.

The module is allowlisted in ``repro.lint.rules.oracle`` as part of
``EVALUATION_MODULES``; everything else under ``repro.core`` and
``repro.crawler`` is refused both the ``repro.worldgen`` imports and
the ground-truth attribute reads that build one of these.  Widening
this class's API is therefore widening the oracle — review accordingly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Union

if TYPE_CHECKING:  # typing only: never a runtime path into the simulator
    from repro.worldgen.world import World

    #: What evaluation entry points accept: a full world or a prebuilt oracle.
    WorldLike = Union["World", "GroundTruthOracle"]


class GroundTruthOracle:
    """Read-only ground truth for one school, detached from the World.

    Holds only what scoring needs: the roster of true student account
    ids, each student's real birth year, and each student's real street
    address (when the population assigned one).
    """

    def __init__(
        self,
        student_uids: Set[int],
        birth_years: Dict[int, int],
        street_addresses: Dict[int, str],
    ) -> None:
        self._student_uids = frozenset(student_uids)
        self._birth_years = dict(birth_years)
        self._street_addresses = dict(street_addresses)

    @classmethod
    def for_world(cls, world: "World", school_index: int = 0) -> "GroundTruthOracle":
        """Snapshot one school's ground truth out of a built world."""
        truth = world.ground_truth(school_index)
        return cls(
            truth.all_student_uids,
            truth.real_birth_years,
            truth.real_street_addresses,
        )

    @classmethod
    def coerce(cls, source: "WorldLike", school_index: int = 0) -> "GroundTruthOracle":
        """Accept either a prebuilt oracle or a world to snapshot."""
        if isinstance(source, cls):
            return source
        return cls.for_world(source, school_index)

    @property
    def student_uids(self) -> Set[int]:
        """Account ids of all true current students (the set M)."""
        return set(self._student_uids)

    def is_student(self, uid: int) -> bool:
        return uid in self._student_uids

    def real_birth_year(self, uid: int) -> Optional[int]:
        """The student's actual birth year, or None if unknown."""
        return self._birth_years.get(uid)

    def real_street_address(self, uid: int) -> Optional[str]:
        """The student's actual home address, or None if unknown."""
        return self._street_addresses.get(uid)

    @property
    def known_addresses(self) -> Dict[int, str]:
        """uid -> true street address for every student with one."""
        return dict(self._street_addresses)
