#!/usr/bin/env python3
"""Section 2's first threat: a data broker pins students to home addresses.

After profiling the school, the broker buys the (synthetic) state voter
file and links each student's last name + inferred city to registered
voters; a same-surname friend who appears in the file — almost
certainly a parent on the friend list — upgrades the match to high
confidence.  Ground truth then scores how often the broker is right.

Run:  python examples/data_broker.py
"""

from collections import Counter

from repro import (
    ProfilerConfig,
    build_world,
    build_extended_profiles,
    hs1,
    make_client,
    run_attack,
)
from repro.core.linkage import (
    evaluate_linkage,
    friend_name_resolver,
    link_home_addresses,
)
from repro.worldgen.records import build_voter_registry


def main() -> None:
    world = build_world(hs1())
    print("Profiling the school...")
    result = run_attack(
        world,
        accounts=2,
        config=ProfilerConfig(threshold=400, enhanced=True, filtering=True),
    )
    client = make_client(world, 2)
    extended = build_extended_profiles(result, client, t=400)

    print("Buying the voter file...")
    registry = build_voter_registry(
        world.population, world.config.observation_year, seed=world.config.seed
    )
    print(f"  {len(registry)} registered voters on file")

    # The broker resolves friend names by visiting their (public) pages.
    friend_name_of = friend_name_resolver(result.profiles, client)

    print("Linking students to household addresses...")
    linked = link_home_addresses(extended, registry, friend_name_of)

    by_confidence = Counter(
        candidates[0].confidence.value for candidates in linked.values()
    )
    print(f"  students with candidate addresses: {len(linked)}")
    print(f"  best-candidate confidence mix: {dict(by_confidence)}")

    evaluation = evaluate_linkage(linked, world)
    print(
        f"\nOf {evaluation.students_with_known_address} students with a known "
        f"home address, the broker linked {evaluation.linked}; the top candidate "
        f"was the true address for {evaluation.correct_best} "
        f"({100 * evaluation.precision_of_best:.0f}%)."
    )
    if evaluation.high_confidence:
        print(
            f"High-confidence (parent-on-friend-list) links: "
            f"{evaluation.high_confidence}, of which "
            f"{100 * evaluation.high_confidence_precision:.0f}% correct."
        )

    sample = next(
        (
            (uid, cands)
            for uid, cands in linked.items()
            if cands[0].via_friend is not None
        ),
        None,
    )
    if sample:
        uid, cands = sample
        profile = extended[uid]
        print(
            f"\nExample dossier: {profile.name}, class of {profile.inferred_year} "
            f"at {profile.school_name} - likely lives at "
            f"{cands[0].street_address}, {cands[0].city} "
            f"(via friend {cands[0].via_friend})."
        )


if __name__ == "__main__":
    main()
