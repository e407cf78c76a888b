"""Section 2's data-broker threat, quantified (beyond the paper's prose).

The paper argues that high-school profiles plus purchasable voter
records let brokers pin students to street addresses, with parents on
friend lists giving high certainty.  This bench runs that linkage and
asserts the mechanism: high-confidence (parent-matched) links are far
more precise than surname-only guessing.
"""

from repro.analysis.tables import ascii_table
from repro.core.api import make_client
from repro.core.extension import build_extended_profiles
from repro.core.linkage import (
    Confidence,
    evaluate_linkage,
    friend_name_resolver,
    link_home_addresses,
)
from repro.worldgen.records import build_voter_registry

from _bench_utils import emit


def test_linkage_broker(hs1_world, hs1_enhanced):
    client = make_client(hs1_world, 2)
    extended = build_extended_profiles(hs1_enhanced, client, t=400)
    registry = build_voter_registry(
        hs1_world.population, hs1_world.config.observation_year,
        seed=hs1_world.config.seed,
    )

    friend_name_of = friend_name_resolver(hs1_enhanced.profiles, client)
    linked = link_home_addresses(extended, registry, friend_name_of)
    evaluation = evaluate_linkage(linked, hs1_world)

    assert evaluation.linked > 30
    assert evaluation.high_confidence > 5
    # Parent-on-friend-list links are near-certain (the paper's claim).
    assert evaluation.high_confidence_precision > 0.8
    # And clearly better than the overall best-candidate rate.
    assert evaluation.high_confidence_precision > evaluation.precision_of_best

    high = sum(
        1 for cands in linked.values() if cands[0].confidence is Confidence.HIGH
    )
    emit(
        "linkage_broker",
        ascii_table(
            ("metric", "value"),
            [
                ("registered voters on file", len(registry)),
                ("students linked to >=1 address", evaluation.linked),
                ("high-confidence (parent) links", high),
                (
                    "high-confidence precision",
                    f"{100 * evaluation.high_confidence_precision:.0f}%",
                ),
                (
                    "best-candidate precision overall",
                    f"{100 * evaluation.precision_of_best:.0f}%",
                ),
            ],
            title="Section 2: data-broker address linkage via voter records",
        ),
    )
