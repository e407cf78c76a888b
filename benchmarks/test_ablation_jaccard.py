"""Ablation: Jaccard threshold for hidden-friendship inference (Section 6.1).

Sweeps the decision threshold and reports the precision/recall
trade-off against ground truth minor-minor edges.  Expected shape:
precision rises with the threshold while the number of predicted links
falls — and precision always beats the random-pair base rate.
"""

from repro.analysis.tables import ascii_table
from repro.core.api import make_client
from repro.core.extension import build_extended_profiles
from repro.core.hidden_links import infer_hidden_links

from _bench_utils import emit

THRESHOLDS = (0.1, 0.2, 0.3, 0.4)


def test_ablation_jaccard_threshold(hs1_world, hs1_enhanced):
    client = make_client(hs1_world, 2)
    extended = build_extended_profiles(hs1_enhanced, client, t=400)
    truth_students = hs1_world.ground_truth().all_student_uids
    graph = hs1_world.network.graph

    reverse = {
        uid: p.reverse_friends
        for uid, p in extended.items()
        if not p.appears_registered_adult and uid in truth_students
    }

    by_threshold = {
        th: infer_hidden_links(reverse, threshold=th, min_common=3)
        for th in THRESHOLDS
    }

    # Base rate of friendship among the candidate minor pairs.
    uids = sorted(reverse)
    pairs = hits = 0
    for i, a in enumerate(uids):
        for b in uids[i + 1 :]:
            pairs += 1
            hits += graph.are_friends(a, b)
    base_rate = hits / pairs

    rows = []
    precisions = []
    counts = []
    for th, links in by_threshold.items():
        correct = sum(1 for l in links if graph.are_friends(*l.pair))
        precision = correct / len(links) if links else 0.0
        precisions.append(precision)
        counts.append(len(links))
        rows.append((th, len(links), correct, f"{100 * precision:.0f}%"))

    emit(
        "ablation_jaccard",
        ascii_table(
            ("Jaccard threshold", "links predicted", "correct", "precision"),
            rows,
            title=(
                "Ablation: hidden-link inference threshold "
                f"(base friendship rate {100 * base_rate:.1f}%)"
            ),
        ),
    )

    assert counts == sorted(counts, reverse=True)  # stricter -> fewer links
    assert precisions[-1] >= precisions[0] - 0.05  # and (weakly) more precise
    assert all(
        p > base_rate for p, c in zip(precisions, counts) if c >= 10
    )  # real lift over chance wherever we have support
