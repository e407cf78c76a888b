"""Ablation: the enhanced methodology's epsilon (profile-fetch budget).

The paper fixes epsilon = 1 (fetch the top 2t profiles).  Sweeping it
shows the trade-off: larger epsilon finds more hidden self-identified
students (bigger extended core, better coverage) at a higher request
cost.  Expected shape: coverage is non-decreasing-ish in epsilon while
effort grows roughly linearly.
"""

from repro.analysis.tables import ascii_table
from repro.core.api import run_attack
from repro.core.evaluation import evaluate_full
from repro.core.profiler import ProfilerConfig
from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient

from _bench_utils import emit

EPSILONS = (0.0, 0.5, 1.0, 2.0)


def test_ablation_epsilon(hs1_world):
    truth = hs1_world.ground_truth()
    # One fixed pair of crawl accounts: the per-account search samples
    # are deterministic, so every epsilon sees identical seed sets and
    # the sweep isolates epsilon's effect.
    account_ids = hs1_world.create_attacker_accounts(2)

    def run_eps(eps):
        client = CrawlClient(hs1_world.frontend, AccountPool.of(list(account_ids)))
        result = run_attack(
            hs1_world,
            config=ProfilerConfig(threshold=400, enhanced=True, epsilon=eps),
            client=client,
        )
        return result, evaluate_full(result, truth, 400)

    runs = [run_eps(eps) for eps in EPSILONS]

    rows = []
    for eps, (result, e) in zip(EPSILONS, runs):
        rows.append(
            (
                eps,
                result.extended_core_size,
                e.found,
                f"{100 * e.false_positive_rate:.0f}%",
                result.effort.total,
            )
        )

    cores = [r.extended_core_size for r, _ in runs]
    efforts = [r.effort.total for r, _ in runs]
    founds = [e.found for _, e in runs]
    assert cores == sorted(cores)          # bigger budget, bigger core
    assert efforts == sorted(efforts)      # and more requests
    assert founds[-1] >= founds[0] - 10    # coverage does not degrade

    emit(
        "ablation_epsilon",
        ascii_table(
            ("epsilon", "extended core", "found (t=400)", "FP rate", "total requests"),
            rows,
            title="Ablation: enhanced-methodology epsilon (paper uses 1.0)",
        ),
    )
