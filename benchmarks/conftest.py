"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Worlds
and attack results are built once per session and shared; each bench
runs the piece of the pipeline it is about once and renders the
paper-style rows/series, both to stdout and to
``benchmarks/output/<name>.txt``.  The pipeline's speed is timed by
``bench/``, not here.
"""

from __future__ import annotations

import pytest

from repro.core.api import make_client, run_attack
from repro.core.profiler import ProfilerConfig
from repro.worldgen.presets import hs1, hs2, hs3
from repro.worldgen.world import build_world

#: Threshold used for the large schools (the paper sweeps around 1500).
LARGE_T = 1500
#: Threshold used for HS1 (the paper sweeps 200-500).
SMALL_T = 500


@pytest.fixture(scope="session")
def hs1_world():
    return build_world(hs1())


@pytest.fixture(scope="session")
def hs2_world():
    return build_world(hs2())


@pytest.fixture(scope="session")
def hs3_world():
    return build_world(hs3())


@pytest.fixture(scope="session")
def hs1_runs(hs1_world):
    """All four methodology variants on HS1 (Table 4's grid)."""
    return {
        "Basic methodology without filtering": run_attack(
            hs1_world, accounts=2, config=ProfilerConfig(threshold=SMALL_T)
        ),
        "Basic methodology with filtering": run_attack(
            hs1_world, accounts=2, config=ProfilerConfig(threshold=SMALL_T, filtering=True)
        ),
        "Enhanced methodology without filtering": run_attack(
            hs1_world, accounts=2, config=ProfilerConfig(threshold=SMALL_T, enhanced=True)
        ),
        "Enhanced methodology with filtering": run_attack(
            hs1_world,
            accounts=2,
            config=ProfilerConfig(threshold=SMALL_T, enhanced=True, filtering=True),
        ),
    }


@pytest.fixture(scope="session")
def hs1_enhanced(hs1_runs):
    return hs1_runs["Enhanced methodology with filtering"]


@pytest.fixture(scope="session")
def hs2_enhanced(hs2_world):
    return run_attack(
        hs2_world,
        accounts=4,
        config=ProfilerConfig(threshold=LARGE_T, enhanced=True, filtering=True),
    )


@pytest.fixture(scope="session")
def hs3_enhanced(hs3_world):
    return run_attack(
        hs3_world,
        accounts=4,
        config=ProfilerConfig(threshold=LARGE_T, enhanced=True, filtering=True),
    )


@pytest.fixture(scope="session")
def hs2_basic(hs2_world):
    return run_attack(hs2_world, accounts=4, config=ProfilerConfig(threshold=LARGE_T))


@pytest.fixture(scope="session")
def hs3_basic(hs3_world):
    return run_attack(hs3_world, accounts=4, config=ProfilerConfig(threshold=LARGE_T))


@pytest.fixture(scope="session")
def hs1_basic(hs1_runs):
    return hs1_runs["Basic methodology without filtering"]
