"""repro.colgen — columnar, tiered, memory-bounded world generation.

The scale subsystem: people, accounts, privacy words and birth dates
live in parallel typed columns keyed by integer id; friendships are a
CSR adjacency; generation shards deterministically from one seed.  Size
tiers run from ``smoke`` (unit tests) through ``paper`` (the published
calibration) to ``city``/``metro`` (10^6–10^7 accounts).

Entry points:

* :func:`generate` — build a tier (``generate("city", seed=1)``).
* :func:`encode_world` — losslessly columnarise a legacy object world.
* :func:`bench_worldgen` — run a tier under measurement, for
  ``python -m repro worldgen --bench-out``.
* CLI: ``python -m repro worldgen --tier city``.
"""

from .bench import bench_worldgen, write_bench_json
from .columns import (
    AccountColumns,
    ColumnarWorld,
    PeopleColumns,
    PRIVACY_FIELD_ORDER,
    ProfileColumns,
    StringTable,
    decode_profile,
    pack_privacy,
    unpack_privacy,
)
from .csr import CSRGraph
from .encode import encode_world
from .generate import generate
from .serve import (
    ColumnarNetwork,
    columnar_frontend,
    first_school_id,
    frontend_for_object_world,
    session_accounts,
)
from .tiers import TIER_NAMES, TIERS, TierSpec, tier
from .views import PopulationView, person_view

__all__ = [
    "AccountColumns",
    "CSRGraph",
    "ColumnarNetwork",
    "ColumnarWorld",
    "PRIVACY_FIELD_ORDER",
    "PeopleColumns",
    "PopulationView",
    "ProfileColumns",
    "StringTable",
    "columnar_frontend",
    "decode_profile",
    "TIERS",
    "TIER_NAMES",
    "TierSpec",
    "bench_worldgen",
    "encode_world",
    "first_school_id",
    "frontend_for_object_world",
    "session_accounts",
    "generate",
    "pack_privacy",
    "person_view",
    "tier",
    "unpack_privacy",
    "write_bench_json",
]
