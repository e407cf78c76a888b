"""Named size tiers: the sample -> state -> country ladder for worldgen.

Mirroring pseudopeople's tiered input data, every tier is one name the
CLI, benchmarks and CI can ask for:

* ``smoke``  — ~7k accounts via the calibrated object generator; fast
  enough for unit tests and CI smoke runs.
* ``paper``  — the paper's school presets (HS1 by default), the scale
  every published number is calibrated at; also object-generated, then
  encoded to columns.
* ``city``   — ~1M accounts, generated natively on the columnar path
  with sharded draws and a one-pass CSR build in one buffer, the
  composite key, sorted and narrowed in place before the columns are
  drawn: at the peak the key (~192 MB) is the only large array alive,
  ~234 MiB RSS.
* ``metro``  — ~10M accounts, generation-only: demographic and account
  columns are produced shard by shard, but adjacency is never
  materialised (that is the next scale rung, not this one).

The two small tiers run the legacy generator on purpose: they inherit
its full behavioural calibration *and* prove the columnar encoding is
lossless (see ``tests/test_colgen_equivalence.py``).  The two large
tiers trade per-person behavioural nuance for three orders of magnitude
of scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class TierSpec:
    """One rung of the size ladder."""

    name: str
    description: str
    kind: str  # "preset" (object generator + encode) or "native" (columnar)
    #: preset tiers: the worldgen preset to build (None = caller's choice,
    #: defaulting to hs1 — the CLI exposes this as --school).
    preset: Optional[str] = None
    #: native tiers: the sharded-generation shape.
    blocks: int = 0
    block_size: int = 0
    mean_block_degree: float = 16.0
    mean_city_degree: float = 8.0
    materialize_graph: bool = True

    @property
    def approx_accounts(self) -> int:
        if self.kind == "native":
            return self.blocks * self.block_size
        return {"smoke": 7_000, "paper": 15_000}.get(self.name, 0)

    def with_blocks(self, blocks: int) -> "TierSpec":
        return replace(self, blocks=blocks)


TIERS: Dict[str, TierSpec] = {
    spec.name: spec
    for spec in (
        TierSpec(
            name="smoke",
            description="~7k accounts, object-generated; CI and unit tests",
            kind="preset",
            preset="smoke",
        ),
        TierSpec(
            name="paper",
            description="the paper's school presets (hs1/hs2/hs3)",
            kind="preset",
            preset=None,
        ),
        TierSpec(
            name="city",
            description="~1M accounts, native columnar generation + CSR",
            kind="native",
            blocks=250,
            block_size=4_000,
        ),
        TierSpec(
            name="metro",
            description="~10M accounts, generation-only (no adjacency)",
            kind="native",
            blocks=2_500,
            block_size=4_000,
            materialize_graph=False,
        ),
    )
}

TIER_NAMES: Tuple[str, ...] = tuple(TIERS)


def tier(name: str) -> TierSpec:
    try:
        return TIERS[name]
    except KeyError:
        raise KeyError(
            f"unknown tier {name!r}; choose from {sorted(TIERS)}"
        ) from None
