"""Native columnar generation: sharded, vectorised, memory-bounded.

The large tiers (``city``, ``metro``) cannot run the object generator —
a million ``Person``/``Account``/``dict-of-sets`` instances is gigabytes
of pointer soup before a single edge exists.  This module generates the
same *columnar schema* directly:

* The city is a grid of **blocks** (neighbourhood + one school each).
  Blocks are the sharding unit: every demographic column and every edge
  batch for block ``b`` is drawn from its own generator, seeded as
  ``SeedSequence([seed, stream, b])``.  One world seed therefore fans
  out into per-shard streams deterministically (DET001: no module-level
  RNG, every generator is constructed from an explicit seed), and any
  shard can be regenerated independently.

* The friendship graph is built first, in **one pass into one buffer**:
  each block's edge batch is drawn once and written, in both
  orientations, straight into one int64 composite key ``row * n + col``
  (~192 MB for the city's ~12M edges).  :meth:`CSRGraph.from_key` sorts
  it in place, then drops repeats and self-loops and narrows it, in place
  too, into the int32 ``indices``.  The columns (~81 MB) are drawn after
  the graph, so at the peak the key is the only large array alive: the
  city peaks near 234 MiB RSS and keeps a ~100 MB graph.

* Demography is a deliberately simplified projection of the paper's
  model — a school-age slice with the COPPA lying mix, adult privacy
  defaults vs. minor caps, friend-list/public-search/message rates —
  calibrated for *shape*, not for the per-table numbers (those live on
  the ``smoke``/``paper`` tiers, which keep the full object generator).
"""

from __future__ import annotations

import math
import time
from typing import Optional, Tuple

import numpy as np

from repro.worldgen.presets import preset

from .columns import (
    AccountColumns,
    ColumnarWorld,
    PeopleColumns,
    PRIVACY_MESSAGE_SHIFT,
    PRIVACY_SEARCH_SHIFT,
    StringTable,
    audience_shift,
    pack_privacy,
)
from .csr import CSRGraph, put_edges
from .encode import encode_world
from .tiers import TierSpec, tier as tier_by_name
from .views import GENDER_TO_ORDINAL, ROLE_TO_ORDINAL

# Distinct RNG stream tags so column draws and edge draws of the same
# shard never reuse a bit stream.
_STREAM_COLUMNS = 11
_STREAM_EDGES = 23

# --- native demographic mix (fractions of a block) --------------------
_P_STUDENT = 0.035
_P_FORMER = 0.005
_P_ALUMNUS = 0.07
_P_PARENT = 0.02
_P_CITY_ADULT = 0.10
# remainder: external pool

# --- COPPA lying mix (LyingConfig defaults, vectorised) ---------------
_P_LIE_IF_UNDER_13 = 0.80
_CLAIM_WEIGHTS = (0.40, 0.12, 0.48)  # exactly 13 / mid-teen / adult
_OBSERVATION_YEAR = 2012.25

# --- privacy behaviour (StudentBehaviorConfig-flavoured rates) --------
_P_FRIEND_LIST_PUBLIC = 0.75
_P_PUBLIC_SEARCH = 0.80
_P_MESSAGE_PUBLIC = 0.85
_P_BIRTHDAY_PUBLIC = 0.05


def generate(
    tier_name: str,
    seed: int = 1,
    *,
    school: str = "hs1",
    blocks: Optional[int] = None,
) -> ColumnarWorld:
    """Generate a columnar world for a named tier.

    ``smoke``/``paper`` run the calibrated object generator and encode;
    ``city``/``metro`` run the native sharded path.
    ``blocks`` overrides the native shard count — tests use it to run
    the full city machinery at a few thousand accounts; fewer than one
    block raises ``ValueError``.
    """
    if blocks is not None and blocks < 1:
        raise ValueError(f"blocks must be at least 1, not {blocks}")
    spec = tier_by_name(tier_name)
    if spec.kind == "preset":
        return _generate_from_preset(spec, seed, school)
    if blocks is not None:
        spec = spec.with_blocks(blocks)
    return _generate_native(spec, seed)


def _generate_from_preset(spec: TierSpec, seed: int, school: str) -> ColumnarWorld:
    from repro.worldgen.world import build_world  # local: keeps import light

    config = preset(spec.preset or school, seed)
    t0 = time.perf_counter()
    world = build_world(config)
    t1 = time.perf_counter()
    columnar = encode_world(world, tier=spec.name)
    t2 = time.perf_counter()
    columnar.stats["build_seconds"] = t1 - t0
    columnar.stats["encode_seconds"] = t2 - t1
    columnar.stats["graph_seconds"] = 0.0  # folded into the object build
    columnar.stats["wall_seconds"] = t2 - t0
    return columnar


# ----------------------------------------------------------------------
# Native path
# ----------------------------------------------------------------------

def _shard_rng(seed: int, stream: int, shard: int) -> "np.random.Generator":
    """The deterministic per-shard generator (explicit seed material)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, shard]))


def _generate_native(spec: TierSpec, seed: int) -> ColumnarWorld:
    """The graph first, then the columns: the graph build's key is then
    the only large array alive at its peak.  Columns and edges draw from
    separate per-shard streams, so the order changes no byte."""
    n = spec.blocks * spec.block_size
    t0 = time.perf_counter()
    csr = _build_graph(spec, seed, n) if spec.materialize_graph else None
    t1 = time.perf_counter()
    world = _generate_columns(spec, seed, n, csr)
    t2 = time.perf_counter()
    if csr is not None:
        world.stats["edges"] = float(csr.edge_count())
    world.stats["graph_seconds"] = t1 - t0
    world.stats["columns_seconds"] = t2 - t1
    world.stats["wall_seconds"] = t2 - t0
    world.stats["accounts"] = float(n)
    return world


def _generate_columns(
    spec: TierSpec, seed: int, n: int, csr: Optional[CSRGraph]
) -> ColumnarWorld:
    from repro.osn.privacy import PrivacySettings, ProfileField
    from repro.worldgen.names import FEMALE_FIRST, LAST_NAMES, MALE_FIRST
    from repro.worldgen.population import Role
    from repro.osn.profile import Gender

    names = StringTable()
    female_ids = np.asarray([names.intern(v) for v in FEMALE_FIRST], dtype=np.int32)
    male_ids = np.asarray([names.intern(v) for v in MALE_FIRST], dtype=np.int32)
    last_ids = np.asarray([names.intern(v) for v in LAST_NAMES], dtype=np.int32)

    cities = StringTable()
    schools = []
    district_city = np.empty(spec.blocks, dtype=np.int32)
    for b in range(spec.blocks):
        city = f"District {b}"
        district_city[b] = cities.intern(city)
        schools.append((f"District {b} High School", city))

    role_codes = {
        role: ROLE_TO_ORDINAL[role]
        for role in (
            Role.STUDENT,
            Role.FORMER_STUDENT,
            Role.ALUMNUS,
            Role.PARENT,
            Role.CITY_ADULT,
            Role.EXTERNAL,
        )
    }
    gender_female = GENDER_TO_ORDINAL[Gender.FEMALE]
    gender_male = GENDER_TO_ORDINAL[Gender.MALE]

    # Preallocate every column once; shards fill disjoint slices.
    birth = np.empty(n, dtype=np.float64)
    role = np.empty(n, dtype=np.int8)
    gender = np.empty(n, dtype=np.int8)
    school_index = np.empty(n, dtype=np.int16)
    cohort_year = np.empty(n, dtype=np.int32)
    tenure = np.zeros(n, dtype=np.float32)
    left_ago = np.zeros(n, dtype=np.float32)
    household = np.full(n, -1, dtype=np.int32)
    first_name = np.empty(n, dtype=np.int32)
    last_name = np.empty(n, dtype=np.int32)
    city_col = np.empty(n, dtype=np.int32)
    street = np.full(n, -1, dtype=np.int32)

    reg_year = np.empty(n, dtype=np.int32)
    reg_frac = np.empty(n, dtype=np.float32)
    real_year = np.empty(n, dtype=np.int32)
    real_frac = np.empty(n, dtype=np.float32)
    created = np.empty(n, dtype=np.float32)
    privacy = np.empty(n, dtype=np.uint64)

    # Base privacy words; the per-account bernoullis below edit bits.
    adult_word = np.uint64(pack_privacy(PrivacySettings.facebook_adult_default_2012()))
    minor_word = np.uint64(pack_privacy(PrivacySettings.facebook_minor_default_2012()))
    fl_shift = np.uint64(audience_shift(ProfileField.FRIEND_LIST))
    bd_shift = np.uint64(audience_shift(ProfileField.BIRTHDAY))
    fl_clear = np.uint64(~(0b11 << int(fl_shift)) & (2**64 - 1))
    bd_clear = np.uint64(~(0b11 << int(bd_shift)) & (2**64 - 1))
    search_bit = np.uint64(1 << PRIVACY_SEARCH_SHIFT)
    msg_clear = np.uint64(~(0b11 << PRIVACY_MESSAGE_SHIFT) & (2**64 - 1))

    role_thresholds = np.cumsum(
        [_P_STUDENT, _P_FORMER, _P_ALUMNUS, _P_PARENT, _P_CITY_ADULT]
    )
    role_values = np.asarray(
        [
            role_codes[Role.STUDENT],
            role_codes[Role.FORMER_STUDENT],
            role_codes[Role.ALUMNUS],
            role_codes[Role.PARENT],
            role_codes[Role.CITY_ADULT],
            role_codes[Role.EXTERNAL],
        ],
        dtype=np.int8,
    )

    for b in range(spec.blocks):
        rng = _shard_rng(seed, _STREAM_COLUMNS, b)
        lo, hi = b * spec.block_size, (b + 1) * spec.block_size
        size = hi - lo

        roll = rng.random(size)
        bucket = np.searchsorted(role_thresholds, roll)
        role[lo:hi] = role_values[bucket]
        is_student = bucket == 0
        is_school = bucket <= 2  # student / former / alumnus
        is_minor_age = is_student | (bucket == 1)

        g = rng.random(size) < 0.5
        gender[lo:hi] = np.where(g, gender_female, gender_male)
        first_name[lo:hi] = np.where(
            g,
            female_ids[rng.integers(0, female_ids.size, size)],
            male_ids[rng.integers(0, male_ids.size, size)],
        )
        last_name[lo:hi] = last_ids[rng.integers(0, last_ids.size, size)]
        city_col[lo:hi] = district_city[b]
        school_index[lo:hi] = np.where(is_school, b, -1).astype(np.int16)

        # Ages: school-age for students/former, young-adult for alumni,
        # broad adult otherwise.
        age = np.where(
            is_minor_age,
            rng.uniform(13.5, 18.5, size),
            np.where(
                bucket == 2,
                rng.uniform(19.0, 28.0, size),
                rng.uniform(18.0, 60.0, size),
            ),
        )
        birth[lo:hi] = _OBSERVATION_YEAR - age

        grad_span = np.where(is_student, rng.integers(0, 4, size), 0)
        cohort_year[lo:hi] = np.where(
            is_school,
            2012 + grad_span - np.where(bucket == 2, rng.integers(1, 9, size), 0),
            -1,
        )
        tenure[lo:hi] = np.where(is_student, rng.uniform(0.5, 4.0, size), 0.0)

        # COPPA lying: minors who joined before 13 mostly lied upward.
        join_year = np.maximum(birth[lo:hi] + rng.uniform(10.5, 13.5, size), 2006.0)
        join_year = np.minimum(join_year, _OBSERVATION_YEAR - 0.05)
        under_13 = (join_year - birth[lo:hi]) < 13.0
        lies = under_13 & (rng.random(size) < _P_LIE_IF_UNDER_13)
        claim_roll = rng.random(size)
        claimed_age = np.where(
            claim_roll < _CLAIM_WEIGHTS[0],
            13.0 + rng.uniform(0.0, 0.5, size),
            np.where(
                claim_roll < _CLAIM_WEIGHTS[0] + _CLAIM_WEIGHTS[1],
                rng.uniform(14.0, 17.0, size),
                rng.uniform(18.0, 22.0, size),
            ),
        )
        registered_birth = np.where(lies, join_year - claimed_age, birth[lo:hi])
        reg_year[lo:hi] = registered_birth.astype(np.int32)
        reg_frac[lo:hi] = registered_birth - np.floor(registered_birth)
        real_year[lo:hi] = birth[lo:hi].astype(np.int32)
        real_frac[lo:hi] = birth[lo:hi] - np.floor(birth[lo:hi])
        created[lo:hi] = join_year

        # Privacy: the OSN keys everything off the *registered* age.
        registered_adult = (_OBSERVATION_YEAR - registered_birth) >= 18.0
        word = np.where(registered_adult, adult_word, minor_word)
        fl_public = rng.random(size) < _P_FRIEND_LIST_PUBLIC
        word = np.where(
            registered_adult & ~fl_public,
            (word & fl_clear) | np.uint64(1 << int(fl_shift)),  # FRIENDS
            word,
        )
        bd_public = rng.random(size) < _P_BIRTHDAY_PUBLIC
        word = np.where(
            registered_adult & bd_public,
            (word & bd_clear) | np.uint64(0b11 << int(bd_shift)),  # PUBLIC
            word,
        )
        searchable = rng.random(size) < _P_PUBLIC_SEARCH
        word = np.where(
            registered_adult & ~searchable, word & ~search_bit, word
        )
        msg_public = rng.random(size) < _P_MESSAGE_PUBLIC
        word = np.where(
            registered_adult & ~msg_public,
            (word & msg_clear) | np.uint64(1 << PRIVACY_MESSAGE_SHIFT),  # FRIENDS
            word,
        )
        privacy[lo:hi] = word

    people = PeopleColumns(
        birth_year_fraction=birth,
        role=role,
        gender=gender,
        school_index=school_index,
        cohort_year=cohort_year,
        tenure_years=tenure,
        left_years_ago=left_ago,
        household_id=household,
        first_name_id=first_name,
        last_name_id=last_name,
        city_id=city_col,
        street_id=street,
    )
    accounts = AccountColumns(
        person_id=np.arange(n, dtype=np.int64),  # identity: row i <-> uid i
        registered_birth_year=reg_year,
        registered_birth_fraction=reg_frac,
        real_birth_year=real_year,
        real_birth_fraction=real_frac,
        created_at_year=created,
        is_fake=np.zeros(n, dtype=np.int8),
        privacy=privacy,
    )
    return ColumnarWorld(
        tier=spec.name,
        seed=seed,
        observation_year=_OBSERVATION_YEAR,
        people=people,
        accounts=accounts,
        csr=csr,
        names=names,
        cities=cities,
        streets=StringTable(),
        schools=schools,
        identity_mapping=True,
    )


# ----------------------------------------------------------------------
# CSR build
# ----------------------------------------------------------------------

def _shard_edge_batch(
    spec: TierSpec, seed: int, shard: int, n: int
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """One block's draws: ``(src_in, dst_in, src_out, dst_out)``.

    Inner edges join two of the block's accounts, outer ones a block
    account and any city account, self-pairs included.  Each block draws
    from its own stream, so its draws are fixed by ``(seed, shard)`` alone.
    """
    rng = _shard_rng(seed, _STREAM_EDGES, shard)
    lo = shard * spec.block_size
    hi = lo + spec.block_size
    m_in = int(rng.poisson(spec.block_size * spec.mean_block_degree / 2.0))
    src_in = rng.integers(lo, hi, m_in)
    dst_in = rng.integers(lo, hi, m_in)
    m_out = int(rng.poisson(spec.block_size * spec.mean_city_degree / 2.0))
    src_out = rng.integers(lo, hi, m_out)
    dst_out = rng.integers(0, n, m_out)
    return src_in, dst_in, src_out, dst_out


def _key_capacity(spec: TierSpec) -> int:
    """Composite-key slots for every edge a native world draws, almost surely.

    Each block draws Poisson-many edges, so a world draws a Poisson
    number with mean ``lam``; it exceeds ``lam + 8 * sqrt(lam)`` with a
    probability below 1e-13, and :func:`put_edges` grows the key if it
    ever does.  Two slots per edge: one for each orientation.
    """
    lam = spec.blocks * spec.block_size * (spec.mean_block_degree + spec.mean_city_degree) / 2.0
    return 2 * int(lam + 8.0 * math.sqrt(lam) + 1.0)


def _build_graph(spec: TierSpec, seed: int, n: int) -> CSRGraph:
    """Draw every block's edges once, straight into one composite key.

    The key (int64, two slots per edge: ~192 MB for the city's ~12M
    edges) is the build's only full-size array: each block's draws go
    into it as they are drawn, and :meth:`CSRGraph.from_key` sorts it in
    place and narrows it, in place too, into ``indices``, dropping
    repeats and self-pairs.  Nothing else as long as the key is ever
    alive: the 100k city's build holds 1.1x its key at once under
    ``tracemalloc``, the slots the key keeps in reserve included.
    """
    key = np.empty(_key_capacity(spec), dtype=np.int64)
    end = 0
    for b in range(spec.blocks):
        # Bound to names, a block's draws stay alive while the next ones
        # are drawn.  Freed first, they leave the heap's top free, the
        # allocator returns it to the OS after every block and the next
        # draw faults it back in: ~100k more page faults on the city.
        src_in, dst_in, src_out, dst_out = _shard_edge_batch(spec, seed, b, n)
        end = put_edges(key, end, n, src_in, dst_in)
        end = put_edges(key, end, n, src_out, dst_out)
    key.resize(end, refcheck=False)
    return CSRGraph.from_key(n, key)
