"""Native tiered generation: determinism, sharding, tiers, bench, CLI."""

from __future__ import annotations

import hashlib
import importlib
import json
from types import SimpleNamespace

import pytest

from repro.colgen import (
    CSRGraph,
    ColumnarNetwork,
    TIER_NAMES,
    TIERS,
    bench_worldgen,
    generate,
    tier,
    write_bench_json,
)
from repro.colgen.bench import peak_rss_bytes
#: 3 blocks x 4k = 12k accounts: full native machinery, test-sized.
_BLOCKS = 3


@pytest.fixture(scope="module")
def mini_city():
    return generate("city", seed=7, blocks=_BLOCKS)


class TestTierRegistry:
    def test_ladder_names(self):
        assert TIER_NAMES == ("smoke", "paper", "city", "metro")

    def test_city_targets_a_million(self):
        assert TIERS["city"].approx_accounts == 1_000_000

    def test_metro_is_generation_only(self):
        assert not TIERS["metro"].materialize_graph
        assert TIERS["metro"].approx_accounts == 10_000_000

    def test_unknown_tier_is_a_keyerror(self):
        with pytest.raises(KeyError, match="unknown tier"):
            tier("galaxy")

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_generate_rejects_fewer_than_one_block(self, blocks):
        with pytest.raises(ValueError, match=f"blocks must be at least 1, not {blocks}"):
            generate("city", seed=7, blocks=blocks)


class TestNativeGeneration:
    def test_shape_and_identity_mapping(self, mini_city):
        spec = TIERS["city"]
        n = _BLOCKS * spec.block_size
        assert mini_city.n_accounts == mini_city.n_people == n
        assert mini_city.identity_mapping
        assert mini_city.user_for(5) == 5
        assert mini_city.person_for(5) == 5
        assert mini_city.user_for(n) is None

    def test_same_seed_same_world(self, mini_city):
        import numpy as np

        again = generate("city", seed=7, blocks=_BLOCKS)
        assert np.array_equal(again.accounts.privacy, mini_city.accounts.privacy)
        assert np.array_equal(
            again.people.birth_year_fraction, mini_city.people.birth_year_fraction
        )
        assert np.array_equal(again.csr.indptr, mini_city.csr.indptr)
        assert np.array_equal(again.csr.indices, mini_city.csr.indices)

    def test_different_seed_different_world(self, mini_city):
        import numpy as np

        other = generate("city", seed=8, blocks=_BLOCKS)
        assert not np.array_equal(other.csr.indices, mini_city.csr.indices)

    def test_csr_invariants_at_scale(self, mini_city):
        mini_city.csr.validate()
        assert mini_city.n_edges > 0

    def test_graph_matches_the_reference_build(self, mini_city):
        from repro.colgen.generate import _shard_edge_batch

        spec = TIERS["city"].with_blocks(_BLOCKS)
        n = mini_city.n_accounts
        edges = []
        for b in range(_BLOCKS):
            src_in, dst_in, src_out, dst_out = _shard_edge_batch(spec, mini_city.seed, b, n)
            edges.extend(zip(src_in.tolist(), dst_in.tolist()))
            edges.extend(zip(src_out.tolist(), dst_out.tolist()))
        reference = CSRGraph.from_edges(n, edges)
        assert mini_city.csr.indptr.tolist() == list(reference.indptr)
        assert mini_city.csr.indices.tolist() == list(reference.indices)

    def test_views_decode_native_rows(self, mini_city):
        from repro.colgen import person_view

        person = person_view(mini_city, 42)
        assert person.person_id == 42
        assert person.name.first and person.name.last
        settings = mini_city.privacy_settings(42)
        assert settings.default is not None

    def test_minors_get_minor_defaults(self, mini_city):
        from repro.osn.privacy import Audience, ProfileField

        checked = 0
        for uid in range(mini_city.n_accounts):
            if mini_city.is_registered_minor(uid):
                settings = mini_city.privacy_settings(uid)
                assert not settings.public_search
                assert (
                    settings.audience_for(ProfileField.FRIEND_LIST)
                    is not Audience.PUBLIC
                )
                checked += 1
                if checked >= 200:
                    break
        assert checked > 0

    def test_metro_never_materialises_adjacency(self):
        world = generate("metro", seed=1, blocks=2)
        assert world.csr is None
        with pytest.raises(RuntimeError, match="generation-only"):
            world.friends(0)
        # The served network reads the same graph and fails the same way.
        with pytest.raises(RuntimeError, match="generation-only"):
            ColumnarNetwork(world).relationship(1, 0)


def graph_digest(world) -> str:
    """SHA-256 over the CSR's dtypes and bytes."""
    digest = hashlib.sha256()
    for column in (world.csr.indptr, world.csr.indices):
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


class TestNativeGraphIdentity:
    """One seed yields one native graph, byte for byte: a digest moves
    only when a change means to draw a different city."""

    @pytest.mark.parametrize(
        "seed, blocks, expected",
        [
            (7, 3, "7cf0df9fb330463923ae8e0af45438ebaea677761ea9331991ffa60807d881a2"),
            (1, 5, "155503639eb760ca8aea514f380faec2a0150116b04c1a0711688c64ab5ebe7b"),
            (29, 2, "692ebef4fc2eb27f7f359a0af16373af378bd9967611aa0167bdad13f1f1d45f"),
        ],
        ids=["seed7-blocks3", "seed1-blocks5", "seed29-blocks2"],
    )
    def test_pinned_digest(self, seed, blocks, expected):
        world = generate("city", seed=seed, blocks=blocks)
        assert (world.csr.indptr.dtype, world.csr.indices.dtype) == ("int64", "int32")
        assert graph_digest(world) == expected

    def test_pinned_city_footprint(self):
        """The worldgen exhibit's 100k-account city, counted exactly."""
        world = generate("city", seed=1, blocks=25)
        assert (world.n_accounts, world.n_edges) == (100_000, 1_197_653)
        assert (world.column_nbytes, world.graph_nbytes) == (8_100_000, 10_381_232)


class TestGraphBuild:
    def test_a_key_that_fills_up_grows(self, monkeypatch):
        expected = graph_digest(generate("city", seed=29, blocks=2))
        generate_module = importlib.import_module("repro.colgen.generate")
        monkeypatch.setattr(generate_module, "_key_capacity", lambda spec: 2)
        assert graph_digest(generate("city", seed=29, blocks=2)) == expected

    def test_city_graph_build_holds_little_beyond_the_key(self, traced_peak):
        """The 100k city's graph build, under ``tracemalloc``.

        The composite key (16 bytes a drawn edge) is the build's only
        full-size array: 1.10x the key at the peak, the slots it keeps in
        reserve included (1.17x with a whole-key search for row starts and
        masked copies of the draws).  With a one-byte-per-key repeat mask
        beside it the build held 1.30x; drawing into an int32 endpoint
        list first and building ``indices`` as a narrowed copy of the
        key, 2.3x.
        """
        from repro.colgen.generate import _build_graph

        spec = TIERS["city"].with_blocks(25)
        n = spec.blocks * spec.block_size
        graph, peak = traced_peak(lambda: _build_graph(spec, 1, n))
        assert graph.edge_count() == 1_197_653
        assert peak < 1.25 * 16 * drawn_edges(spec, 1)

    def test_city_generation_holds_little_beyond_the_key(self, traced_peak):
        """The whole 100k city, columns and all, under ``tracemalloc``.

        The graph is built before the columns, so the key is the only
        large array alive at the peak (1.10x the key).  Drawn first, the
        columns sat under the key: 1.73x.
        """
        world, peak = traced_peak(lambda: generate("city", seed=1, blocks=25))
        assert world.n_edges == 1_197_653
        assert peak < 1.3 * 16 * drawn_edges(TIERS["city"].with_blocks(25), 1)


def drawn_edges(spec, seed) -> int:
    """How many loop-free edges a native world draws: its key holds two
    slots each."""
    import numpy as np

    from repro.colgen.generate import _shard_edge_batch

    n = spec.blocks * spec.block_size
    total = 0
    for b in range(spec.blocks):
        src_in, dst_in, src_out, dst_out = _shard_edge_batch(spec, seed, b, n)
        total += int(np.count_nonzero(src_in != dst_in) + np.count_nonzero(src_out != dst_out))
    return total


class TestBench:
    def test_bench_record_fields(self, tmp_path):
        record = bench_worldgen("city", seed=7, blocks=_BLOCKS)
        assert record["accounts"] == _BLOCKS * TIERS["city"].block_size
        assert record["graph_materialized"]
        assert record["accounts_per_second"] > 0
        assert record["peak_rss_bytes"] > 0

        out = tmp_path / "BENCH_worldgen.json"
        write_bench_json(record, str(out))
        assert json.loads(out.read_text())["tier"] == "city"

    def test_smoke_bench_runs_object_path(self):
        record = bench_worldgen("smoke", seed=11)
        assert record["accounts"] > 5_000
        assert "build_seconds" in record and "encode_seconds" in record

    def test_graph_and_columns_time_their_own_phases(self, monkeypatch):
        # On a clock that only the two phases move (the graph by 10, the
        # columns by 1), each phase's seconds are its own and together
        # they make up the run.
        generate_module = importlib.import_module("repro.colgen.generate")
        now = [0.0]

        def ticking(phase, seconds):
            def run(*args):
                now[0] += seconds
                return phase(*args)

            return run

        monkeypatch.setattr(generate_module, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(
            generate_module, "_build_graph", ticking(generate_module._build_graph, 10.0)
        )
        monkeypatch.setattr(
            generate_module, "_generate_columns", ticking(generate_module._generate_columns, 1.0)
        )
        record = bench_worldgen("city", seed=7, blocks=2)
        assert record["graph_build_seconds"] == 10.0
        assert record["columns_seconds"] == 1.0
        assert record["graph_build_seconds"] + record["columns_seconds"] == record["wall_seconds"]

    def test_peak_rss_is_a_positive_high_water_mark(self):
        record = bench_worldgen("city", seed=7, blocks=2)
        assert 0 < record["peak_rss_before_bytes"] <= record["peak_rss_bytes"]
        assert record["peak_rss_bytes"] <= peak_rss_bytes()

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "BENCH_worldgen.json"
        write_bench_json({"tier": "city", "accounts": 8_000}, str(out))
        before = out.read_text()
        with pytest.raises(TypeError):
            write_bench_json({"tier": "city", "accounts": object()}, str(out))
        assert out.read_text() == before
        assert [path.name for path in tmp_path.iterdir()] == [out.name]


class TestCli:
    def test_worldgen_smoke_tier(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_worldgen.json"
        assert main(["worldgen", "--tier", "smoke", "--bench-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Columnar worldgen" in printed
        record = json.loads(out.read_text())
        assert record["tier"] == "smoke"
        assert record["accounts"] > 5_000

    def test_worldgen_city_blocks_override(self, capsys):
        from repro.cli import main

        assert main(["worldgen", "--tier", "city", "--blocks", "2"]) == 0
        assert "8,000" in capsys.readouterr().out

    @pytest.mark.parametrize("blocks", ["0", "-1"])
    def test_worldgen_fewer_than_one_block_is_a_usage_error(self, blocks, capsys):
        # -1 died in _key_capacity's log; 0 reported an empty world.
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["worldgen", "--tier", "city", "--blocks", blocks])
        assert exited.value.code == 2
        assert f"--blocks: must be at least 1, not {blocks}" in capsys.readouterr().err

    @pytest.mark.parametrize("tier_name", ["smoke", "paper"])
    def test_worldgen_blocks_on_a_preset_tier_is_a_usage_error(
        self, tier_name, capsys, monkeypatch
    ):
        # The preset tiers used to ignore the flag and build their full world.
        import repro.colgen
        from repro.cli import main

        def no_world(*args, **kwargs):
            raise AssertionError("a world was built")

        monkeypatch.setattr(repro.colgen, "bench_worldgen", no_world)
        assert main(["worldgen", "--tier", tier_name, "--blocks", "3"]) == 2
        assert f"not to --tier {tier_name}" in capsys.readouterr().err
