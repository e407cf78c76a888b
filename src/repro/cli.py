"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro attack --preset hs1 --enhanced --filtering -t 400
    python -m repro attack --preset hs1 --telemetry trace.jsonl
    python -m repro trace trace.jsonl
    python -m repro sweep --preset hs1 --thresholds 200,300,400,500
    python -m repro tables --preset facebook
    python -m repro coppaless --preset hs1
    python -m repro countermeasure --preset hs1
    python -m repro worldinfo --preset hs2
    python -m repro worldgen --tier city --bench-out BENCH_worldgen.json

Every experiment subcommand builds the requested synthetic world
(deterministic per ``--seed``), runs the corresponding experiment
through the crawlable frontend, and prints paper-style tables/series.
The pipeline's own speed is measured by ``python bench/run.py`` (see
``bench/README.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.figures import (
    figure1,
    figure3,
    figure4,
    log10_gap_at_matched_coverage,
    render_figure,
)
from repro.analysis.tables import ascii_table, render_policy_table
from repro.core.api import make_client, run_attack
from repro.core.coppaless import run_natural_approach
from repro.analysis.robustness import run_across_seeds
from repro.core.countermeasures import run_countermeasure_comparison, run_countermeasure_suite
from repro.core.evaluation import (
    evaluate_full,
    natural_approach_points,
    sweep_full,
    with_coppa_minimal_points,
)
from repro.core.profiler import ProfilerConfig
from repro.lint.cli import add_lint_arguments, run_lint
from repro.osn.policy import policy_by_name
from repro.telemetry import CrawlSessionReport, Telemetry, read_jsonl
from repro.worldgen.export import export_world_json
from repro.worldgen.presets import PRESETS, preset
from repro.worldgen.world import World, build_world


def _parse_thresholds(raw: str) -> List[int]:
    try:
        values = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad threshold list: {raw!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("threshold list is empty")
    return values


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="hs1",
        help="which calibrated world to build",
    )
    parser.add_argument("--seed", type=int, default=None, help="world RNG seed")
    parser.add_argument(
        "--accounts", type=int, default=2, help="number of fake crawl accounts"
    )
    parser.add_argument(
        "--without-coppa",
        action="store_true",
        help="build the Section-7 counterfactual world (no age ban, no lying)",
    )


def _build_world_from(args: argparse.Namespace) -> World:
    config = preset(args.preset, args.seed)
    if args.without_coppa:
        config = config.without_coppa()
    return build_world(config)


def _profiler_config(args: argparse.Namespace) -> ProfilerConfig:
    return ProfilerConfig(
        threshold=args.threshold,
        enhanced=args.enhanced,
        filtering=args.filtering,
        epsilon=args.epsilon,
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_attack(args: argparse.Namespace) -> int:
    world = _build_world_from(args)
    telemetry = None
    if args.telemetry:
        # The session writes its files on close; reject an unwritable
        # path now rather than after the whole crawl has run.
        for out_path in filter(None, (args.telemetry, args.prometheus)):
            try:
                with open(out_path, "w", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"error: cannot write {out_path!r}: {exc}", file=sys.stderr)
                return 2
        telemetry = Telemetry(
            world.clock, jsonl=args.telemetry, prometheus=args.prometheus or None
        )
    result = run_attack(
        world,
        accounts=args.accounts,
        config=_profiler_config(args),
        telemetry=telemetry,
    )
    truth = world.ground_truth()
    evaluation = evaluate_full(result, truth, args.threshold)
    rows = [
        ("school", result.school.name),
        ("seeds", len(result.seeds)),
        ("core users", result.initial_core_size),
        ("extended core", result.extended_core_size),
        ("candidates", len(result.candidates)),
        ("HTTP GETs", result.effort.total),
        ("threshold t", evaluation.threshold),
        ("students found", f"{evaluation.found} ({100 * evaluation.found_fraction:.0f}%)"),
        ("correct year", f"{evaluation.correct_year} ({100 * evaluation.year_accuracy:.0f}%)"),
        (
            "false positives",
            f"{evaluation.false_positives} ({100 * evaluation.false_positive_rate:.0f}%)",
        ),
    ]
    print(ascii_table(("metric", "value"), rows, title="Attack summary"))
    if telemetry is not None:
        telemetry.close()
        print(
            f"\ntelemetry: {telemetry.event_count} events -> {args.telemetry}"
            + (f" (metrics -> {args.prometheus})" if args.prometheus else "")
        )
        print(f"replay with: python -m repro trace {args.telemetry}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        report = CrawlSessionReport.from_events(read_jsonl(args.trace))
    except OSError as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {args.trace!r} is not a telemetry trace: {exc}", file=sys.stderr)
        return 2
    print(report.render(title=f"Crawl-session report ({args.trace})"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    world = _build_world_from(args)
    config = ProfilerConfig(
        threshold=max(args.thresholds) if args.threshold is None else args.threshold,
        enhanced=True,
        filtering=True,
        epsilon=args.epsilon,
    )
    result = run_attack(world, accounts=args.accounts, config=config)
    evals = sweep_full(result, world.ground_truth(), args.thresholds)
    print(render_figure(figure1(evals, args.preset.upper())))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    policy = policy_by_name(args.policy)
    label = "Table 1" if args.policy == "facebook" else "Table 6"
    print(
        render_policy_table(
            policy,
            f"{label}: {args.policy} - default and worst-case information "
            "available to strangers",
        )
    )
    return 0


def cmd_coppaless(args: argparse.Namespace) -> int:
    world = _build_world_from(args)
    minimal_truth = world.minimal_profile_students()
    current = world.current_year
    attack = run_attack(
        world,
        accounts=args.accounts,
        config=ProfilerConfig(
            threshold=args.threshold or 500, enhanced=True, filtering=True
        ),
    )
    natural = run_natural_approach(
        make_client(world, args.accounts),
        world.school().school_id,
        [current - 1, current - 2],
    )
    fig = figure3(
        with_coppa_minimal_points(attack, minimal_truth),
        natural_approach_points(natural, minimal_truth),
    )
    print(render_figure(fig))
    gap = log10_gap_at_matched_coverage(fig)
    if gap is not None:
        print(f"\nlog10 false-positive gap at matched coverage: {gap:.2f}")
    return 0


def cmd_countermeasure(args: argparse.Namespace) -> int:
    world = _build_world_from(args)
    report = run_countermeasure_comparison(
        world,
        accounts=args.accounts,
        config=ProfilerConfig(
            threshold=args.threshold or 500, enhanced=True, filtering=True
        ),
        thresholds=args.thresholds,
    )
    print(render_figure(figure4(report, args.preset.upper())))
    return 0


def cmd_worldinfo(args: argparse.Namespace) -> int:
    world = _build_world_from(args)
    truth = world.ground_truth()
    stats = world.network.population_stats()
    rows = [
        ("school", world.school().name),
        ("enrolled students", truth.enrolled_count),
        ("students on OSN (|M|)", truth.on_osn_count),
        ("registered-minor students", len(world.registered_minor_students())),
        ("adult-registered students", len(world.adult_registered_students())),
        ("minimal-profile students", len(world.minimal_profile_students())),
        ("total accounts", int(stats["users"])),
        ("age liars (all accounts)", int(stats["age_liars"])),
        ("friendship edges", int(stats["edges"])),
        ("mean degree", f"{stats['mean_degree']:.1f}"),
    ]
    print(ascii_table(("metric", "value"), rows, title="World summary"))
    return 0


def cmd_defences(args: argparse.Namespace) -> int:
    config = preset(args.preset, args.seed)
    if args.without_coppa:
        config = config.without_coppa()
    outcomes = run_countermeasure_suite(
        config,
        accounts=args.accounts,
        config=ProfilerConfig(
            threshold=args.threshold, enhanced=True, filtering=True
        ),
        t=args.threshold,
    )
    rows = [
        (o.name, f"{o.found_percent:.0f}%", o.false_positives, o.core_size, o.seeds)
        for o in outcomes
    ]
    print(
        ascii_table(
            ("defence", "students found", "false positives", "core", "seeds"),
            rows,
            title="Defence portfolio vs the attack",
        )
    )
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    config = preset(args.preset, args.seed)
    summary = run_across_seeds(
        config,
        seeds=args.seeds,
        attack_config=ProfilerConfig(
            threshold=args.threshold, enhanced=True, filtering=True
        ),
        accounts=args.accounts,
        t=args.threshold,
    )
    rows = [
        (
            r.seed,
            f"{100 * r.evaluation.found_fraction:.0f}%",
            f"{100 * r.evaluation.false_positive_rate:.0f}%",
            r.core_size,
        )
        for r in summary.runs
    ]
    print(ascii_table(("seed", "coverage", "FP rate", "core"), rows))
    print("\n" + summary.describe())
    return 0


def cmd_worldgen(args: argparse.Namespace) -> int:
    from repro.colgen import bench_worldgen, write_bench_json

    record = bench_worldgen(
        args.tier,
        seed=args.seed,
        school=args.school,
        blocks=args.blocks,
    )
    rows = [
        ("tier", record["tier"]),
        ("accounts", f"{record['accounts']:,}"),
        ("friendship edges", f"{record['edges']:,}"),
        ("graph materialised", record["graph_materialized"]),
        ("accounts / second", f"{record['accounts_per_second']:,.0f}"),
        ("wall seconds", f"{record['wall_seconds']:.2f}"),
        ("graph build seconds", f"{record['graph_build_seconds']:.2f}"),
        ("column bytes", f"{record['column_nbytes']:,}"),
        ("graph bytes", f"{record['graph_nbytes']:,}"),
        ("peak RSS", f"{record['peak_rss_bytes'] / 2**20:,.0f} MiB"),
    ]
    print(ascii_table(("metric", "value"), rows, title="Columnar worldgen"))
    if args.bench_out:
        write_bench_json(record, args.bench_out)
        print(f"wrote bench record to {args.bench_out}")
    return 0


def cmd_crawl(args: argparse.Namespace) -> int:
    """Concurrent school crawl through the async engine."""
    from repro.colgen import generate
    from repro.colgen.serve import (
        columnar_frontend,
        first_school_id,
        frontend_for_object_world,
        session_accounts,
    )
    from repro.crawler.accounts import AccountPool
    from repro.crawler.client import CrawlClient
    from repro.crawler.engine import CrawlPlan, CrawlScheduler

    serve = args.serve or ("columnar" if args.tier else "object")
    if args.tier:
        if serve != "columnar":
            print(
                "error: --tier worlds have no object representation; "
                "use --serve columnar",
                file=sys.stderr,
            )
            return 2
        columnar = generate(args.tier, seed=1 if args.seed is None else args.seed)
        frontend = columnar_frontend(columnar)
        uids = session_accounts(frontend, args.accounts)
        school_id = first_school_id(frontend)
        label = f"tier={args.tier}"
        seed = columnar.seed
    else:
        world = _build_world_from(args)
        if serve == "columnar":
            frontend = frontend_for_object_world(world)
            uids = session_accounts(frontend, args.accounts)
        else:
            frontend = world.frontend
            uids = world.create_attacker_accounts(args.accounts)
        school_id = world.school().school_id
        label = f"preset={args.preset}"
        seed = world.config.seed

    client = CrawlClient(frontend, AccountPool.of(uids), seed=seed)
    plan = CrawlPlan(school_id=school_id, max_profiles=args.budget)
    result = CrawlScheduler(client, plan).run()

    effort = result.effort
    rows = [
        ("world", f"{label} seed={seed} serve={serve}"),
        ("accounts", str(len(uids))),
        ("pages", str(result.pages)),
        ("sim_seconds", f"{result.sim_seconds:.1f}"),
        ("pages_per_sim_second", f"{result.pages_per_sim_second:.3f}"),
        ("seeds", str(len(result.seeds))),
        ("profiles", str(len(result.profiles))),
        ("friend_lists", str(len(result.friend_lists))),
        ("seed_requests", str(effort.seed_requests)),
        ("profile_requests", str(effort.profile_requests)),
        ("friend_list_requests", str(effort.friend_list_requests)),
        ("failures", str(len(result.failures))),
    ]
    print(ascii_table(("metric", "value"), rows, title="Concurrent crawl"))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    world = _build_world_from(args)
    export_world_json(world, args.output, include_individuals=args.full)
    print(f"wrote {'full' if args.full else 'aggregate'} snapshot to {args.output}")
    return 0


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Profiling High-School Students with "
        "Facebook' (IMC 2013) on a synthetic OSN.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack", help="run the methodology once")
    _add_world_args(attack)
    attack.add_argument("-t", "--threshold", type=int, default=None)
    attack.add_argument("--enhanced", action="store_true")
    attack.add_argument("--filtering", action="store_true")
    attack.add_argument("--epsilon", type=float, default=1.0)
    attack.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="record a JSONL crawl trace to PATH (replay with 'repro trace')",
    )
    attack.add_argument(
        "--prometheus",
        metavar="PATH",
        default=None,
        help="with --telemetry, also snapshot metrics in Prometheus text format",
    )
    attack.set_defaults(func=cmd_attack)

    trace = sub.add_parser(
        "trace", help="replay a JSONL telemetry trace into a session report"
    )
    trace.add_argument("trace", help="path to a trace written by attack --telemetry")
    trace.set_defaults(func=cmd_trace)

    sweep = sub.add_parser("sweep", help="Figure-1-style threshold sweep")
    _add_world_args(sweep)
    sweep.add_argument("-t", "--threshold", type=int, default=None)
    sweep.add_argument("--epsilon", type=float, default=1.0)
    sweep.add_argument(
        "--thresholds", type=_parse_thresholds, default=[200, 300, 400, 500]
    )
    sweep.set_defaults(func=cmd_sweep)

    tables = sub.add_parser("tables", help="print a policy table (1 or 6)")
    tables.add_argument(
        "--policy", choices=("facebook", "googleplus"), default="facebook"
    )
    tables.set_defaults(func=cmd_tables)

    coppaless = sub.add_parser("coppaless", help="Figure-3 with/without COPPA")
    _add_world_args(coppaless)
    coppaless.add_argument("-t", "--threshold", type=int, default=None)
    coppaless.set_defaults(func=cmd_coppaless)

    counter = sub.add_parser("countermeasure", help="Figure-4 reverse lookup")
    _add_world_args(counter)
    counter.add_argument("-t", "--threshold", type=int, default=None)
    counter.add_argument(
        "--thresholds", type=_parse_thresholds, default=[200, 300, 400, 500]
    )
    counter.set_defaults(func=cmd_countermeasure)

    worldinfo = sub.add_parser("worldinfo", help="summarise a synthetic world")
    _add_world_args(worldinfo)
    worldinfo.set_defaults(func=cmd_worldinfo)

    defences = sub.add_parser("defences", help="evaluate the defence portfolio")
    _add_world_args(defences)
    defences.add_argument("-t", "--threshold", type=int, default=400)
    defences.set_defaults(func=cmd_defences)

    robustness = sub.add_parser("robustness", help="attack across several seeds")
    _add_world_args(robustness)
    robustness.add_argument("-t", "--threshold", type=int, default=400)
    robustness.add_argument(
        "--seeds", type=_parse_thresholds, default=[11, 22, 33],
        help="comma-separated world seeds",
    )
    robustness.set_defaults(func=cmd_robustness)

    crawl = sub.add_parser(
        "crawl",
        help="run the async multi-account crawl engine against one school",
    )
    _add_world_args(crawl)
    crawl.add_argument(
        "--serve",
        choices=("object", "columnar"),
        default=None,
        help="serving path: per-account objects or the columnar world "
        "(default: object, or columnar with --tier)",
    )
    crawl.add_argument(
        "--tier",
        choices=("smoke", "paper", "city", "metro"),
        default=None,
        help="crawl a native columnar tier instead of a preset "
        "(implies --serve columnar)",
    )
    crawl.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="cap the crawl at N profiles (and their friend lists)",
    )
    crawl.set_defaults(func=cmd_crawl)

    export = sub.add_parser("export", help="export a world snapshot to JSON")
    _add_world_args(export)
    export.add_argument("-o", "--output", default="world.json")
    export.add_argument(
        "--full", action="store_true",
        help="include per-account records and the edge list",
    )
    export.set_defaults(func=cmd_export)

    worldgen = sub.add_parser(
        "worldgen",
        help="generate a columnar world at a named size tier",
    )
    worldgen.add_argument(
        "--tier",
        default="smoke",
        choices=("smoke", "paper", "city", "metro"),
        help="size tier to generate (default: smoke)",
    )
    worldgen.add_argument("--seed", type=int, default=1, help="world seed")
    worldgen.add_argument(
        "--school",
        default="hs1",
        choices=("hs1", "hs2", "hs3"),
        help="school preset for the paper tier (default: hs1)",
    )
    worldgen.add_argument(
        "--blocks",
        type=int,
        default=None,
        help="override the native tiers' block count (smaller test runs)",
    )
    worldgen.add_argument(
        "--bench-out",
        default=None,
        metavar="PATH",
        help="write the machine-readable bench record (BENCH_worldgen.json)",
    )
    worldgen.set_defaults(func=cmd_worldgen)

    lint = sub.add_parser(
        "lint",
        help="oracle-boundary / determinism / sim-clock static checks",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
