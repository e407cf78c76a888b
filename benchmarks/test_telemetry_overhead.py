"""Instrumentation overhead: the telemetry-on tax must stay under 10%.

Runs the enhanced+filtered HS1 attack with telemetry off and with the
JSONL sink attached (the most expensive shipped sink: every event is
serialised when the session closes, inside the timed region),
interleaved best-of-N to shrug off scheduler noise.  Each round starts
from a fresh collection and runs with the collector paused, so the
verdict measures telemetry rather than which rounds a full collection
happened to land in.  The test asserts the <10% budget itself.
"""

from __future__ import annotations

import gc
import time

from repro.core.api import run_attack
from repro.core.profiler import ProfilerConfig
from repro.telemetry import Telemetry
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

from _bench_utils import emit

_ROUNDS = 3
_MAX_OVERHEAD = 0.10
_CONFIG = ProfilerConfig(threshold=500, enhanced=True, filtering=True)


def _attack_once(world, tmp_path, instrumented: bool):
    telemetry = None
    if instrumented:
        telemetry = Telemetry(
            world.network.clock, jsonl=str(tmp_path / "overhead.jsonl")
        )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_attack(world, accounts=2, config=_CONFIG, telemetry=telemetry)
        if telemetry is not None:
            telemetry.close()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, result, telemetry


def test_telemetry_overhead_under_10_percent(tmp_path):
    world = build_world(hs1())
    _attack_once(world, tmp_path, instrumented=False)  # warm-up

    off_times, on_times = [], []
    events = requests = 0
    for _ in range(_ROUNDS):
        off, _, _ = _attack_once(world, tmp_path, instrumented=False)
        on, result, telemetry = _attack_once(world, tmp_path, instrumented=True)
        off_times.append(off)
        on_times.append(on)
        events = telemetry.event_count
        requests = result.effort.total

    best_off, best_on = min(off_times), min(on_times)
    overhead = best_on / best_off - 1.0

    lines = [
        "Telemetry overhead (HS1, enhanced+filtering, JSONL sink)",
        f"rounds:                {_ROUNDS} (interleaved, best-of)",
        f"requests per run:      {requests}",
        f"events per run:        {events}",
        f"telemetry off (best):  {best_off * 1000:.1f} ms",
        f"telemetry on  (best):  {best_on * 1000:.1f} ms",
        f"overhead:              {overhead * 100:+.1f}% (budget {_MAX_OVERHEAD:.0%})",
    ]
    emit("telemetry_overhead", "\n".join(lines))

    assert events > requests > 0
    assert overhead < _MAX_OVERHEAD, lines[-1]
