"""The telemetry event record and its JSONL line format.

Events answer "what happened, in order", and every count is a fold of
them.  The crawl client records one :class:`TelemetryEvent` per request
attempt (and the profiler one per finished span); a session writes its
events as JSON lines when it closes, and :func:`read_jsonl` reads them
back, so ``python -m repro trace`` folds a recorded session into exactly
the report the live run produced.

Events are stamped with *simulated* time (the paper's unit of crawl
effort) plus a monotonic sequence number.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, NamedTuple


def _line_encoder() -> Callable[[Dict[str, Any]], str]:
    """``json.dumps(payload, sort_keys=True)``, with its encoder built once.

    ``JSONEncoder.encode`` builds a fresh C encoder on every call, a
    fixed cost per line; this builds the same encoder once, with the
    same separators, escaping and float ``repr``.  The
    circular-reference check is off: a payload is one flat dict.
    """
    encoder = json.JSONEncoder(sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:  # no C accelerator: the pure-Python encoder
        return encoder.encode
    encode = make(
        None,  # no circular-reference markers
        encoder.default,
        json.encoder.encode_basestring_ascii,
        None,  # no indent
        encoder.key_separator,
        encoder.item_separator,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return lambda payload: "".join(encode(payload, 0))


_encode_line = _line_encoder()


class TelemetryEvent(NamedTuple):
    """One timestamped happening in the crawl pipeline.

    A named tuple: a session emits one per request attempt, and a tuple
    is the cheapest immutable record to build.
    """

    kind: str
    seq: int
    sim_ts: float
    phase: str
    fields: Dict[str, Any]

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "seq": self.seq,
            "sim_ts": self.sim_ts,
            "phase": self.phase,
            **self.fields,
        }
        return _encode_line(payload)

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        payload = json.loads(line)
        return cls(
            kind=payload.pop("kind"),
            seq=payload.pop("seq"),
            sim_ts=payload.pop("sim_ts"),
            phase=payload.pop("phase", "-"),
            fields=payload,
        )


def read_jsonl(path: str) -> List[TelemetryEvent]:
    """Load a JSONL trace back into event records."""
    events: List[TelemetryEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TelemetryEvent.from_json(line))
    return events
