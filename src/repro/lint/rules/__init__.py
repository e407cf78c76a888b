"""Rule registry: importing this package registers every built-in rule."""

from .base import FileContext, Rule, all_rules, register, rule_ids
from . import clock, determinism, mutables, oracle  # noqa: F401  (registration)

# The whole-program rules live outside this package; importing them
# registers them.  flow (FLOW001/FLOW002/DEAD001) first — conc
# (PURE001/SHARE001) builds on its IR and base class.
from .. import flow  # noqa: E402,F401  (registration)
from .. import conc  # noqa: E402,F401  (registration)

# scale (SCALE001/SCALE002/SCALE003/DET002) rides both the flow IR and
# conc's effect summaries, so it registers last.
from .. import scale  # noqa: E402,F401  (registration)

__all__ = [
    "FileContext",
    "Rule",
    "all_rules",
    "clock",
    "determinism",
    "mutables",
    "oracle",
    "register",
    "rule_ids",
]
