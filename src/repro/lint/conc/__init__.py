"""Concurrency-safety analysis (PURE001/SHARE001/ASYNC001/ASYNC002).

Layered on :mod:`repro.lint.flow`: per-function effect summaries
(mutates-self / mutates-param / mutates-global / mutates-class-attr /
performs-blocking-call) propagated over the whole-program call graph,
proving the serve path is read-only and shared state is explicitly
owned, which the crawl engine's concurrent sessions rely on.
"""

from .effects import (
    BLOCKING_CALLS,
    MUTATOR_METHODS,
    BlockingSite,
    EffectAnalysis,
    FunctionEffects,
    MutationSite,
    analysis_for,
)
from .rules import (
    AsyncBlockingRule,
    AwaitInterleavingRule,
    ServePathPurityRule,
    SharedStateRule,
)

__all__ = [
    "BLOCKING_CALLS",
    "MUTATOR_METHODS",
    "BlockingSite",
    "EffectAnalysis",
    "FunctionEffects",
    "MutationSite",
    "analysis_for",
    "AsyncBlockingRule",
    "AwaitInterleavingRule",
    "ServePathPurityRule",
    "SharedStateRule",
]
