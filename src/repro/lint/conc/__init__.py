"""Concurrency-safety analysis (PURE001/SHARE001).

Layered on :mod:`repro.lint.flow`: per-function effect summaries
(mutates-self / mutates-param / mutates-global / mutates-class-attr)
propagated over the whole-program call graph, proving the serve path
is read-only and shared state is explicitly owned, which the crawl
engine's concurrent sessions rely on.
"""

from .effects import (
    MUTATOR_METHODS,
    EffectAnalysis,
    MutationSite,
    analysis_for,
)
from .rules import (
    ServePathPurityRule,
    SharedStateRule,
)

__all__ = [
    "MUTATOR_METHODS",
    "EffectAnalysis",
    "MutationSite",
    "analysis_for",
    "ServePathPurityRule",
    "SharedStateRule",
]
