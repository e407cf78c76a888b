"""The paper's primary contribution: the high-school profiling attack.

Seed harvesting, core-set extraction, reverse-lookup scoring, threshold
selection, the enhanced and filtering variants, profile extension,
hidden-link inference, the without-COPPA analysis and the
reverse-lookup countermeasure — plus full- and partial-ground-truth
evaluation matching the paper's Sections 4–8.
"""

from .api import make_client, run_attack
from .coppaless import NaturalApproachResult, run_natural_approach
from .coreset import CoreSet, claimed_graduation_year, extract_claims
from .countermeasures import (
    CountermeasurePoint,
    CountermeasureReport,
    DefenceOutcome,
    run_countermeasure_comparison,
    run_countermeasure_suite,
)
from .evaluation import (
    CoveragePoint,
    FullEvaluation,
    PartialEvaluation,
    collect_test_users,
    evaluate_full,
    evaluate_partial,
    natural_approach_points,
    sweep_full,
    sweep_partial,
    with_coppa_minimal_points,
)
from .extension import (
    AdultRegisteredStats,
    ExtendedProfile,
    build_extended_profiles,
    infer_birth_year,
    registered_minor_friend_average,
    table5_stats,
)
from .filtering import (
    ALL_RULES,
    FilterConfig,
    apply_filters,
    filter_reason,
)
from .age_inference import (
    AgeEstimate,
    AgeInferenceEvaluation,
    estimate_birth_years,
    evaluate_age_inference,
)
from .interaction import (
    InteractionStats,
    interaction_counts,
    score_with_interactions,
    summarize_interactions,
)
from .outreach import (
    OutreachReport,
    assess_contactability,
    compose_personalized_message,
    run_outreach_campaign,
)
from .linkage import (
    AddressCandidate,
    Confidence,
    LinkageEvaluation,
    evaluate_linkage,
    friend_name_resolver,
    link_home_addresses,
)
from .hidden_links import (
    InferredLink,
    LinkInferenceEvaluation,
    evaluate_link_inference,
    infer_hidden_links,
    jaccard_index,
)
from .profiler import AttackResult, HighSchoolProfiler, ProfilerConfig
from .scoring import (
    CandidateScore,
    ScoreTable,
    ScoringRule,
    score_candidates,
)

__all__ = [
    "ALL_RULES",
    "AddressCandidate",
    "AgeEstimate",
    "AgeInferenceEvaluation",
    "AdultRegisteredStats",
    "AttackResult",
    "CandidateScore",
    "Confidence",
    "CoreSet",
    "CountermeasurePoint",
    "CountermeasureReport",
    "CoveragePoint",
    "DefenceOutcome",
    "ExtendedProfile",
    "FilterConfig",
    "FullEvaluation",
    "HighSchoolProfiler",
    "InferredLink",
    "InteractionStats",
    "LinkInferenceEvaluation",
    "LinkageEvaluation",
    "NaturalApproachResult",
    "OutreachReport",
    "PartialEvaluation",
    "ProfilerConfig",
    "ScoreTable",
    "ScoringRule",
    "apply_filters",
    "assess_contactability",
    "build_extended_profiles",
    "claimed_graduation_year",
    "collect_test_users",
    "compose_personalized_message",
    "estimate_birth_years",
    "evaluate_age_inference",
    "evaluate_full",
    "evaluate_link_inference",
    "evaluate_linkage",
    "evaluate_partial",
    "extract_claims",
    "filter_reason",
    "friend_name_resolver",
    "infer_birth_year",
    "infer_hidden_links",
    "interaction_counts",
    "jaccard_index",
    "link_home_addresses",
    "make_client",
    "natural_approach_points",
    "registered_minor_friend_average",
    "run_attack",
    "run_countermeasure_comparison",
    "run_countermeasure_suite",
    "run_natural_approach",
    "run_outreach_campaign",
    "score_candidates",
    "score_with_interactions",
    "summarize_interactions",
    "sweep_full",
    "sweep_partial",
    "table5_stats",
    "with_coppa_minimal_points",
]
