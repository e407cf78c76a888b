"""ORACLE001/ORACLE002 — the attacker/oracle epistemic boundary.

The paper's claim is only meaningful if the attacker (crawler +
profiler) learns everything through the OSN's stranger-facing
interface.  These rules make that machine-checked:

* **ORACLE001** — modules under :data:`ATTACKER_PACKAGES` may not
  import ``repro.worldgen`` at all, nor ``repro.osn`` internals beyond
  the attacker-visible surface (:data:`ATTACKER_VISIBLE_OSN`).
  Imports under ``if TYPE_CHECKING:`` are permitted: they never run,
  so they cannot move data across the boundary.
* **ORACLE002** — the same modules may not touch ground-truth
  attributes (:data:`GROUND_TRUTH_ATTRIBUTES`) on *any* object; the
  simulator's internals must stay unreachable even when a ``World``
  flows through attacker code as an opaque handle.

Modules in :data:`EVALUATION_MODULES` are the explicitly-marked
evaluation seam (scoring *needs* ground truth) and are exempt from
both rules.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..findings import Finding
from .base import FileContext, Rule, register

#: Packages holding attacker-side code, subject to the boundary rules.
ATTACKER_PACKAGES: Tuple[str, ...] = ("repro.crawler", "repro.core")

#: The OSN modules a stranger-level attacker legitimately sees: the
#: HTML frontend, its parsed page/view projections, the shared value
#: vocabulary (`repro.osn.public`), errors and the simulated clock (a
#: real attacker knows the date and can read a wall clock).
ATTACKER_VISIBLE_OSN = frozenset(
    {
        "repro.osn.clock",
        "repro.osn.errors",
        "repro.osn.frontend",
        "repro.osn.pages",
        "repro.osn.public",
        "repro.osn.view",
    }
)

#: The evaluation seam: scoring code that *must* read ground truth,
#: exempt from both oracle rules.  Keep this list short and audited.
EVALUATION_MODULES = frozenset(
    {
        "repro.core.countermeasures",  # builds counterfactual worlds to compare defences
        "repro.core.evaluation",       # scores attack output against ground truth
        "repro.core.oracle",           # the narrow ground-truth window itself
    }
)

#: Attribute names that expose ground truth on worlds / networks /
#: populations.  Attacker code reading any of these is a leak.
GROUND_TRUTH_ATTRIBUTES = frozenset(
    {
        "account_index",
        "adult_registered_students",
        "all_student_uids",
        "birth_year_fraction",
        "ground_truth",
        "ground_truths",
        "is_registered_minor",
        "minimal_profile_students",
        "network",
        "person_for",
        "population",
        "real_birth_years",
        "real_street_addresses",
        "registered_minor_students",
        "student_uids_by_year",
        "students_by_year",
        "user_for",
        "year_of_uid",
    }
)


def is_attacker_module(module: str) -> bool:
    """True for modules the boundary rules police."""
    if module in EVALUATION_MODULES:
        return False
    return any(
        module == package or module.startswith(package + ".")
        for package in ATTACKER_PACKAGES
    )


def forbidden_import(target: str) -> "str | None":
    """Why ``target`` may not be imported from attacker code (or None)."""
    if target == "repro.worldgen" or target.startswith("repro.worldgen."):
        return (
            f"imports simulator ground truth '{target}'; attacker code must go "
            "through repro.osn.frontend or the evaluation seam (repro.core.oracle)"
        )
    if target == "repro.colgen" or target.startswith("repro.colgen."):
        return (
            f"imports columnar simulator ground truth '{target}'; attacker code "
            "sees columnar worlds only through the HTML frontend they serve"
        )
    if target == "repro.osn" or target.startswith("repro.osn."):
        if target not in ATTACKER_VISIBLE_OSN:
            return (
                f"imports OSN internal '{target}'; attacker code may only use "
                "the attacker-visible surface "
                "(frontend, pages, view, public, errors, clock)"
            )
    return None


def import_targets(ctx: FileContext, node: ast.AST) -> List[str]:
    """The absolute dotted modules one import statement reaches for."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = ctx.resolve_relative(node)
        # ``from repro import worldgen`` / ``from repro.osn import view``
        # name *modules*; check each bound name as a submodule.
        if module in ("repro", "repro.osn", "repro.worldgen"):
            return [f"{module}.{alias.name}" for alias in node.names]
        return [module]
    return []


@register
class OracleImportRule(Rule):
    """Attacker layers must not import simulator internals.

    Rationale: the paper's threat model gives the attacker only what a
    real crawler sees — rendered pages.  An import of ``repro.worldgen``
    or a non-public ``repro.osn`` module lets attack code read ground
    truth it could never observe, silently inflating results.

    Fix: consume the crawler-visible vocabulary (``repro.osn.public``)
    or route the access through the evaluation seam
    (``repro.core.oracle``).

    Suppression: ``# repro-lint: allow(ORACLE001) -- <why>`` on the
    import line (evaluation-only helpers).
    """

    rule_id = "ORACLE001"
    summary = (
        "attacker layers (repro.crawler, repro.core) must not import "
        "repro.worldgen or non-public repro.osn internals"
    )
    category = "boundary"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not is_attacker_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node in ctx.typing_only:
                continue
            for target in import_targets(ctx, node):
                reason = forbidden_import(target)
                if reason is not None:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"attacker-layer module '{ctx.module}' {reason}",
                    )


@register
class OracleAttributeRule(Rule):
    """Attacker layers must not read ground-truth attributes.

    Rationale: even without a forbidden import, an attribute chain like
    ``world.population`` or ``frontend.network`` reaches state the
    attacker cannot see; results computed from it measure nothing.

    Fix: score through :class:`repro.core.oracle.GroundTruthOracle`
    (the one sanctioned evaluation seam) or parse it out of fetched
    pages like the crawler does.

    Suppression: ``# repro-lint: allow(ORACLE002) -- <why>`` on the
    reading line.
    """

    rule_id = "ORACLE002"
    summary = (
        "attacker layers must not read ground-truth attributes "
        "(world.population, .ground_truth, frontend.network, ...)"
    )
    category = "boundary"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not is_attacker_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in GROUND_TRUTH_ATTRIBUTES:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"attacker-layer module '{ctx.module}' reads ground-truth "
                    f"attribute '.{node.attr}'; route it through the evaluation "
                    "seam (repro.core.oracle) or the frontend",
                )
