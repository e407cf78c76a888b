"""Regression: the attacker-layer import graph stays closed.

``repro.crawler`` and ``repro.core`` must never (transitively, at
runtime) reach ``repro.worldgen`` or non-public ``repro.osn`` modules,
except through the two sanctioned boundaries: the attacker-visible OSN
surface and the explicitly-marked evaluation seam.  This is the same
invariant ORACLE001 checks file-by-file, re-proved here over the whole
reachable graph so a leak smuggled through an intermediate module
(e.g. crawler -> telemetry -> worldgen) would also fail.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List

from repro.lint import (
    Baseline,
    LintCache,
    all_rules,
    lint_paths,
    module_name_for,
    render_text,
    rule_signature,
)
from repro.lint.engine import iter_python_files
from repro.lint.rules.base import FileContext
from repro.lint.rules.oracle import (
    ATTACKER_PACKAGES,
    ATTACKER_VISIBLE_OSN,
    EVALUATION_MODULES,
    forbidden_import,
    import_targets,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE_ROOT = os.path.join(REPO_ROOT, "src", "repro")


def _repo_modules() -> Dict[str, str]:
    return {
        module_name_for(path): path
        for path in iter_python_files([PACKAGE_ROOT])
    }


def _runtime_imports(path: str, module: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    ctx = FileContext.build(
        path,
        module,
        source,
        tree,
        is_package=os.path.basename(path) == "__init__.py",
    )
    targets: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if node in ctx.typing_only:
                continue  # typing-only imports never execute
            targets.extend(import_targets(ctx, node))
    return [t for t in targets if t == "repro" or t.startswith("repro.")]


def test_attacker_reachable_imports_stay_inside_the_boundary():
    modules = _repo_modules()
    start = sorted(
        module
        for module in modules
        if any(
            module == package or module.startswith(package + ".")
            for package in ATTACKER_PACKAGES
        )
        and module not in EVALUATION_MODULES
    )
    assert start, "attacker packages disappeared; update the boundary test"

    seen = set(start)
    queue = list(start)
    while queue:
        module = queue.pop()
        if module in EVALUATION_MODULES or module in ATTACKER_VISIBLE_OSN:
            continue  # sanctioned boundary: do not traverse through it
        reason = forbidden_import(module)
        assert reason is None, f"attacker layers reach '{module}': {reason}"
        path = modules.get(module)
        if path is None:
            continue
        for target in _runtime_imports(path, module):
            resolved = target
            while resolved and resolved not in modules:
                resolved = resolved.rpartition(".")[0]
            if resolved and resolved not in seen:
                seen.add(resolved)
                queue.append(resolved)

    leaked = sorted(m for m in seen if m.startswith("repro.worldgen"))
    assert not leaked, f"worldgen became attacker-reachable: {leaked}"


def test_attacker_visible_surface_modules_exist():
    modules = _repo_modules()
    for module in sorted(ATTACKER_VISIBLE_OSN) + sorted(EVALUATION_MODULES):
        assert module in modules, f"allowlisted module '{module}' does not exist"


def test_repo_lints_clean_against_the_shipped_baseline(monkeypatch, tmp_path):
    """Every shipped baseline entry is justified debt, never serve-path.

    The serve/crawl path must lint clean with no grandfathering at all
    (a scale regression there defeats the columnar port); attack-pipeline
    debt may be baselined but each entry must say why and when it dies.
    A second run against the first run's cache must parse nothing and
    report the same findings, or every cached lint run pays cold cost.
    """
    baseline_path = os.path.join(REPO_ROOT, "lint-baseline.json")
    with open(baseline_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    serve_path_prefixes = (
        os.path.join("src", "repro", "crawler") + os.sep,
        os.path.join("src", "repro", "colgen", "serve"),
    )
    for row in document["findings"]:
        why = row.get("why", "")
        assert len(why) >= 40, (
            f"baseline entry for {row['rule']} at {row['path']} needs a "
            "substantive 'why' justification"
        )
        normalized = os.path.normpath(row["path"])
        assert not normalized.startswith(serve_path_prefixes), (
            f"serve/crawl-path finding {row['rule']} at {row['path']} may "
            "not be baselined; fix it"
        )
    # Baseline fingerprints carry repo-relative paths (the way CI runs
    # the linter), so lint from the repo root with the relative target.
    monkeypatch.chdir(REPO_ROOT)
    baseline = Baseline.load(baseline_path)
    signature = rule_signature([rule.rule_id for rule in all_rules()])
    cache_path = str(tmp_path / "lint-cache.json")
    target = [os.path.join("src", "repro")]
    report = lint_paths(
        target, baseline=baseline, cache=LintCache(cache_path, signature)
    )
    assert report.ok, "\n" + render_text(report)
    warm = lint_paths(
        target, baseline=baseline, cache=LintCache(cache_path, signature)
    )
    assert warm.files_reparsed == 0
    assert warm.cache_hits == warm.files_checked == report.files_checked
    assert warm.findings == report.findings
