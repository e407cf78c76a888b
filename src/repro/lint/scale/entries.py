"""Entry-point discovery for the scale pass.

Two root sets, discovered from the :class:`ProjectIndex` (so fixture
projects exercise the rules by defining same-shaped modules, exactly
like the concurrency pass):

* **serve/crawl entries** — code that runs *per request or per crawl
  turn* against a city/metro-tier world: the crawl CLI command, every
  public :class:`CrawlScheduler` method, every public method of
  :class:`BaseNetwork` (the read and contact logic both stores share;
  its storage-hook calls resolve by name into both stores) and
  of :class:`ColumnarNetwork` itself, and the public serve-path helpers
  in ``repro.colgen.serve``.  The stores re-bind the base's traced
  reads as class attributes, which the summary does not list as
  methods, so the base is where those reads are rooted.
* **attack entries** — the attack pipeline's importable surface: the
  ``repro.core.api`` conveniences, ``HighSchoolProfiler``'s public
  methods, the attack-driving CLI commands, plus every public
  ``repro.core`` function that itself binds a ``world`` parameter
  (each is an importable pipeline entry in its own right, which is what
  guarantees the scale report covers every world-reading function even
  when no indexed caller reaches it).

The union gates SCALE001/002/003; the attack set alone roots the
``--scale-report`` worklist.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..flow.index import ProjectIndex
from ..flow.summary import ModuleSummary

#: (module, class) whose public methods are serve/crawl entries.
SERVE_ENTRY_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.crawler.engine", "CrawlScheduler"),
    ("repro.osn.network", "BaseNetwork"),
    ("repro.colgen.serve", "ColumnarNetwork"),
)

#: Modules whose public top-level functions are serve/crawl entries.
SERVE_ENTRY_MODULES: Tuple[str, ...] = ("repro.colgen.serve",)

#: (module, function) serve/crawl entries named individually.
SERVE_ENTRY_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.cli", "cmd_crawl"),
)

#: (module, class) whose public methods are attack entries.
ATTACK_ENTRY_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.profiler", "HighSchoolProfiler"),
)

#: Modules whose public top-level functions are attack entries.
ATTACK_ENTRY_MODULES: Tuple[str, ...] = ("repro.core.api",)

#: Attack-driving CLI commands (each wires worldgen output into the
#: pipeline and the evaluation seams).
ATTACK_ENTRY_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.cli", "cmd_attack"),
    ("repro.cli", "cmd_sweep"),
    ("repro.cli", "cmd_tables"),
    ("repro.cli", "cmd_coppaless"),
    ("repro.cli", "cmd_countermeasure"),
    ("repro.cli", "cmd_defences"),
    ("repro.cli", "cmd_robustness"),
)

#: Module prefix whose world-binding public functions self-root the
#: attack entry set.
ATTACK_PACKAGE_PREFIX = "repro.core"

Entry = Tuple[str, str]  # (display label, fqn)


def _public_methods(
    index: ProjectIndex, module: str, class_name: str
) -> List[Entry]:
    summary = index.modules.get(module)
    if summary is None:
        return []
    return [
        (f"{class_name}.{method}", f"{module}:{class_name}.{method}")
        for method in summary.classes.get(class_name, ())
        if not method.startswith("_")
    ]


def _public_functions(index: ProjectIndex, module: str) -> List[Entry]:
    summary = index.modules.get(module)
    if summary is None:
        return []
    return [
        (qualname, f"{module}:{qualname}")
        for qualname in sorted(summary.functions)
        if qualname and "." not in qualname and not qualname.startswith("_")
    ]


def _named_functions(
    index: ProjectIndex, specs: Tuple[Tuple[str, str], ...]
) -> List[Entry]:
    out: List[Entry] = []
    for module, name in specs:
        summary = index.modules.get(module)
        if summary is not None and name in summary.functions:
            out.append((name, f"{module}:{name}"))
    return out


def binds_world(summary: ModuleSummary, qualname: str) -> bool:
    """True when the function's own signature binds the object world:
    a parameter named ``world`` or annotated ``World``/``WorldLike``."""
    fn = summary.functions.get(qualname)
    if fn is None:
        return False
    if "world" in fn.params:
        return True
    for param, ref in fn.annotations:
        if param == "return":
            continue
        if ref.rsplit(".", 1)[-1] in ("World", "WorldLike"):
            return True
    return False


def serve_entries(index: ProjectIndex) -> List[Entry]:
    entries: List[Entry] = []
    entries.extend(_named_functions(index, SERVE_ENTRY_FUNCTIONS))
    for module, class_name in SERVE_ENTRY_CLASSES:
        entries.extend(_public_methods(index, module, class_name))
    for module in SERVE_ENTRY_MODULES:
        entries.extend(_public_functions(index, module))
    return _dedupe(entries)


def attack_entries(index: ProjectIndex) -> List[Entry]:
    entries: List[Entry] = []
    entries.extend(_named_functions(index, ATTACK_ENTRY_FUNCTIONS))
    for module, class_name in ATTACK_ENTRY_CLASSES:
        entries.extend(_public_methods(index, module, class_name))
    for module in ATTACK_ENTRY_MODULES:
        entries.extend(_public_functions(index, module))
    prefix = ATTACK_PACKAGE_PREFIX
    for module in sorted(index.modules):
        if not (module == prefix or module.startswith(prefix + ".")):
            continue
        summary = index.modules[module]
        for qualname in sorted(summary.functions):
            if not qualname or "." in qualname or qualname.startswith("_"):
                continue
            if binds_world(summary, qualname):
                entries.append((qualname, f"{module}:{qualname}"))
    return _dedupe(entries)


def scale_entries(index: ProjectIndex) -> List[Entry]:
    """The union gating SCALE001/002/003."""
    return _dedupe(serve_entries(index) + attack_entries(index))


def _dedupe(entries: List[Entry]) -> List[Entry]:
    seen: Dict[str, str] = {}
    for label, fqn in entries:
        if fqn not in seen:
            seen[fqn] = label
    return sorted(
        ((label, fqn) for fqn, label in seen.items()), key=lambda e: e[1]
    )
