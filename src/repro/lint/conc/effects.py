"""Per-function effect summaries for the concurrency-safety pass.

Built on the :mod:`repro.lint.flow` IR: every function's ops already
carry ``(path, mode)`` write records and alias roots, so this module
only has to *classify* each write (mutates-self / mutates-param /
mutates-global / mutates-class-attr) and stitch the per-function facts
into a call graph.  Interprocedural propagation is then plain
breadth-first reachability with parent links — no fixpoint is needed
because effect *sites* stay attributed to the function that performs
them; rules combine "site in f" with "f reachable from entry" and
render the call chain as the witness.

Approximations (documented in DESIGN.md §7):

* Aliasing is two-pass and local: ``x = self.graph`` makes writes
  through ``x`` count against ``self.graph``, but call results are
  fresh — the keyed-accessor idiom (``self._limiter_for(a).charge()``)
  is deliberately invisible, which is exactly what makes per-account
  state extraction the sanctioned fix for SHARE001.
* Attribute types come from ``__init__`` only: constructor calls,
  annotated parameters stored on ``self``, and locally constructed
  objects later bound to ``self`` attributes.
* Mutator-method detection is name-based (:data:`MUTATOR_METHODS`);
  telemetry verbs (``inc``/``observe``/``set``/``labels``/``emit``)
  are deliberately absent so metric updates stay invisible.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Set,
    Tuple,
)

from ..flow.index import ProjectIndex, Resolution, ResolvedFunction
from ..flow.summary import CallInfo, FunctionInfo, ModuleSummary, Op

#: Method names that mutate their receiver.  Telemetry verbs are
#: deliberately excluded so counter/gauge updates stay invisible.
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
        "write",
        "writelines",
    }
)

#: Alias-resolution passes (a second pass catches x = y; y = self.z).
_ALIAS_PASSES = 2


@dataclass(frozen=True)
class MutationSite:
    """One classified write: *what kind* of state, *where*."""

    kind: str  # "self" | "param" | "global" | "classattr"
    target: str  # dotted path of the mutated object (alias-resolved)
    module: str
    function: str  # qualname within the module
    line: int
    col: int

    @property
    def fqn(self) -> str:
        return f"{self.module}:{self.function}"


ClassKey = Tuple[str, str]  # (module, class name)


class EffectAnalysis:
    """Effect summaries + call graph over one :class:`ProjectIndex`.

    Construction walks every indexed function once; rules then combine
    :attr:`effects` with :meth:`reachable_from` / :meth:`shared_classes`.
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: (module, class) -> attr -> (module, class) from __init__.
        self.attr_types: Dict[ClassKey, Dict[str, ClassKey]] = {}
        #: fqn -> the writes the function performs itself (not its callees').
        self.effects: Dict[str, Tuple[MutationSite, ...]] = {}
        #: fqn -> sorted callee fqns.
        self.edges: Dict[str, Tuple[str, ...]] = {}
        #: fqn -> FunctionInfo (only indexed, non-shadowed functions).
        self.functions: Dict[str, FunctionInfo] = {}
        self._build()

    # -- construction --------------------------------------------------

    def _build(self) -> None:
        for module in sorted(self.index.modules):
            summary = self.index.modules[module]
            self._collect_attr_types(summary)
        for module in sorted(self.index.modules):
            summary = self.index.modules[module]
            module_globals = _module_globals(summary)
            for qualname in sorted(summary.functions):
                fn = summary.functions[qualname]
                fqn = f"{module}:{qualname}"
                self.functions[fqn] = fn
                self.effects[fqn] = self._function_effects(
                    summary, fn, module_globals
                )
                self.edges[fqn] = self._function_edges(summary, fn)

    def _collect_attr_types(self, summary: ModuleSummary) -> None:
        for class_name in sorted(summary.classes):
            init = summary.functions.get(f"{class_name}.__init__")
            if init is None:
                continue
            param_types = self._param_types(summary, init)
            local_classes: Dict[str, ClassKey] = {}
            attrs: Dict[str, ClassKey] = {}
            for op in init.ops:
                constructed = self._constructed_class(summary, init, op)
                for path, mode in op.writes:
                    parts = path.split(".")
                    if mode != "bind" or len(parts) != 2 or parts[0] != "self":
                        continue
                    value_type: Optional[ClassKey] = None
                    if len(op.alias) == 1:
                        alias = op.alias[0]
                        value_type = local_classes.get(alias) or param_types.get(
                            alias
                        )
                    elif not op.alias:
                        value_type = constructed
                    if value_type is not None:
                        attrs[parts[1]] = value_type
                if constructed is not None and not op.alias:
                    for name in op.targets:
                        local_classes[name] = constructed
            if attrs:
                self.attr_types[(summary.module, class_name)] = attrs

    def _param_types(
        self, summary: ModuleSummary, fn: FunctionInfo
    ) -> Dict[str, ClassKey]:
        out: Dict[str, ClassKey] = {}
        for param, ref in fn.annotations:
            if param == "return":
                continue
            resolved = self.index.resolve_call(summary.module, "", ref)
            if resolved.constructed_class is not None:
                out[param] = resolved.constructed_class
        return out

    def _constructed_class(
        self, summary: ModuleSummary, fn: FunctionInfo, op: Op
    ) -> Optional[ClassKey]:
        for call in op.expr.calls:
            if call.callee is None:
                continue
            resolved = self.index.resolve_call(
                summary.module, fn.qualname, call.callee
            )
            if resolved.constructed_class is not None:
                return resolved.constructed_class
        return None

    # -- per-function facts --------------------------------------------

    def _function_effects(
        self,
        summary: ModuleSummary,
        fn: FunctionInfo,
        module_globals: FrozenSet[str],
    ) -> Tuple[MutationSite, ...]:
        own_class = _own_class(summary, fn)
        params = frozenset(p for p in fn.params if p != "self")
        locals_bound = frozenset(
            name for op in fn.ops for name in op.targets
        )
        aliases = _alias_map(fn)
        mutations: List[MutationSite] = []

        def classify(path: str, mode: str, line: int, col: int) -> None:
            for resolved in _resolve_alias(path, aliases):
                site = self._classify_write(
                    summary,
                    fn,
                    own_class,
                    params,
                    locals_bound,
                    module_globals,
                    resolved,
                    mode,
                    line,
                    col,
                )
                if site is not None:
                    mutations.append(site)

        for op in fn.ops:
            for path, mode in op.writes:
                classify(path, mode, op.line, op.col)
            # Rebinding a declared-global name has no dotted write path
            # but mutates the module namespace all the same.
            for name in op.targets:
                if name in fn.globals_declared:
                    mutations.append(
                        MutationSite(
                            "global",
                            name,
                            summary.module,
                            fn.qualname,
                            op.line,
                            op.col,
                        )
                    )
            for call in _walk_calls(op.expr.calls):
                # Accessor-receiver calls (``self._limiter_for(a).charge()``)
                # have no callee: the receiver is a fresh call result,
                # never a shared path.
                if call.callee is None:
                    continue
                receiver, _, method = call.callee.rpartition(".")
                if receiver and method in MUTATOR_METHODS:
                    classify(receiver, "mutate", call.line, call.col)
        return tuple(mutations)

    def _classify_write(
        self,
        summary: ModuleSummary,
        fn: FunctionInfo,
        own_class: Optional[str],
        params: FrozenSet[str],
        locals_bound: FrozenSet[str],
        module_globals: FrozenSet[str],
        path: str,
        mode: str,
        line: int,
        col: int,
    ) -> Optional[MutationSite]:
        parts = path.split(".")
        root = parts[0]
        # The mutated *object*: for a bind the path's prefix object gets
        # a new attribute; for a mutate the object at the path itself.
        target = ".".join(parts[:-1]) if mode == "bind" else path
        if not target:
            return None  # plain local rebind
        if root == "self":
            if own_class is None:
                return None
            kind = "self"
            if (
                len(parts) >= 2
                and mode != "bind"
                and parts[1] in summary.class_attrs.get(own_class, ())
            ):
                kind = "classattr"
            return MutationSite(
                kind, target, summary.module, fn.qualname, line, col
            )
        if root in params:
            return MutationSite(
                "param", target, summary.module, fn.qualname, line, col
            )
        if root in summary.classes:
            return MutationSite(
                "classattr", target, summary.module, fn.qualname, line, col
            )
        if root in fn.globals_declared or (
            root in module_globals and root not in locals_bound
        ):
            return MutationSite(
                "global", target, summary.module, fn.qualname, line, col
            )
        return None

    def _function_edges(
        self, summary: ModuleSummary, fn: FunctionInfo
    ) -> Tuple[str, ...]:
        edges: List[str] = []
        for op in fn.ops:
            for call in _walk_calls(op.expr.calls):
                edges.extend(self._call_edges(summary, fn, call))
        for nested in fn.nested:
            edges.append(f"{summary.module}:{nested}")
        return tuple(sorted(dict.fromkeys(edges)))

    def _call_edges(
        self, summary: ModuleSummary, fn: FunctionInfo, call: CallInfo
    ) -> Iterator[str]:
        if call.callee is not None:
            typed = self._typed_self_edge(summary, fn, call.callee)
            if typed is not None:
                yield typed
                return
            resolution = self.index.resolve_call(
                summary.module, fn.qualname, call.callee
            )
            yield from self._resolution_edges(resolution)
            return
        if call.recv_call is not None and call.method is not None:
            yield from self._accessor_edges(summary, fn, call)

    def _typed_self_edge(
        self, summary: ModuleSummary, fn: FunctionInfo, callee: str
    ) -> Optional[str]:
        """``self.attr.method()`` through the __init__-derived attr type."""
        parts = callee.split(".")
        if len(parts) != 3 or parts[0] != "self":
            return None
        own_class = _own_class(summary, fn)
        if own_class is None:
            return None
        attr_type = self.attr_types.get((summary.module, own_class), {}).get(
            parts[1]
        )
        if attr_type is None:
            return None
        type_module, type_class = attr_type
        type_summary = self.index.modules.get(type_module)
        if type_summary is None:
            return None
        if parts[2] in type_summary.classes.get(type_class, ()):
            return f"{type_module}:{type_class}.{parts[2]}"
        return None

    def _accessor_edges(
        self, summary: ModuleSummary, fn: FunctionInfo, call: CallInfo
    ) -> Iterator[str]:
        """``self._accessor(a).method()`` through the return annotation."""
        resolution = self.index.resolve_call(
            summary.module, fn.qualname, call.recv_call
        )
        for resolved in resolution.functions:
            accessor = self.index.function(resolved)
            if accessor is None:
                continue
            ret = dict(accessor.annotations).get("return")
            if ret is None:
                continue
            ret_resolution = self.index.resolve_call(resolved.module, "", ret)
            if ret_resolution.constructed_class is None:
                continue
            type_module, type_class = ret_resolution.constructed_class
            type_summary = self.index.modules.get(type_module)
            if type_summary is None:
                continue
            if call.method in type_summary.classes.get(type_class, ()):
                yield f"{type_module}:{type_class}.{call.method}"

    def _resolution_edges(self, resolution: Resolution) -> Iterator[str]:
        for resolved in resolution.functions:
            yield resolved.fqn
        if resolution.constructed_class is not None:
            module, class_name = resolution.constructed_class
            summary = self.index.modules.get(module)
            if summary is not None and "__init__" in summary.classes.get(
                class_name, ()
            ):
                yield f"{module}:{class_name}.__init__"

    # -- interprocedural queries ---------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> Dict[str, Optional[str]]:
        """BFS over the call graph: fqn -> parent fqn (roots map to None)."""
        parents: Dict[str, Optional[str]] = {}
        frontier: "deque[str]" = deque()
        for root in sorted(dict.fromkeys(roots)):
            if root in self.functions and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            current = frontier.popleft()
            for callee in self.edges.get(current, ()):
                if callee in parents or callee not in self.functions:
                    continue
                parents[callee] = current
                frontier.append(callee)
        return parents

    def chain(self, parents: Mapping[str, Optional[str]], fqn: str) -> List[str]:
        """Entry-to-target call chain for witness messages."""
        chain: List[str] = []
        cursor: Optional[str] = fqn
        while cursor is not None and len(chain) <= len(parents):
            chain.append(cursor)
            cursor = parents.get(cursor)
        chain.reverse()
        return chain

    def shared_classes(self, seeds: Iterable[ClassKey]) -> FrozenSet[ClassKey]:
        """Seeds plus every class reachable through attr types."""
        closure: Set[ClassKey] = set()
        frontier: List[ClassKey] = sorted(dict.fromkeys(seeds))
        while frontier:
            key = frontier.pop()
            if key in closure:
                continue
            closure.add(key)
            for attr_type in self.attr_types.get(key, {}).values():
                if attr_type not in closure:
                    frontier.append(attr_type)
        return frozenset(closure)

    def own_class_of(self, fqn: str) -> Optional[ClassKey]:
        module, _, qualname = fqn.partition(":")
        summary = self.index.modules.get(module)
        if summary is None:
            return None
        fn = summary.functions.get(qualname)
        if fn is None:
            return None
        own = _own_class(summary, fn)
        return (module, own) if own is not None else None


# ----------------------------------------------------------------------
# Module-level helpers
# ----------------------------------------------------------------------


def _walk_calls(calls: Iterable[CallInfo]) -> Iterator[CallInfo]:
    """Each call, then every call nested in its arguments, depth first.

    The flow IR keeps an argument's calls inside that argument's
    expression, so ``zip(ids, self._names(ids))`` lists only ``zip`` at
    the top; the effects and the call graph must see ``self._names`` too.
    """
    for call in calls:
        yield call
        for arg in call.args:
            yield from _walk_calls(arg.calls)
        for _, arg in call.kwargs:
            yield from _walk_calls(arg.calls)


def _own_class(summary: ModuleSummary, fn: FunctionInfo) -> Optional[str]:
    head = fn.qualname.split(".", 1)[0]
    if "." in fn.qualname and head in summary.classes:
        return head
    return None


def _module_globals(summary: ModuleSummary) -> FrozenSet[str]:
    body = summary.functions.get("")
    if body is None:
        return frozenset()
    return frozenset(
        name for op in body.ops if op.kind == "assign" for name in op.targets
    )


def _alias_map(fn: FunctionInfo) -> Dict[str, Tuple[str, ...]]:
    """Local name -> dotted roots it may alias (two propagation passes)."""
    aliases: Dict[str, Tuple[str, ...]] = {}
    for _ in range(_ALIAS_PASSES):
        for op in fn.ops:
            if op.kind != "assign" or not op.alias:
                continue
            resolved: List[str] = []
            for ref in op.alias:
                resolved.extend(_resolve_alias(ref, aliases))
            deduped = tuple(dict.fromkeys(resolved))
            for name in op.targets:
                existing = aliases.get(name, ())
                aliases[name] = tuple(dict.fromkeys(existing + deduped))
    return aliases


def _resolve_alias(
    path: str, aliases: Mapping[str, Tuple[str, ...]]
) -> Tuple[str, ...]:
    parts = path.split(".")
    root, rest = parts[0], parts[1:]
    targets = aliases.get(root)
    if not targets:
        return (path,)
    suffix = "." + ".".join(rest) if rest else ""
    resolved = tuple(
        dict.fromkeys(target + suffix for target in targets if target != path)
    )
    return resolved or (path,)


_ANALYSES: "MutableMapping[ProjectIndex, EffectAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def analysis_for(index: ProjectIndex) -> EffectAnalysis:
    """One shared :class:`EffectAnalysis` per project index (memoised so
    the concurrency rules, the scale rules and the scale report build
    the call graph once between them)."""
    cached = _ANALYSES.get(index)
    if cached is None:
        cached = EffectAnalysis(index)
        _ANALYSES[index] = cached
    return cached
