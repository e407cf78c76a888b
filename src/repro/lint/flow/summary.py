"""Per-module flow summaries: the IR the whole-program phase runs on.

A :class:`ModuleSummary` is everything the inter-procedural taint
engine and the dead-code rule need to know about one file, extracted
in a single AST walk and serialisable to plain JSON (so the on-disk
lint cache can persist it and a warm run skips re-parsing entirely).

The representation is deliberately coarse — flow-insensitive inside a
function, no heap model — because the rules built on it only need an
*over*-approximation of where ground truth can travel:

* every function (methods keyed ``Class.method``, nested defs keyed
  ``outer.inner``, the module body keyed ``""``) becomes a list of
  operations: ``assign`` (targets + value expression), ``return``
  (covers ``yield`` too) and ``expr`` (everything else that can hold a
  call site);
* every expression is flattened to the local/global names it reads,
  the attribute reads it performs (with receiver chain, location and
  a *gated* bit — see below) and the calls it contains, each call
  carrying its argument expressions separately so taint can be tracked
  per-argument;
* an attribute read or call is marked **gated** when it sits under a
  conditional whose test mentions a privacy-gate predicate
  (``sees(...)``, ``PolicyEngine.field_visible_to`` and friends, or a
  boolean local derived from one).  FLOW002 treats gated reads as
  sanitised: the value only flows when the policy said it may;
* version 2 adds the facts the concurrency pass (:mod:`repro.lint.conc`)
  consumes: per-op **write paths** (``self.x = ...``, ``d[k] = ...``,
  mutator receivers come from the op's calls), **alias roots** of
  assigned values (call results count as fresh — the deliberate
  approximation that makes keyed-accessor indirection the sanctioned
  per-account ownership pattern), per-function ``global`` facts and
  dotted param/return annotations, class-body attribute names, and the
  line table of ``# repro-lint: shared(owner)`` annotations;
* version 3 adds what the scale-safety pass (:mod:`repro.lint.scale`)
  consumes: loop structure on ops — a ``For``/``While`` header op
  carries ``loop=True`` and every op records its enclosing-loop
  ``depth`` — plus the line table of ``# repro-lint: allow(RULE)``
  directives (``allow_lines``), so whole-program rules that opt into
  inline suppression can honour directives without re-reading sources;
* version 4 drops the per-op ``await`` and held-lock slots and the
  per-function ``async`` bit, which no rule reads any more (an op's
  JSON list keeps ``loop``/``depth`` at indices 7/8).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Bump when the summary shape changes; invalidates cached summaries.
SUMMARY_VERSION = 4

#: Predicate names that gate profile-field visibility.  A conditional
#: whose test calls one of these (or reads a boolean derived from one)
#: marks the guarded reads as policy-checked.
GATE_FUNCTIONS = frozenset(
    {
        "audience_for",
        "effective_audience",
        "field_visible_to",
        "message_button_visible",
        "public_search_eligible",
        "satisfies",
        "sees",
        "_friend_list_visible",
        "_visible_in_friend_lists",
    }
)


@dataclass(frozen=True)
class AttrRead:
    """One ``value.attr`` read: the attr name, the receiver chain if it
    is a plain dotted chain (``account.profile`` -> ``"account.profile"``),
    the location, and whether a privacy-gate conditional guards it."""

    attr: str
    recv: Optional[str]
    line: int
    col: int
    gated: bool


@dataclass(frozen=True)
class CallInfo:
    """One call site: dotted callee ref when statically writable
    (``"f"``, ``"mod.f"``, ``"self.m"``), per-argument expressions, and
    location.  Keyword arguments keep their names for param mapping.

    When the call's receiver is itself produced by a call with a dotted
    callee (``self._limiter_for(a).charge()``), ``callee`` is None but
    ``recv_call``/``method`` record the accessor ref and the method name
    so the concurrency pass can resolve through accessor return types.
    """

    callee: Optional[str]
    args: Tuple["ExprInfo", ...]
    kwargs: Tuple[Tuple[str, "ExprInfo"], ...]
    line: int
    col: int
    gated: bool
    recv_call: Optional[str] = None
    method: Optional[str] = None


@dataclass(frozen=True)
class ExprInfo:
    """A flattened expression: root names read, attribute reads, calls."""

    names: Tuple[str, ...] = ()
    reads: Tuple[AttrRead, ...] = ()
    calls: Tuple[CallInfo, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.names or self.reads or self.calls)


#: An empty expression (e.g. a bare ``return``).
EMPTY_EXPR = ExprInfo()


@dataclass(frozen=True)
class Op:
    """One operation in a function body.

    ``writes`` lists the dotted paths this op mutates as ``(path, mode)``
    pairs: mode ``"bind"`` sets the final attribute on the object at the
    path's prefix (``self.x = v``); mode ``"mutate"`` mutates the object
    *at* the path itself (``self.xs[k] = v``, ``del self.xs[k]``).
    ``alias`` holds the dotted roots an assigned value may alias (call
    results are fresh by design).  ``loop`` marks a ``for``/``while``
    *header* op (its ``expr`` is the iterable / the test); ``depth``
    counts the loops enclosing the op — a header op's own loop is not
    counted, so an inner loop header at ``depth >= 1`` sits inside at
    least one outer loop.
    """

    kind: str  # "assign" | "return" | "expr"
    targets: Tuple[str, ...]
    expr: ExprInfo
    line: int
    col: int
    writes: Tuple[Tuple[str, str], ...] = ()
    alias: Tuple[str, ...] = ()
    loop: bool = False
    depth: int = 0


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method (or the module body, qualname ``""``).

    ``annotations`` are ``(param, dotted-ref)`` pairs for params whose
    annotation is a plain dotted name (``Optional[X]``/``X | None``
    unwrapped, string annotations parsed when identifier-shaped), plus a
    ``("return", ref)`` pair for the return annotation — the type facts
    the concurrency pass resolves accessor chains through.
    """

    qualname: str
    params: Tuple[str, ...]
    line: int
    ops: Tuple[Op, ...]
    nested: Tuple[str, ...] = ()  # qualnames of nested defs
    globals_declared: Tuple[str, ...] = ()
    annotations: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class DeadCandidate:
    """A module-level def DEAD001 may flag if nothing references it."""

    name: str
    kind: str  # "function" | "class"
    line: int
    col: int


@dataclass
class ModuleSummary:
    """Whole-program-relevant facts about one module."""

    module: str
    path: str
    #: local binding -> (absolute dotted target, line of the import)
    imports: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    star_imports: Tuple[str, ...] = ()
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> method names
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: every identifier mentioned anywhere (names, attrs, import aliases,
    #: ``__all__`` strings) — the usage side of DEAD001
    used_names: FrozenSet[str] = frozenset()
    exports: Tuple[str, ...] = ()
    dead_candidates: Tuple[DeadCandidate, ...] = ()
    #: class name -> attribute names bound by plain assignments in the
    #: class body (the classic class-level-state idiom; dataclass field
    #: declarations are AnnAssigns and deliberately excluded)
    class_attrs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: line -> owner from ``# repro-lint: shared(owner) -- why``
    shared_lines: Dict[int, str] = field(default_factory=dict)
    #: line -> rule ids waived by ``# repro-lint: allow(RULE) -- why``
    #: (statement-span expanded); whole-program rules that opt into
    #: inline suppression filter their findings through this table.
    allow_lines: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "imports": {k: [t, ln] for k, (t, ln) in self.imports.items()},
            "star_imports": list(self.star_imports),
            "functions": {q: _function_to_json(f) for q, f in self.functions.items()},
            "classes": {c: list(ms) for c, ms in self.classes.items()},
            "used_names": sorted(self.used_names),
            "exports": list(self.exports),
            "dead_candidates": [
                [d.name, d.kind, d.line, d.col] for d in self.dead_candidates
            ],
            "class_attrs": {c: list(ns) for c, ns in self.class_attrs.items()},
            "shared_lines": {str(ln): owner for ln, owner in self.shared_lines.items()},
            "allow_lines": {
                str(ln): sorted(rules) for ln, rules in self.allow_lines.items()
            },
        }

    @classmethod
    def from_json(cls, raw: Mapping[str, Any]) -> "ModuleSummary":
        if raw.get("version") != SUMMARY_VERSION:
            raise ValueError("summary version mismatch")
        return cls(
            module=str(raw["module"]),
            path=str(raw["path"]),
            imports={
                str(k): (str(v[0]), int(v[1])) for k, v in dict(raw["imports"]).items()
            },
            star_imports=tuple(str(s) for s in raw["star_imports"]),
            functions={
                str(q): _function_from_json(f)
                for q, f in dict(raw["functions"]).items()
            },
            classes={
                str(c): tuple(str(m) for m in ms)
                for c, ms in dict(raw["classes"]).items()
            },
            used_names=frozenset(str(n) for n in raw["used_names"]),
            exports=tuple(str(e) for e in raw["exports"]),
            dead_candidates=tuple(
                DeadCandidate(str(d[0]), str(d[1]), int(d[2]), int(d[3]))
                for d in raw["dead_candidates"]
            ),
            class_attrs={
                str(c): tuple(str(n) for n in ns)
                for c, ns in dict(raw["class_attrs"]).items()
            },
            shared_lines={
                int(ln): str(owner)
                for ln, owner in dict(raw["shared_lines"]).items()
            },
            allow_lines={
                int(ln): tuple(str(r) for r in rules)
                for ln, rules in dict(raw["allow_lines"]).items()
            },
        )


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------

def _expr_to_json(expr: ExprInfo) -> Dict[str, Any]:
    return {
        "n": list(expr.names),
        "r": [[r.attr, r.recv, r.line, r.col, r.gated] for r in expr.reads],
        "c": [_call_to_json(c) for c in expr.calls],
    }


def _call_to_json(call: CallInfo) -> Dict[str, Any]:
    return {
        "f": call.callee,
        "a": [_expr_to_json(a) for a in call.args],
        "k": [[name, _expr_to_json(a)] for name, a in call.kwargs],
        "l": call.line,
        "o": call.col,
        "g": call.gated,
        "rc": call.recv_call,
        "m": call.method,
    }


def _expr_from_json(raw: Mapping[str, Any]) -> ExprInfo:
    return ExprInfo(
        names=tuple(str(n) for n in raw["n"]),
        reads=tuple(
            AttrRead(
                str(r[0]),
                None if r[1] is None else str(r[1]),
                int(r[2]),
                int(r[3]),
                bool(r[4]),
            )
            for r in raw["r"]
        ),
        calls=tuple(_call_from_json(c) for c in raw["c"]),
    )


def _call_from_json(raw: Mapping[str, Any]) -> CallInfo:
    return CallInfo(
        callee=None if raw["f"] is None else str(raw["f"]),
        args=tuple(_expr_from_json(a) for a in raw["a"]),
        kwargs=tuple((str(k[0]), _expr_from_json(k[1])) for k in raw["k"]),
        line=int(raw["l"]),
        col=int(raw["o"]),
        gated=bool(raw["g"]),
        recv_call=None if raw["rc"] is None else str(raw["rc"]),
        method=None if raw["m"] is None else str(raw["m"]),
    )


def _function_to_json(fn: FunctionInfo) -> Dict[str, Any]:
    return {
        "q": fn.qualname,
        "p": list(fn.params),
        "l": fn.line,
        "ops": [
            [
                op.kind,
                list(op.targets),
                _expr_to_json(op.expr),
                op.line,
                op.col,
                [[p, m] for p, m in op.writes],
                list(op.alias),
                op.loop,
                op.depth,
            ]
            for op in fn.ops
        ],
        "nested": list(fn.nested),
        "globals": list(fn.globals_declared),
        "ann": [[n, r] for n, r in fn.annotations],
    }


def _function_from_json(raw: Mapping[str, Any]) -> FunctionInfo:
    return FunctionInfo(
        qualname=str(raw["q"]),
        params=tuple(str(p) for p in raw["p"]),
        line=int(raw["l"]),
        ops=tuple(
            Op(
                kind=str(op[0]),
                targets=tuple(str(t) for t in op[1]),
                expr=_expr_from_json(op[2]),
                line=int(op[3]),
                col=int(op[4]),
                writes=tuple((str(w[0]), str(w[1])) for w in op[5]),
                alias=tuple(str(a) for a in op[6]),
                loop=bool(op[7]),
                depth=int(op[8]),
            )
            for op in raw["ops"]
        ),
        nested=tuple(str(n) for n in raw["nested"]),
        globals_declared=tuple(str(g) for g in raw["globals"]),
        annotations=tuple((str(a[0]), str(a[1])) for a in raw["ann"]),
    )


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------

def dotted_ref(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class _ExprBuilder:
    """Accumulates one :class:`ExprInfo` from an AST expression."""

    def __init__(self, gate_vars: FrozenSet[str]) -> None:
        self._gate_vars = gate_vars
        self.names: List[str] = []
        self.reads: List[AttrRead] = []
        self.calls: List[CallInfo] = []
        self.yields: List[ast.expr] = []

    def build(self, node: Optional[ast.expr], gated: bool) -> None:
        if node is None:
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.names.append(node.id)
            return
        if isinstance(node, ast.Attribute):
            self.reads.append(
                AttrRead(
                    attr=node.attr,
                    recv=dotted_ref(node.value),
                    line=node.lineno,
                    col=node.col_offset,
                    gated=gated,
                )
            )
            self.build(node.value, gated)
            return
        if isinstance(node, ast.Call):
            args: List[ExprInfo] = []
            for arg in node.args:
                target = arg.value if isinstance(arg, ast.Starred) else arg
                args.append(_build_expr(target, self._gate_vars, gated, self.yields))
            kwargs: List[Tuple[str, ExprInfo]] = []
            for kw in node.keywords:
                sub = _build_expr(kw.value, self._gate_vars, gated, self.yields)
                if kw.arg is None:  # **mapping: fold into positional args
                    args.append(sub)
                else:
                    kwargs.append((kw.arg, sub))
            recv_call: Optional[str] = None
            method: Optional[str] = None
            callee = dotted_ref(node.func)
            if (
                callee is None
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
            ):
                recv_call = dotted_ref(node.func.value.func)
                if recv_call is not None:
                    method = node.func.attr
            self.calls.append(
                CallInfo(
                    callee=callee,
                    args=tuple(args),
                    kwargs=tuple(kwargs),
                    line=node.lineno,
                    col=node.col_offset,
                    gated=gated,
                    recv_call=recv_call,
                    method=method,
                )
            )
            self.build(node.func, gated)
            return
        if isinstance(node, ast.IfExp):
            branch_gated = gated or self._mentions_gate(node.test)
            self.build(node.test, gated)
            self.build(node.body, branch_gated)
            self.build(node.orelse, gated)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.yields.append(node.value)
                self.build(node.value, gated)
            return
        if isinstance(node, ast.Lambda):
            return  # bodies of lambdas are out of scope (documented)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.build(child, gated)
            elif isinstance(child, ast.comprehension):
                self.build(child.iter, gated)
                for cond in child.ifs:
                    self.build(cond, gated)

    def _mentions_gate(self, test: ast.expr) -> bool:
        return _mentions_gate(test, self._gate_vars)

    def finish(self) -> ExprInfo:
        return ExprInfo(
            names=tuple(self.names),
            reads=tuple(self.reads),
            calls=tuple(self.calls),
        )


def _build_expr(
    node: Optional[ast.expr],
    gate_vars: FrozenSet[str],
    gated: bool,
    yields: Optional[List[ast.expr]] = None,
) -> ExprInfo:
    builder = _ExprBuilder(gate_vars)
    builder.build(node, gated)
    if yields is not None:
        yields.extend(builder.yields)
    return builder.finish()


def _mentions_gate(test: ast.expr, gate_vars: FrozenSet[str]) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Call):
            ref = dotted_ref(node.func)
            if ref is not None and ref.rsplit(".", 1)[-1] in GATE_FUNCTIONS:
                return True
        elif isinstance(node, ast.Name) and node.id in gate_vars:
            return True
    return False


def _gate_vars_for(body: Sequence[ast.stmt]) -> FrozenSet[str]:
    """Locals assigned from expressions that mention a gate predicate.

    One fixpoint pass so chains (``a = sees(..); b = a and x``) resolve.
    """
    gate_vars: FrozenSet[str] = frozenset()
    for _ in range(4):
        found = set(gate_vars)
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Assign) and _mentions_gate_value(
                    node.value, gate_vars
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            found.add(target.id)
        if found == set(gate_vars):
            break
        gate_vars = frozenset(found)
    return gate_vars


def _mentions_gate_value(value: ast.expr, gate_vars: FrozenSet[str]) -> bool:
    return _mentions_gate(value, gate_vars)


def _flatten_targets(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_flatten_targets(element))
        return names
    if isinstance(target, ast.Starred):
        return _flatten_targets(target.value)
    return []  # attribute / subscript targets: recorded as writes instead


def _write_targets(target: ast.expr) -> List[Tuple[str, str]]:
    """``(path, mode)`` write records for attribute/subscript targets."""
    if isinstance(target, ast.Attribute):
        ref = dotted_ref(target)
        return [(ref, "bind")] if ref is not None else []
    if isinstance(target, ast.Subscript):
        ref = dotted_ref(target.value)
        return [(ref, "mutate")] if ref is not None else []
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[Tuple[str, str]] = []
        for element in target.elts:
            out.extend(_write_targets(element))
        return out
    if isinstance(target, ast.Starred):
        return _write_targets(target.value)
    return []


def _alias_refs(value: Optional[ast.expr]) -> Tuple[str, ...]:
    """Dotted roots an assigned value may alias.

    Call results (and ``await`` expressions) are deliberately *fresh*:
    an object handed out by an accessor is treated as owned by the
    accessor's return-type class, not by whatever the accessor read it
    from.
    """
    if value is None:
        return ()
    refs: List[str] = []

    def visit(node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            ref = dotted_ref(node)
            if ref is not None:
                refs.append(ref)
        elif isinstance(node, ast.Subscript):
            ref = dotted_ref(node.value)
            if ref is not None:
                refs.append(ref)  # d[k] aliases into d's object graph
        elif isinstance(node, ast.IfExp):
            visit(node.body)
            visit(node.orelse)
        elif isinstance(node, ast.BoolOp):
            for sub in node.values:
                visit(sub)
        elif isinstance(node, ast.NamedExpr):
            visit(node.value)
        # Call / Await / literals: fresh

    visit(value)
    return tuple(dict.fromkeys(refs))


_IDENTIFIER_CHAIN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _annotation_ref(node: Optional[ast.expr]) -> Optional[str]:
    """A plain dotted ref for an annotation, unwrapping Optional/None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if _IDENTIFIER_CHAIN_RE.fullmatch(text):
            return text
        return None
    if isinstance(node, ast.Subscript):
        base = dotted_ref(node.value)
        if base is not None and base.rsplit(".", 1)[-1] == "Optional":
            return _annotation_ref(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left_none = isinstance(node.left, ast.Constant) and node.left.value is None
        right_none = isinstance(node.right, ast.Constant) and node.right.value is None
        if right_none:
            return _annotation_ref(node.left)
        if left_none:
            return _annotation_ref(node.right)
        return None
    return dotted_ref(node)


def _annotations_of(node: ast.stmt) -> Tuple[Tuple[str, str], ...]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return ()
    pairs: List[Tuple[str, str]] = []
    arguments = node.args
    for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
        ref = _annotation_ref(arg.annotation)
        if ref is not None:
            pairs.append((arg.arg, ref))
    ret = _annotation_ref(node.returns)
    if ret is not None:
        pairs.append(("return", ret))
    return tuple(pairs)


def _collect_globals(body: Sequence[ast.stmt]) -> Tuple[str, ...]:
    """Names ``global``-declared in this body (nested defs excluded)."""
    found: Set[str] = set()
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Global):
            found.update(node.names)
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append(child)
    return tuple(sorted(found))


class _FunctionExtractor:
    """Turns one function body into a tuple of :class:`Op`."""

    def __init__(self, gate_vars: FrozenSet[str]) -> None:
        self._gate_vars = gate_vars
        self.ops: List[Op] = []
        self.nested_defs: List[ast.stmt] = []
        self._loop_depth = 0

    def run(self, body: Sequence[ast.stmt]) -> Tuple[Op, ...]:
        for stmt in body:
            self._statement(stmt, gated=False)
        return tuple(self.ops)

    # -- statement dispatch ------------------------------------------------

    def _statement(self, stmt: ast.stmt, gated: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested_defs.append(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            return  # classes nested in functions are out of scope
        if isinstance(stmt, ast.Assign):
            targets: List[str] = []
            writes: List[Tuple[str, str]] = []
            for target in stmt.targets:
                targets.extend(_flatten_targets(target))
                writes.extend(_write_targets(target))
            self._add(
                "assign",
                tuple(targets),
                stmt.value,
                stmt,
                gated,
                writes=tuple(writes),
                alias=_alias_refs(stmt.value),
            )
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._add(
                    "assign",
                    tuple(_flatten_targets(stmt.target)),
                    stmt.value,
                    stmt,
                    gated,
                    writes=tuple(_write_targets(stmt.target)),
                    alias=_alias_refs(stmt.value),
                )
            return
        if isinstance(stmt, ast.AugAssign):
            names = tuple(_flatten_targets(stmt.target))
            writes = tuple(_write_targets(stmt.target))
            expr = self._expr(stmt.value, gated)
            if names:
                # x += y reads x as well
                merged = ExprInfo(expr.names + names, expr.reads, expr.calls)
            else:
                # self.x += y: record the read side of the target too
                target_expr = _build_expr(stmt.target, self._gate_vars, gated)
                merged = ExprInfo(
                    expr.names + target_expr.names,
                    expr.reads + target_expr.reads,
                    expr.calls + target_expr.calls,
                )
            self.ops.append(
                Op(
                    "assign",
                    names,
                    merged,
                    stmt.lineno,
                    stmt.col_offset,
                    writes=writes,
                    depth=self._loop_depth,
                )
            )
            return
        if isinstance(stmt, ast.Return):
            self._add("return", (), stmt.value, stmt, gated)
            return
        if isinstance(stmt, ast.Expr):
            self._add("expr", (), stmt.value, stmt, gated)
            return
        if isinstance(stmt, ast.If):
            branch_gated = gated or _mentions_gate(stmt.test, self._gate_vars)
            self._add("expr", (), stmt.test, stmt, gated)
            for sub in stmt.body:
                self._statement(sub, branch_gated)
            for sub in stmt.orelse:
                self._statement(sub, gated)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._add(
                "assign",
                tuple(_flatten_targets(stmt.target)),
                stmt.iter,
                stmt,
                gated,
                writes=tuple(_write_targets(stmt.target)),
                alias=_alias_refs(stmt.iter),
                loop=True,
            )
            self._loop_depth += 1
            for sub in stmt.body:
                self._statement(sub, gated)
            self._loop_depth -= 1
            for sub in stmt.orelse:
                self._statement(sub, gated)
            return
        if isinstance(stmt, ast.While):
            self._add("expr", (), stmt.test, stmt, gated, loop=True)
            self._loop_depth += 1
            for sub in stmt.body:
                self._statement(sub, gated)
            self._loop_depth -= 1
            for sub in stmt.orelse:
                self._statement(sub, gated)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._add(
                        "assign",
                        tuple(_flatten_targets(item.optional_vars)),
                        item.context_expr,
                        stmt,
                        gated,
                        writes=tuple(_write_targets(item.optional_vars)),
                        alias=_alias_refs(item.context_expr),
                    )
                else:
                    self._add("expr", (), item.context_expr, stmt, gated)
            for sub in stmt.body:
                self._statement(sub, gated)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._statement(sub, gated)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._statement(sub, gated)
            for sub in stmt.orelse:
                self._statement(sub, gated)
            for sub in stmt.finalbody:
                self._statement(sub, gated)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._add("expr", (), stmt.exc, stmt, gated)
            return
        if isinstance(stmt, ast.Assert):
            self._add("expr", (), stmt.test, stmt, gated)
            return
        if isinstance(stmt, ast.Delete):
            writes: List[Tuple[str, str]] = []
            for target in stmt.targets:
                if isinstance(target, ast.Attribute):
                    writes.extend(_write_targets(target))
                elif isinstance(target, ast.Subscript):
                    writes.extend(_write_targets(target))
            if writes:
                self.ops.append(
                    Op(
                        "expr",
                        (),
                        EMPTY_EXPR,
                        stmt.lineno,
                        stmt.col_offset,
                        writes=tuple(writes),
                        depth=self._loop_depth,
                    )
                )
            return
        match_stmt = getattr(ast, "Match", None)  # absent on Python 3.9
        if match_stmt is not None and isinstance(stmt, match_stmt):
            self._add("expr", (), stmt.subject, stmt, gated)
            for case in stmt.cases:
                for sub in case.body:
                    self._statement(sub, gated)
            return
        # Pass / Break / Continue / Global / Nonlocal / Import: nothing
        # flow-relevant here (imports and global decls are collected
        # separately).

    # -- helpers -----------------------------------------------------------

    def _expr(self, node: Optional[ast.expr], gated: bool) -> ExprInfo:
        yields: List[ast.expr] = []
        expr = _build_expr(node, self._gate_vars, gated, yields)
        for value in yields:
            produced = _build_expr(value, self._gate_vars, gated)
            self.ops.append(
                Op(
                    "return",
                    (),
                    produced,
                    value.lineno,
                    value.col_offset,
                    depth=self._loop_depth,
                )
            )
        return expr

    def _add(
        self,
        kind: str,
        targets: Tuple[str, ...],
        node: Optional[ast.expr],
        stmt: ast.stmt,
        gated: bool,
        writes: Tuple[Tuple[str, str], ...] = (),
        alias: Tuple[str, ...] = (),
        loop: bool = False,
    ) -> None:
        expr = self._expr(node, gated) if node is not None else EMPTY_EXPR
        self.ops.append(
            Op(
                kind,
                targets,
                expr,
                stmt.lineno,
                stmt.col_offset,
                writes=writes,
                alias=alias,
                loop=loop,
                depth=self._loop_depth,
            )
        )


def _extract_function(
    node: ast.stmt,
    qualname: str,
    params: Tuple[str, ...],
    body: Sequence[ast.stmt],
    out: Dict[str, FunctionInfo],
) -> None:
    gate_vars = _gate_vars_for(body)
    extractor = _FunctionExtractor(gate_vars)
    ops = extractor.run(body)
    nested: List[str] = []
    for sub in extractor.nested_defs:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sub_qual = f"{qualname}.{sub.name}" if qualname else sub.name
            nested.append(sub_qual)
            _extract_function(sub, sub_qual, _params_of(sub), sub.body, out)
    out[qualname] = FunctionInfo(
        qualname=qualname,
        params=params,
        line=getattr(node, "lineno", 1),
        ops=ops,
        nested=tuple(nested),
        globals_declared=_collect_globals(body),
        annotations=_annotations_of(node),
    )


def _params_of(node: ast.stmt) -> Tuple[str, ...]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return ()
    arguments = node.args
    params = [a.arg for a in arguments.posonlyargs]
    params.extend(a.arg for a in arguments.args)
    if arguments.vararg is not None:
        params.append(arguments.vararg.arg)
    params.extend(a.arg for a in arguments.kwonlyargs)
    if arguments.kwarg is not None:
        params.append(arguments.kwarg.arg)
    return tuple(params)


def _collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> Tuple[Dict[str, Tuple[str, int]], Tuple[str, ...]]:
    imports: Dict[str, Tuple[str, int]] = {}
    stars: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = (alias.name, node.lineno)
                else:
                    root = alias.name.split(".", 1)[0]
                    imports[root] = (root, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(node, module, is_package)
            for alias in node.names:
                if alias.name == "*":
                    stars.append(base)
                    continue
                bound = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                imports[bound] = (target, node.lineno)
    return imports, tuple(stars)


def _resolve_from(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    if node.level == 0:
        return node.module or ""
    strip = node.level if not is_package else node.level - 1
    parts = module.split(".")
    base_parts = parts[: max(0, len(parts) - strip)]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts)


def _collect_used_names(tree: ast.Module) -> FrozenSet[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    used.add(alias.name.split(".", 1)[0])
                    used.add(alias.name.rsplit(".", 1)[-1])
                if alias.asname is not None:
                    used.add(alias.asname)
    for export in _collect_exports(tree):
        used.add(export)
    return frozenset(used)


def _collect_exports(tree: ast.Module) -> Tuple[str, ...]:
    exports: List[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            is_all = any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            if is_all and isinstance(node.value, (ast.List, ast.Tuple)):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        exports.append(element.value)
    return tuple(exports)


def _collect_dead_candidates(tree: ast.Module) -> Tuple[DeadCandidate, ...]:
    candidates: List[DeadCandidate] = []
    for node in tree.body:  # strictly top level: conditional defs are exempt
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.decorator_list:
                continue  # decorators register/side-effect; assume live
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            candidates.append(
                DeadCandidate(
                    name=node.name,
                    kind="class" if isinstance(node, ast.ClassDef) else "function",
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
    return tuple(candidates)


def extract_summary(
    tree: ast.Module,
    module: str,
    path: str,
    is_package: bool = False,
    shared_lines: Optional[Mapping[int, str]] = None,
    allow_lines: Optional[Mapping[int, Iterable[str]]] = None,
) -> ModuleSummary:
    """One-pass extraction of the whole-program-relevant facts."""
    imports, stars = _collect_imports(tree, module, is_package)
    functions: Dict[str, FunctionInfo] = {}
    classes: Dict[str, Tuple[str, ...]] = {}
    class_attrs: Dict[str, Tuple[str, ...]] = {}
    toplevel: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _extract_function(node, node.name, _params_of(node), node.body, functions)
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            attrs: List[str] = []
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(sub.name)
                    _extract_function(
                        sub, f"{node.name}.{sub.name}", _params_of(sub), sub.body, functions
                    )
                elif isinstance(sub, ast.Assign):
                    # Plain class-body assignments only: AnnAssign names are
                    # overwhelmingly dataclass fields (instance state), not
                    # class-level shared state.
                    for target in sub.targets:
                        if isinstance(target, ast.Name) and not target.id.startswith(
                            "__"
                        ):
                            attrs.append(target.id)
            classes[node.name] = tuple(methods)
            if attrs:
                class_attrs[node.name] = tuple(attrs)
        else:
            toplevel.append(node)
    _extract_function(tree, "", (), toplevel, functions)
    return ModuleSummary(
        module=module,
        path=path,
        imports=imports,
        star_imports=stars,
        functions=functions,
        classes=classes,
        used_names=_collect_used_names(tree),
        exports=_collect_exports(tree),
        dead_candidates=_collect_dead_candidates(tree),
        class_attrs=class_attrs,
        shared_lines=dict(shared_lines or {}),
        allow_lines={
            line: tuple(sorted(rules))
            for line, rules in (allow_lines or {}).items()
        },
    )
