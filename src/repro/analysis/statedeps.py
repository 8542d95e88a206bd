"""Derived-state ownership analysis for xmvrlint (rules L7, L15-L19).

The GnitzDB-style split the codebase has been converging on since the
plan cache landed: every field of the answering system is either
**hard** state (the authoritative copy — the document, the registered
views, the log file handle), **soft** state (rebuildable caches and
indexes — plan cache, coverage memo, VFILTER wildcard tables, compiled
NFAs, dewey indexes, fragment manifests), a **counter** (monotonic
telemetry, never consulted for answers), or a lock.  Soft state
declares what it is derived from and how it is rebuilt via the
``#: state:`` annotation grammar parsed in :mod:`.dataflow`::

    self.document = document        #: state: hard
    self._node_index = None         #: state: soft(derived-from=document; rebuild=_ensure_node_index)
    self.plans_served = 0           #: state: counter

    #: state: mutator
    def insert_subtree(self, ...):  # a sanctioned hard-state entry point

From those records this module builds the explicit **derivation DAG**
over ``(classname, attr)`` tokens and checks it whole-program, on top
of the call-graph/dataflow IR.  The DAG is the one model of what a
cache depends on: the plan cache (``PlanCache._entries``) is a strict
dependent of the system's ``document`` and ``fragments``, and
``_invalidate_plans()`` is its patch because its body clears or
scope-invalidates the live cache on every path.

* **L15 — invalidation completeness.**  Any interprocedural write that
  reaches a ``derived-from`` source must, on every non-raising exit
  path of every public entry point, invalidate or patch every strict
  dependent.  Patching is *monotone*: one patch of the dependent
  anywhere in the call covers every source mutation of that call,
  before or after it (``PathNFA.insert`` nulls ``_compiled`` *first*;
  that is sound because nothing answers from ``_compiled`` mid-call).
  The one exception is a patch inside a ``try`` body: it covers the
  writes before it but not writes after the ``try`` statement — a
  ``try`` marks a region that may be cut short and recovered from, so
  its patch is no invalidate-first cover for the code that follows.
  Edges marked with a trailing ``?`` (``derived-from=document?``) are
  *weak*: acknowledged provenance that is refreshed by coarser
  protocols (epoch swap, explicit eviction) and exempt from L15 and
  L7 — they still appear in L16 cycle checks and ``--graph`` output.
* **L7 — exception safety.**  On the same walk, a possibly-raising
  point (a ``raise``, an I/O or clock call, a resolved callee whose
  effects may raise) reached while a strict source is dirty is a
  *mutate-then-raise window*: the exception would leave the dependent
  derived from state that no longer exists.  Raises inside a ``try``
  with handlers are caught (the handlers are walked instead); a
  ``finally`` that patches covers every escape through it.
* **L16 — DAG shape.**  Derivation must be acyclic; hard state and
  counters may not declare ``derived-from`` (hard state is never
  derived, so a soft→hard edge cannot even be expressed); counters may
  not serve as derivation sources; every source must resolve to an
  annotated field.
* **L17 — rebuild-path existence.**  Every soft field names a rebuild
  function that exists and is reachable from the public API or a
  lifecycle method (``rebuild=__init__`` declares
  rebuild-by-reconstruction and is always accepted).
* **L18 — hard-state write scoping.**  Hard fields are mutated only
  inside lifecycle methods or code reachable from a ``#: state:
  mutator`` entry point — the surface WAL logging will later hook.
* **L19 — annotation coverage.**  On any class that declares at least
  one state field, every other mutable instance attribute must carry a
  state annotation too (locks are exempt); otherwise the DAG silently
  goes stale as fields are added.

Alias resolution mirrors :mod:`.concurrency`: write chains are mapped
to tokens deepest-known-collaborator-first (``self.system._node_index``
→ ``(MaterializedViewSystem, _node_index)``), then through ``self``,
then through bare locals named like a known collaborator
(``document.schema = ...`` inside the editor dirties
``(MaterializedViewSystem, document)``).  Container-mutator calls
(``.append``/``.clear``/``.put``...) mutate the annotated field they
are invoked through — also when the call resolves to a project method
(``self.fragments.materialize(...)`` writes ``fragments``); calls
resolved to project functions contribute their callee's summarized
facts.  Document surgery (``detach``/``add_child`` inside the
maintenance or system modules) writes the document token regardless
of receiver spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .callgraph import ATTR_CLASSES, Project
from .dataflow import (
    CallRef,
    FunctionSummary,
    StateRec,
    Step,
    reachable,
    solve_fixpoint,
)
from .effects import GENERIC_MUTATORS, Effect, _call_clock, _call_io

__all__ = [
    "DOC_MODULES",
    "DOC_SURGERY",
    "DOC_TOKEN",
    "FIELD_MUTATORS",
    "LIFECYCLE_NAMES",
    "Edge",
    "EdgeSummary",
    "StateFacts",
    "analyze_statedeps",
]

Token = tuple[str, str]
#: (relpath, lineno, message)
Finding = tuple[str, int, str]

#: Tree-surgery calls that mutate the base document whatever the
#: receiver is spelled like (``parent.add_child``, ``node.detach``),
#: scoped to the modules that own maintenance so unrelated trees
#: elsewhere do not alias the document.
DOC_SURGERY = frozenset({"detach", "add_child"})
DOC_MODULES = frozenset({"repro.delta.maintenance", "repro.core.system"})
DOC_TOKEN: Token = ("MaterializedViewSystem", "document")

#: Unresolvable method names that mutate the object they are invoked
#: through: the generic container mutators plus the storage/VFILTER
#: mutation verbs of this codebase.
FIELD_MUTATORS = GENERIC_MUTATORS | {
    "write", "truncate", "materialize", "materialize_encoded", "drop",
    "evict_views", "put", "delete", "add_view", "add_views",
    "insert_subtree", "remove_subtree", "remove_range", "invalidate_views",
    "note_subtree", "forget_subtree",
}

#: Construction/teardown methods: exempt from L15 entry obligations and
#: L18 scoping (a constructor writes hard fields by definition), and
#: roots for L17 rebuild reachability.
LIFECYCLE_NAMES = frozenset({
    "__init__", "__new__", "__post_init__", "__enter__", "__exit__",
    "__del__", "close", "shutdown", "stop",
})

#: Callees whose facts are never propagated to callers: calling a
#: constructor builds fresh state, it does not dirty the caller's.
_CONSTRUCTION_NAMES = frozenset({"__init__", "__new__", "__post_init__"})


# ======================================================================
# events
# ======================================================================
@dataclass(frozen=True, slots=True)
class _Mutate:
    """A direct mutation of an annotated field."""

    token: Token
    lineno: int


@dataclass(frozen=True, slots=True)
class _CallFacts:
    """A call whose resolved callee's per-edge summary applies."""

    callee: str
    lineno: int


@dataclass(frozen=True, slots=True)
class _MayRaise:
    """An unresolved call that may raise (I/O or clock)."""

    name: str
    lineno: int


@dataclass(frozen=True, slots=True)
class Edge:
    """One derivation edge: ``target`` is derived from ``source``."""

    source: Token
    target: Token
    weak: bool
    relpath: str
    lineno: int


@dataclass(frozen=True, slots=True)
class _PathState:
    """Abstract state of one control path for one DAG edge.

    ``patched`` — the dependent has been invalidated/patched on this
    path (monotone: covers source writes before *and* after it within
    the same call).  ``dirty`` — the source was written while not
    patched.  ``line``/``via`` — witness of the first uncovered write
    (``via`` names the callee when the write happened inside one).
    """

    patched: bool
    dirty: bool
    line: int = 0
    via: str = ""

    def mutate_source(self, lineno: int, via: str = "") -> "_PathState":
        if self.patched or self.dirty:
            return self
        return _PathState(False, True, lineno, via)

    def patch_target(self) -> "_PathState":
        return _PathState(True, False)


def _join(
    a: "_PathState | None", b: "_PathState | None"
) -> "_PathState | None":
    if a is None:
        return b
    if b is None:
        return a
    witness = a if a.dirty else b
    return _PathState(
        a.patched and b.patched,
        a.dirty or b.dirty,
        witness.line if witness.dirty else 0,
        witness.via if witness.dirty else "",
    )


@dataclass(frozen=True, slots=True)
class EdgeSummary:
    """One function's summary for one edge, solved by fixpoint.

    ``patches`` — the dependent is patched on every non-raising exit;
    ``dirties`` — some non-raising exit leaves the source dirty (with
    ``line``/``via`` as witness); ``raises_unpatched`` — an exception
    may escape before the function patched the dependent;
    ``raises_dirty`` — an exception may escape while the function's own
    source write is still unpatched (a mutate-then-raise window).
    """

    patches: bool = True
    dirties: bool = False
    line: int = 0
    via: str = ""
    raises_unpatched: bool = False
    raises_dirty: bool = False


_BOTTOM = EdgeSummary()


@dataclass(slots=True)
class _Raises:
    """Raise points collected while walking one block."""

    unpatched: bool = False
    dirty: bool = False
    #: (lineno, reason) of every mutate-then-raise window
    windows: list[tuple[int, str]] = field(default_factory=list)

    def absorb(self, other: "_Raises") -> None:
        self.unpatched = self.unpatched or other.unpatched
        self.dirty = self.dirty or other.dirty
        self.windows.extend(other.windows)


class _EdgeWalk:
    """Abstract interpretation of one function body for one edge.

    Tracks ``(patched, dirty)`` per control path (:class:`_PathState`)
    and the raise points met along the way.  Callees contribute their
    :class:`EdgeSummary` through ``get``; callees that touch neither
    end of the edge contribute only whether they may raise.
    """

    def __init__(
        self,
        facts: "StateFacts",
        fqname: str,
        edge: Edge,
        relevant: set[str],
        get: Callable[[str], EdgeSummary],
    ) -> None:
        self.facts = facts
        self.fqname = fqname
        self.function = facts.project.functions[fqname]
        self.edge = edge
        self.relevant = relevant
        self.get = get
        self.exits: list[_PathState] = []
        self.raises = _Raises()

    def run(self) -> EdgeSummary:
        fall, _ = self._walk(
            self.function.steps, _PathState(False, False), self.raises
        )
        if fall is not None:
            self.exits.append(fall)
        exits = self.exits
        witness = next((state for state in exits if state.dirty), None)
        return EdgeSummary(
            patches=all(state.patched for state in exits),
            dirties=witness is not None,
            line=witness.line if witness else 0,
            via=witness.via if witness else "",
            raises_unpatched=self.raises.unpatched,
            raises_dirty=self.raises.dirty,
        )

    # -- raise points ------------------------------------------------------
    def _raise_point(
        self,
        state: _PathState,
        lineno: int,
        what: str,
        raises: _Raises,
        callee: EdgeSummary | None = None,
    ) -> None:
        """An exception may escape here (a ``raise``, or a call that may
        raise; ``callee`` is the summary of a call that touches the
        edge, whose own write may be what is left dirty)."""
        source, target = _fmt(self.edge.source), _fmt(self.edge.target)
        may_escape_unpatched = callee is None or callee.raises_unpatched
        if state.dirty and may_escape_unpatched:
            raises.dirty = True
            raises.windows.append(
                (lineno, f"{what} while {source} is modified and "
                         f"{target} is not yet invalidated")
            )
        elif not state.patched and callee is not None and callee.raises_dirty:
            raises.dirty = True
            raises.windows.append(
                (lineno, f"{what} after modifying {source}, before "
                         f"{target} is invalidated")
            )
        if not state.patched and may_escape_unpatched:
            raises.unpatched = True

    # -- one step's own events ------------------------------------------
    def _step(
        self, step: Step, state: _PathState, raises: _Raises
    ) -> tuple[_PathState, bool]:
        """Apply one step's own events; returns (state, may_dirty)."""
        facts = self.facts
        edge = self.edge
        may_dirty = False
        for event in facts._events(step, self.fqname, self.function):
            if isinstance(event, _Mutate):
                if event.token == edge.target:
                    state = state.patch_target()
                if event.token == edge.source:
                    may_dirty = True
                    state = state.mutate_source(event.lineno)
            elif isinstance(event, _MayRaise):
                self._raise_point(
                    state, event.lineno, f"'{event.name}()' may raise",
                    raises,
                )
            elif isinstance(event, _CallFacts):
                name = facts.project.functions[event.callee].name
                if event.callee not in self.relevant:
                    if facts.may_raise(event.callee):
                        self._raise_point(
                            state, event.lineno, f"'{name}()' may raise",
                            raises,
                        )
                    continue
                summary = self.get(event.callee)
                self._raise_point(
                    state, event.lineno, f"'{name}()' may raise", raises,
                    callee=summary,
                )
                if summary.dirties:
                    may_dirty = True
                    state = state.mutate_source(event.lineno, name)
                if summary.patches:
                    state = state.patch_target()
        return state, may_dirty

    # -- blocks ------------------------------------------------------------
    def _walk(
        self,
        block: tuple[Step, ...],
        state: "_PathState | None",
        raises: _Raises,
    ) -> tuple["_PathState | None", bool]:
        """Walk one block; returns (fall-through state or None, any
        source mutation possible anywhere inside)."""
        may_dirty = False
        for step in block:
            if state is None:
                break
            state, step_dirty = self._step(step, state, raises)
            may_dirty = may_dirty or step_dirty
            if step.kind == "return":
                self.exits.append(state)
                state = None
            elif step.kind == "raise":
                self._raise_point(state, step.lineno, "raises", raises)
                state = None  # exceptional exit: exempt from L15
            elif step.kind == "if":
                then_fall, d1 = self._walk(step.body, state, raises)
                else_fall, d2 = self._walk(step.orelse, state, raises)
                may_dirty = may_dirty or d1 or d2
                state = _join(then_fall, else_fall)
            elif step.kind == "loop":
                # Two passes: a write late in iteration N is visible to
                # iteration N+1; zero iterations joins the entry state.
                once, d1 = self._walk(step.body, state, raises)
                twice, d2 = self._walk(step.body, _join(state, once), raises)
                may_dirty = may_dirty or d1 or d2
                after = _join(state, twice)
                if step.orelse and after is not None:
                    after, d3 = self._walk(step.orelse, after, raises)
                    may_dirty = may_dirty or d3
                state = after
            elif step.kind == "with":
                state, d1 = self._walk(step.body, state, raises)
                may_dirty = may_dirty or d1
            elif step.kind == "try":
                state, d1 = self._walk_try(step, state, raises)
                may_dirty = may_dirty or d1
        return state, may_dirty

    def _walk_try(
        self, step: Step, state: _PathState, raises: _Raises
    ) -> tuple["_PathState | None", bool]:
        """``try`` semantics.

        Raise points in the body are caught when the statement has
        handlers (the handlers are walked instead) and covered when a
        ``finally`` patches the dependent on every path.  A handler can
        be entered from any point of the body, so it starts from the
        entry state plus the body's possible dirt.  A patch inside the
        body clears the dirt before it but gives no invalidate-first
        cover to writes *after* the statement: a ``try`` is a region
        that may be cut short and recovered from.
        """
        caught = _Raises()
        body_fall, body_dirty = self._walk(step.body, state, caught)
        escaping = _Raises()
        if not step.handlers:
            escaping.absorb(caught)
        handler_entry = _PathState(
            state.patched,
            state.dirty or (body_dirty and not state.patched),
            state.line,
            state.via,
        )
        may_dirty = body_dirty
        handled: _PathState | None = None
        for handler in step.handlers:
            handler_fall, d2 = self._walk(handler, handler_entry, escaping)
            may_dirty = may_dirty or d2
            handled = _join(handled, handler_fall)
        if step.orelse and body_fall is not None:
            body_fall, d3 = self._walk(step.orelse, body_fall, escaping)
            may_dirty = may_dirty or d3
        if not (step.final and self._always_patches(step.final)):
            raises.absorb(escaping)
        merged = _join(body_fall, handled)
        if merged is not None:
            merged = _PathState(
                state.patched, merged.dirty, merged.line, merged.via
            )
        if step.final and merged is not None:
            merged, d4 = self._walk(step.final, merged, raises)
            may_dirty = may_dirty or d4
        return merged, may_dirty

    def _always_patches(self, block: tuple[Step, ...]) -> bool:
        exits = self.exits
        self.exits = []
        fall, _ = self._walk(block, _PathState(False, False), _Raises())
        self.exits = exits
        return fall is not None and fall.patched


# ======================================================================
# facts
# ======================================================================
@dataclass
class StateFacts:
    """Everything the L7 and L15-L19 rules need, computed once per
    project."""

    project: Project
    relpath_by_module: dict[str, str]
    #: whole-program effects (for "may this callee raise?")
    effects: Mapping[str, Effect] = field(default_factory=dict)
    #: annotated fields (kind hard/soft/counter) by token
    fields: dict[Token, StateRec] = field(default_factory=dict)
    #: relpath of the file annotating each token
    field_files: dict[Token, str] = field(default_factory=dict)
    #: fqnames of ``#: state: mutator`` entry points
    mutators: set[str] = field(default_factory=set)
    #: resolved derivation edges (strict + weak)
    edges: list[Edge] = field(default_factory=list)
    #: derived-from spellings that resolve to no annotated field
    unresolved_sources: list[tuple[StateRec, str, str]] = field(
        default_factory=list
    )
    #: attr name → owner classes annotating a field of that name
    attr_owners: dict[str, tuple[str, ...]] = field(default_factory=dict)

    #: keeps every id()-keyed Step alive for the life of the memo (L3)
    _step_refs: list[Step] = field(default_factory=list)
    _step_events: dict[int, tuple[object, ...]] = field(default_factory=dict)
    _fn_mutated: dict[str, dict[Token, int]] = field(default_factory=dict)
    _reverse_adjacency: dict[str, list[str]] = field(default_factory=dict)
    _lifecycle_fns: set[str] = field(default_factory=set)
    _solved: dict[Edge, tuple[set[str], dict[str, EdgeSummary]]] = field(
        default_factory=dict
    )

    # -- construction ----------------------------------------------------
    def __post_init__(self) -> None:
        self._collect_records()
        self._collect_events()
        self._resolve_edges()

    def _collect_records(self) -> None:
        owners: dict[str, set[str]] = {}
        for relpath, summary in self.project.files.items():
            for rec in summary.states:
                if rec.kind == "mutator":
                    continue
                token = (rec.classname, rec.attr)
                self.fields[token] = rec
                self.field_files[token] = relpath
                owners.setdefault(rec.attr, set()).add(rec.classname)
        self.attr_owners = {
            attr: tuple(sorted(classes)) for attr, classes in owners.items()
        }
        # Mutator entry points, resolved to fqnames.
        mutator_keys: set[tuple[str, str]] = set()
        for summary in self.project.files.values():
            for rec in summary.states:
                if rec.kind == "mutator":
                    mutator_keys.add((rec.classname, rec.attr))
        for fqname, function in self.project.iter_functions():
            key = (function.classname or "", function.name)
            if key in mutator_keys:
                self.mutators.add(fqname)
            if function.name in LIFECYCLE_NAMES:
                self._lifecycle_fns.add(fqname)

    def _collect_events(self) -> None:
        reverse: dict[str, list[str]] = {}
        for fqname, function in self.project.iter_functions():
            mutated: dict[Token, int] = {}
            for step in function.iter_steps():
                for event in self._events(step, fqname, function):
                    if isinstance(event, _Mutate):
                        mutated.setdefault(event.token, event.lineno)
                    elif isinstance(event, _CallFacts):
                        reverse.setdefault(event.callee, []).append(fqname)
            self._fn_mutated[fqname] = mutated
        self._reverse_adjacency = reverse

    def _resolve_edges(self) -> None:
        for token, rec in sorted(self.fields.items()):
            relpath = self.field_files[token]
            for raw in rec.derived_from:
                spelling = raw.rstrip("?")
                weak = raw.endswith("?")
                source = self._resolve_source(rec, spelling)
                if source is None:
                    self.unresolved_sources.append((rec, raw, relpath))
                    continue
                self.edges.append(
                    Edge(source, token, weak, relpath, rec.lineno)
                )

    def _resolve_source(self, rec: StateRec, spelling: str) -> Token | None:
        if "." in spelling:
            classname, _, attr = spelling.rpartition(".")
            token = (classname, attr)
            return token if token in self.fields else None
        same_class = (rec.classname, spelling)
        if same_class in self.fields:
            return same_class
        owners = self.attr_owners.get(spelling, ())
        if len(owners) == 1:
            return (owners[0], spelling)
        return None

    # -- token resolution ------------------------------------------------
    def field_tokens(
        self, chain: tuple[str, ...], classname: str | None
    ) -> tuple[Token, ...]:
        """Map a write/receiver chain to the annotated fields it
        mutates, deepest known collaborator first."""
        if len(chain) < 2:
            return ()
        for i in range(len(chain) - 2, 0, -1):
            for owner in ATTR_CLASSES.get(chain[i], ()):
                token = (owner, chain[i + 1])
                if token in self.fields:
                    return (token,)
        root = chain[0]
        if root in ("self", "cls"):
            if classname is not None:
                token = (classname, chain[1])
                if token in self.fields:
                    return (token,)
            return ()
        for owner in ATTR_CLASSES.get(root, ()):
            token = (owner, chain[1])
            if token in self.fields:
                return (token,)
        if root in ATTR_CLASSES:
            # A bare local named like a known collaborator field:
            # ``document.schema = ...`` in the editor mutates the
            # system's ``document`` through an alias.
            return tuple(
                (owner, root) for owner in self.attr_owners.get(root, ())
            )
        return ()

    def _receiver_tokens(
        self, receiver: tuple[str, ...], classname: str | None
    ) -> tuple[Token, ...]:
        """Annotated fields mutated by a container-mutator call on
        ``receiver``.  A receiver that *is* a known collaborator object
        (``plan_cache.clear()``) mutates that object's soft/counter
        content wholesale — container mutators touch contents, never
        the object's own configuration references."""
        if not receiver:
            return ()
        if receiver[-1] in ATTR_CLASSES and receiver[-1] not in (
            "self",
            "cls",
        ):
            tokens: list[Token] = []
            for owner in ATTR_CLASSES[receiver[-1]]:
                tokens.extend(
                    token
                    for token, rec in self.fields.items()
                    if token[0] == owner and rec.kind != "hard"
                )
            if tokens:
                return tuple(sorted(set(tokens)))
        if len(receiver) < 2:
            return ()
        return self.field_tokens(receiver, classname)

    def may_raise(self, fqname: str) -> bool:
        effect = self.effects.get(fqname)
        return effect is not None and effect.raises

    # -- per-step events -------------------------------------------------
    def _events(
        self, step: Step, fqname: str, function: FunctionSummary
    ) -> tuple[object, ...]:
        """The step's events in evaluation order: its calls first, then
        its own stores (in ``self.x[k] = f()`` the call raises before
        the store happens)."""
        cached = self._step_events.get(id(step))
        if cached is not None:
            return cached
        module = self.project.module_of.get(fqname, "")
        classname = function.classname
        events: list[object] = []
        for call in step.calls:
            events.extend(self._call_events(call, fqname, module, classname))
        for write in step.writes:
            if write.fresh or write.global_write:
                continue
            for token in self.field_tokens(write.chain, classname):
                events.append(_Mutate(token, write.lineno))
        frozen = tuple(events)
        self._step_refs.append(step)
        self._step_events[id(step)] = frozen
        return frozen

    def _call_events(
        self,
        call: CallRef,
        fqname: str,
        module: str,
        classname: str | None,
    ) -> list[object]:
        if call.receiver_fresh:
            return []
        if call.name in DOC_SURGERY and module in DOC_MODULES:
            return [_Mutate(DOC_TOKEN, call.lineno)]
        if call.name in GENERIC_MUTATORS:
            # Never resolved: a unique method named ``clear``/``update``
            # elsewhere in the project must not hijack a dict mutation.
            return [
                _Mutate(token, call.lineno)
                for token in self._receiver_tokens(call.receiver, classname)
            ]
        callee = self.project.resolve(fqname, call)
        if callee is not None and callee in self.project.functions:
            if self.project.functions[callee].name in _CONSTRUCTION_NAMES:
                return []
            events: list[object] = [_CallFacts(callee, call.lineno)]
            if call.name in FIELD_MUTATORS:
                # ``self.fragments.materialize(...)`` mutates the store
                # held in the annotated field it is invoked through.
                events.extend(
                    _Mutate(token, call.lineno)
                    for token in self.field_tokens(call.receiver, classname)
                )
            return events
        events = []
        imports = self.project.imports_of.get(module, {})
        if _call_io(call, imports) or _call_clock(call, imports):
            events.append(_MayRaise(".".join(call.chain), call.lineno))
        if call.name in FIELD_MUTATORS:
            events.extend(
                _Mutate(token, call.lineno)
                for token in self._receiver_tokens(call.receiver, classname)
            )
        return events

    # ==================================================================
    # the per-edge fixpoint shared by L15 and L7
    # ==================================================================
    def _solve(self, edge: Edge) -> tuple[set[str], dict[str, EdgeSummary]]:
        cached = self._solved.get(edge)
        if cached is not None:
            return cached
        involved = {
            fqname
            for fqname, mutated in self._fn_mutated.items()
            if edge.source in mutated or edge.target in mutated
        }
        relevant = reachable(self._reverse_adjacency, involved)
        summaries = solve_fixpoint(
            sorted(relevant),
            _BOTTOM,
            lambda fqname, get: _EdgeWalk(
                self, fqname, edge, relevant, get
            ).run(),
        )
        self._solved[edge] = (relevant, summaries)
        return relevant, summaries

    def edge_summaries(self, edge: Edge) -> dict[str, EdgeSummary]:
        """Per-function summaries of every function that can touch
        ``edge`` (directly or through a callee)."""
        return self._solve(edge)[1]

    def is_entry_point(self, fqname: str) -> bool:
        """Functions held to L15 and L7: public, not a lifecycle
        method, not nested in another function."""
        function = self.project.functions[fqname]
        return (
            function.is_public
            and function.name not in LIFECYCLE_NAMES
            and "<locals>" not in function.qualname
        )

    def _location(self, fqname: str) -> str:
        module = self.project.module_of.get(fqname, "")
        return self.relpath_by_module.get(module, module)

    # ==================================================================
    # L15 — invalidation completeness, per strict edge
    # ==================================================================
    def invalidation_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for edge in self.edges:
            if edge.weak:
                continue
            relevant, summaries = self._solve(edge)
            for fqname in sorted(relevant):
                summary = summaries[fqname]
                if not summary.dirties or not self.is_entry_point(fqname):
                    continue
                function = self.project.functions[fqname]
                line = summary.line or function.lineno
                via = f" via {summary.via}()" if summary.via else ""
                findings.append(
                    (
                        self._location(fqname),
                        line,
                        f"{function.qualname} (line {function.lineno}) can "
                        f"exit with {_fmt(edge.source)} modified (line "
                        f"{line}{via}) but {_fmt(edge.target)} neither "
                        f"invalidated nor patched [derived-from edge at "
                        f"{edge.relpath}:{edge.lineno}]",
                    )
                )
        return sorted(set(findings))

    # ==================================================================
    # L7 — exception safety of mutation windows, per strict edge
    # ==================================================================
    def window_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for edge in self.edges:
            if edge.weak:
                continue
            relevant, summaries = self._solve(edge)
            for fqname in sorted(relevant):
                if not self.is_entry_point(fqname):
                    continue
                walk = _EdgeWalk(
                    self, fqname, edge, relevant, summaries.__getitem__
                )
                walk.run()
                function = self.project.functions[fqname]
                for lineno, reason in walk.raises.windows:
                    findings.append(
                        (
                            self._location(fqname),
                            lineno,
                            f"{function.qualname}: {reason} (stale "
                            f"{_fmt(edge.target)} on the error path)",
                        )
                    )
        return sorted(set(findings))

    # ==================================================================
    # L16 — DAG shape
    # ==================================================================
    def graph_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for token, rec in sorted(self.fields.items()):
            relpath = self.field_files[token]
            if rec.kind in ("hard", "counter") and rec.derived_from:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"{rec.kind} state {_fmt(token)} declares "
                        f"derived-from={', '.join(rec.derived_from)}: only "
                        "soft state is derived (hard state may never be "
                        "rebuilt from caches)",
                    )
                )
        for rec, raw, relpath in self.unresolved_sources:
            findings.append(
                (
                    relpath,
                    rec.lineno,
                    f"{_fmt((rec.classname, rec.attr))} derived-from "
                    f"source {raw!r} does not resolve to an annotated "
                    "state field",
                )
            )
        for edge in self.edges:
            source_rec = self.fields.get(edge.source)
            if source_rec is not None and source_rec.kind == "counter":
                findings.append(
                    (
                        edge.relpath,
                        edge.lineno,
                        f"{_fmt(edge.target)} derives from counter "
                        f"{_fmt(edge.source)}: counters are telemetry, "
                        "never derivation sources",
                    )
                )
        findings.extend(self._cycle_findings())
        return sorted(set(findings))

    def _cycle_findings(self) -> list[Finding]:
        graph: dict[Token, list[Token]] = {}
        for edge in self.edges:
            graph.setdefault(edge.source, []).append(edge.target)
        color: dict[Token, int] = {}
        stack: list[Token] = []
        cycles: list[tuple[Token, ...]] = []

        def visit(node: Token) -> None:
            color[node] = 1
            stack.append(node)
            for succ in graph.get(node, ()):
                mark = color.get(succ, 0)
                if mark == 0:
                    visit(succ)
                elif mark == 1:
                    loop = stack[stack.index(succ):] + [succ]
                    cycles.append(tuple(loop))
            stack.pop()
            color[node] = 2

        for node in sorted(graph):
            if color.get(node, 0) == 0:
                visit(node)
        findings: list[Finding] = []
        for loop in cycles:
            head = loop[0]
            relpath = self.field_files.get(head, "")
            rec = self.fields.get(head)
            findings.append(
                (
                    relpath,
                    rec.lineno if rec else 0,
                    "derivation cycle: "
                    + " -> ".join(_fmt(token) for token in loop),
                )
            )
        return findings

    # ==================================================================
    # L17 — rebuild-path existence
    # ==================================================================
    def rebuild_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        roots = {
            fqname
            for fqname, function in self.project.iter_functions()
            if function.is_public or function.name in LIFECYCLE_NAMES
        }
        live = reachable(self.project.adjacency(), roots)
        for token, rec in sorted(self.fields.items()):
            if rec.kind != "soft":
                continue
            relpath = self.field_files[token]
            if not rec.rebuild:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"soft state {_fmt(token)} declares no rebuild "
                        "function (rebuild=<fn> required: soft state must "
                        "be recomputable)",
                    )
                )
                continue
            if rec.rebuild == "__init__":
                continue  # rebuild-by-reconstruction
            resolved = self._resolve_rebuild(rec)
            if resolved is None:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"soft state {_fmt(token)} rebuild "
                        f"{rec.rebuild!r} does not resolve to a project "
                        "function",
                    )
                )
            elif resolved not in live:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"soft state {_fmt(token)} rebuild "
                        f"{rec.rebuild!r} ({resolved}) is unreachable from "
                        "any public or lifecycle entry point",
                    )
                )
        return sorted(set(findings))

    def _resolve_rebuild(self, rec: StateRec) -> str | None:
        project = self.project
        candidates = project.class_methods.get((rec.classname, rec.rebuild))
        if candidates:
            return candidates[0]
        by_name = project.by_method.get(rec.rebuild, [])
        if len(by_name) == 1:
            return by_name[0]
        bare = [
            fqname
            for fqname, function in project.iter_functions()
            if function.name == rec.rebuild and function.classname is None
        ]
        if len(bare) == 1:
            return bare[0]
        return None

    # ==================================================================
    # L18 — hard-state write scoping
    # ==================================================================
    def scope_violations(self) -> list[Finding]:
        hard = {
            token for token, rec in self.fields.items() if rec.kind == "hard"
        }
        sanctioned = reachable(
            self.project.adjacency(), self.mutators | self._lifecycle_fns
        )
        findings: list[Finding] = []
        for fqname in sorted(self._fn_mutated):
            function = self.project.functions[fqname]
            if function.name in LIFECYCLE_NAMES:
                continue
            if fqname in sanctioned:
                continue
            for token, lineno in sorted(self._fn_mutated[fqname].items()):
                if token not in hard:
                    continue
                module = self.project.module_of.get(fqname, "")
                relpath = self.relpath_by_module.get(module, module)
                findings.append(
                    (
                        relpath,
                        lineno,
                        f"{function.qualname} writes hard state "
                        f"{_fmt(token)} but is reachable from no "
                        "'#: state: mutator' entry point or lifecycle "
                        "method",
                    )
                )
        return sorted(set(findings))

    # ==================================================================
    # L19 — annotation coverage on stateful classes
    # ==================================================================
    def coverage_violations(self) -> list[Finding]:
        stateful = {token[0] for token in self.fields}
        frozen_classes = {
            rec.name
            for summary in self.project.files.values()
            for rec in summary.classes
            if rec.frozen
        }
        lock_attrs: set[Token] = set()
        for summary in self.project.files.values():
            for lock in summary.locks:
                lock_attrs.add((lock.classname, lock.attr))
        findings: list[Finding] = []
        for fqname, function in sorted(self.project.iter_functions()):
            classname = function.classname
            if classname not in stateful or classname in frozen_classes:
                continue
            if "<locals>" in function.qualname:
                continue
            module = self.project.module_of.get(fqname, "")
            relpath = self.relpath_by_module.get(module, module)
            for step in function.iter_steps():
                for write in step.writes:
                    if write.subscript or write.global_write:
                        continue
                    if len(write.chain) != 2 or write.chain[0] != "self":
                        continue
                    token = (classname, write.attr)
                    if token in self.fields or token in lock_attrs:
                        continue
                    findings.append(
                        (
                            relpath,
                            write.lineno,
                            f"{classname}.{write.attr} is assigned in "
                            f"{function.qualname} but carries no "
                            "'#: state:' annotation while the class "
                            "declares annotated state: the derivation DAG "
                            "cannot see it",
                        )
                    )
        return sorted(set(findings))

    # ==================================================================
    # graph export (for ``xmvrlint --graph``)
    # ==================================================================
    def derivation_graph(self) -> dict[str, object]:
        nodes = [
            {
                "id": _fmt(token),
                "kind": rec.kind,
                "rebuild": rec.rebuild,
            }
            for token, rec in sorted(self.fields.items())
        ]
        edges = [
            {
                "source": _fmt(edge.source),
                "target": _fmt(edge.target),
                "weak": edge.weak,
            }
            for edge in sorted(
                self.edges, key=lambda e: (e.source, e.target, e.weak)
            )
        ]
        return {"nodes": nodes, "edges": edges}


def _fmt(token: Token) -> str:
    return f"{token[0]}.{token[1]}"


def analyze_statedeps(
    project: Project, effects: Mapping[str, Effect] | None = None
) -> StateFacts:
    """Build the derivation DAG and per-function facts for a project;
    ``effects`` (from :func:`repro.analysis.effects.analyze`) tells L7
    which calls outside an edge may raise."""
    relpath_by_module = {
        summary.module: relpath for relpath, summary in project.files.items()
    }
    return StateFacts(
        project=project,
        relpath_by_module=relpath_by_module,
        effects=effects or {},
    )
