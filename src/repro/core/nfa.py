"""The NFA underlying VFILTER (paper Section III-B, Figure 5).

States are integers; transitions come in three kinds, matching the
paper's alphabet semantics ("``*`` matches any label but not the query
axis; ``#`` can only match ``#``"):

* ``EXACT(l)`` — consumes exactly the label token ``l`` (never the query
  wildcard ``*`` and never ``#``): a view label is *less* general than a
  query wildcard, so it must not match one.
* ``STAR`` — consumes any token except ``#``: the view's ``*`` subsumes
  every query label and the query's own ``*``.
* ``ANY`` — consumes every token including ``#``: used on the loop
  states that realize ``//``-edges.

Construction per normalized view path pattern:

* step ``/l``  : ``q --EXACT(l)--> q'``
* step ``/*``  : ``q --STAR--> q'``
* step ``//l`` : ``q --EXACT(l)--> q'`` *and* ``q --ANY--> L(q)
  --ANY--> L(q) --EXACT(l)--> q'`` where ``L(q)`` is the loop state of
  ``q`` (one per source state, shared by all its ``//``-steps).  The
  direct edge realizes the zero-intermediate case (``a//b ⊒ a/b``), the
  loop any number of interposed query steps.
* step ``//*`` : same shape with ``STAR`` exits.

Descendant-step exits are tracked separately from child-step exits
(``desc_exact``/``desc_star`` vs ``exact``/``star``): a ``//l`` step and
a ``/l`` step from the same state must *not* share a target, otherwise
a query reaching the shared state through the loop would wrongly
continue along the ``/l`` pattern's suffix (``//l/x ⋢ /l/x``).

Common prefixes share states, which is what keeps VFILTER's size
sub-linear in the number of views (Figure 11).

A view path contains every query path that extends one of its matches,
so :meth:`PathNFA.read` collects the accept entries of every state it
passes, after each token, instead of looping on an accepting state
until the stream ends.  An accepting state is often also a shared
prefix of longer view paths; a self-loop there would let a query
consume extra tokens and then continue along another view's suffix —
``/*/catgraph`` accepting ``site catgraph #`` must not make
``/*/catgraph/edge`` accept ``site catgraph # edge`` — and would make a
view's acceptance depend on which other views share its automaton.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..xpath.ast import Axis, WILDCARD
from ..xpath.pattern import PathPattern
from ..xpath.transform import DESCENDANT_TOKEN

__all__ = ["PathNFA", "CompiledNFA", "AcceptEntry"]


@dataclass(frozen=True, slots=True)
class AcceptEntry:
    """What an accepting state means: one view path pattern.

    ``length`` is the number of labels of the view path — the ``l`` of
    the paper's ``LIST(P_i)`` pairs.
    """

    view_id: str
    path_index: int
    length: int


@dataclass(slots=True)
class _State:
    exact: dict[str, int] = field(default_factory=dict)
    star: int | None = None
    desc_exact: dict[str, int] = field(default_factory=dict)
    desc_star: int | None = None
    any_to: list[int] = field(default_factory=list)
    #: ANY-advance target for gap units (wildcard runs with a //-edge):
    #: consumes one token of any kind and moves forward (not a loop).
    chain: int | None = None
    accepts: list[AcceptEntry] = field(default_factory=list)
    is_loop: bool = False


class PathNFA:
    """Prefix-sharing NFA over normalized view path patterns."""

    def __init__(self) -> None:
        self._states: list[_State] = [_State()]  #: state: hard
        #: source state -> its loop state
        self._loops: dict[int, int] = {}  #: state: hard
        self._transition_count = 0  #: state: counter
        #: state: soft(derived-from=_states, _loops; rebuild=compile)
        self._compiled: CompiledNFA | None = None
        #: How many ``read`` calls took the compiled / simulated path —
        #: racy best-effort counters (stats only, never control flow).
        self.reads_compiled = 0  #: state: counter
        self.reads_simulated = 0  #: state: counter

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_state(self) -> int:
        self._states.append(_State())
        return len(self._states) - 1

    def _loop_of(self, state_id: int) -> int:
        """Return (creating if needed) the loop state of ``state_id``."""
        loop = self._loops.get(state_id)
        if loop is None:
            loop = self._new_state()
            self._states[loop].is_loop = True
            self._states[loop].any_to.append(loop)
            self._states[state_id].any_to.append(loop)
            self._loops[state_id] = loop
            self._transition_count += 2
        return loop

    def _advance_child(self, state_id: int, label: str) -> int:
        """Child-axis exit for ``label`` (created or shared)."""
        state = self._states[state_id]
        if label == WILDCARD:
            if state.star is None:
                state.star = self._new_state()
                self._transition_count += 1
            return state.star
        target = state.exact.get(label)
        if target is None:
            target = self._new_state()
            state.exact[label] = target
            self._transition_count += 1
        return target

    def _advance_descendant(self, state_id: int, label: str) -> int:
        """Descendant-axis exit: direct edge + loop edge, one target."""
        loop_id = self._loop_of(state_id)
        state = self._states[state_id]
        loop = self._states[loop_id]
        if label == WILDCARD:
            if loop.star is None:
                loop.star = self._new_state()
                self._transition_count += 1
            target = loop.star
            if state.desc_star is None:
                state.desc_star = target
                self._transition_count += 1
            return target
        target = loop.exact.get(label)
        if target is None:
            target = self._new_state()
            loop.exact[label] = target
            self._transition_count += 1
        if label not in state.desc_exact:
            state.desc_exact[label] = target
            self._transition_count += 1
        return target

    def _advance_any(self, state_id: int) -> int:
        """ANY-advance exit (created or shared): one token of any kind."""
        state = self._states[state_id]
        if state.chain is None:
            state.chain = self._new_state()
            self._transition_count += 1
        return state.chain

    #: state: mutator
    def insert(self, path: PathPattern, entry: AcceptEntry) -> None:
        """Insert one normalized view path pattern.

        Wildcard runs touching a ``//``-edge are inserted as *gap
        units*: an all-wildcard run of ``n`` steps whose region (its own
        edges plus the edge into the terminating label) contains a
        ``//`` constrains only the *depth gap* — "the terminating label
        sits ≥ n+1 levels below the anchor".  A per-step translation of
        the normalized form under-accepts (the paper's front-pushed
        ``/``-edges reject query ``//``-edges that containment allows),
        so the unit becomes: ``n`` ANY-advances, then the ``//l``-style
        fragment.  Counting a ``#`` token as an advance can only
        over-accept (one more false positive), never under-accept: a
        containment witness always supplies ≥ n+1 real steps.
        """
        self._compiled = None  # any structural change voids the DFA
        steps = path.steps
        current = 0
        index = 0
        while index < len(steps):
            step = steps[index]
            if step.label != WILDCARD:
                if step.axis is Axis.DESCENDANT:
                    current = self._advance_descendant(current, step.label)
                else:
                    current = self._advance_child(current, step.label)
                index += 1
                continue
            # Maximal wildcard run [index, end).
            end = index
            while end < len(steps) and steps[end].label == WILDCARD:
                end += 1
            run = steps[index:end]
            region = list(run)
            terminal = steps[end] if end < len(steps) else None
            if terminal is not None:
                region.append(terminal)
            # A trailing run is always a gap unit: k trailing wildcards
            # assert only "a descendant ≥ k levels below" (l/* ≡ l//*).
            if terminal is not None and not any(
                s.axis is Axis.DESCENDANT for s in region
            ):
                # Exact-depth run: plain STAR advances.
                for _ in run:
                    current = self._advance_child(current, WILDCARD)
                index = end
                continue
            # Gap unit: n ANY-advances, then the terminal as a
            # descendant-style fragment (direct + loop).
            if terminal is not None:
                for _ in run:
                    current = self._advance_any(current)
                current = self._advance_descendant(current, terminal.label)
                index = end + 1
            else:
                for _ in run[:-1]:
                    current = self._advance_any(current)
                current = self._advance_descendant(current, WILDCARD)
                index = end
        self._states[current].accepts.append(entry)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _step(self, current: set[int], token: str) -> set[int]:
        following: set[int] = set()
        is_hash = token == DESCENDANT_TOKEN
        for state_id in current:
            state = self._states[state_id]
            following.update(state.any_to)
            if state.chain is not None:
                following.add(state.chain)
            if is_hash:
                continue
            if state.star is not None:
                following.add(state.star)
            if state.desc_star is not None:
                following.add(state.desc_star)
            target = state.exact.get(token)
            if target is not None:
                following.add(target)
            target = state.desc_exact.get(token)
            if target is not None:
                following.add(target)
        return following

    def read(self, tokens: tuple[str, ...]) -> list[AcceptEntry]:
        """Run ``tokens`` and return the accept entries of every state
        reached after some prefix of them (an entry may repeat).

        Uses the compiled transition table when :meth:`compile` has run
        (one dict probe per token) and falls back to set simulation
        otherwise.
        """
        compiled = self._compiled
        if compiled is not None:
            self.reads_compiled += 1
            return compiled.read(tokens)
        self.reads_simulated += 1
        current: set[int] = {0}
        entries: list[AcceptEntry] = []
        for token in tokens:
            current = self._step(current, token)
            if not current:
                break
            for state_id in current:
                entries.extend(self._states[state_id].accepts)
        return entries

    def compile(self) -> "CompiledNFA":
        """Attach (or return) the lazy-DFA transition table; its rows
        are built on first visit.

        Idempotent until the next :meth:`insert`, which voids the cached
        automaton.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = CompiledNFA(self._states)
            self._compiled = compiled
        return compiled

    @property
    def compiled(self) -> "CompiledNFA | None":
        return self._compiled

    def reachable_states(self, tokens: tuple[str, ...]) -> set[int]:
        """Return the raw state set ``δ(q0, tokens)`` (diagnostics and
        the paper-walkthrough example)."""
        current: set[int] = {0}
        for token in tokens:
            current = self._step(current, token)
        return current

    # ------------------------------------------------------------------
    # introspection / sizing
    # ------------------------------------------------------------------
    @property
    def state_count(self) -> int:
        return len(self._states)

    @property
    def transition_count(self) -> int:
        return self._transition_count

    def accepting_states(self) -> dict[int, list[AcceptEntry]]:
        return {
            state_id: state.accepts
            for state_id, state in enumerate(self._states)
            if state.accepts
        }

    def stored_bytes(self) -> int:
        """Serialized size estimate — the Figure 11 metric."""
        total = 0
        for state in self._states:
            total += 8  # state header
            for label in state.exact:
                total += len(label.encode()) + 5
            for label in state.desc_exact:
                total += len(label.encode()) + 5
            if state.star is not None:
                total += 5
            if state.desc_star is not None:
                total += 5
            total += 5 * len(state.any_to)
            if state.chain is not None:
                total += 5
            for entry in state.accepts:
                total += len(entry.view_id.encode()) + 10
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PathNFA states={self.state_count} "
            f"transitions={self.transition_count}>"
        )


class CompiledNFA:
    """Lazy subset-construction DFA over a frozen :class:`PathNFA`.

    Set simulation costs one pass over the *state set* per token; the
    compiled form costs one dict probe per token.  Each DFA state is an
    interned frozenset of NFA state ids carrying a precomputed row:

    * ``labels`` — explicit targets for every label appearing in some
      member state's ``exact``/``desc_exact`` dict (the only labels
      whose successor differs from the default);
    * ``other`` — the target for every *other* non-``#`` token.  The
      query wildcard ``*`` lands here too: view ``exact`` dicts never
      key ``*`` (wildcard steps go to ``star``), so ``*`` follows
      exactly the ``any_to``/``chain``/``star``/``desc_star`` edges an
      unknown label follows;
    * ``hash`` — the target for the ``#`` token, which per the paper's
      alphabet only follows ``any_to``/``chain`` edges.

    Rows are built on first visit, so the table stays proportional to
    the state sets queries actually reach — never the exponential full
    powerset.

    Thread safety: the underlying NFA is frozen once published in an
    epoch, and all table mutation happens under ``_lock``.  The read
    path is lock-free — it only indexes lists the GIL keeps consistent
    and retries through the lock when it lands on an unbuilt row.
    """

    #: DFA id of the dead state (empty NFA set); all its exits loop.
    DEAD = 0

    __slots__ = (
        "_nfa_states",
        "_sets",
        "_labels",
        "_other",
        "_hash",
        "_accepts",
        "_intern",
        "_lock",
        "_start",
        "_rows_built",
    )

    def __init__(self, nfa_states: list[_State]) -> None:
        self._nfa_states = nfa_states  #: state: hard
        #: guarded-by: _lock (writes)
        #: state: soft(derived-from=_nfa_states; rebuild=_build_row)
        self._sets: list[frozenset[int]] = []
        #: per-DFA-state label row; ``None`` until the row is built.
        #: guarded-by: _lock (writes)
        #: state: soft(derived-from=_nfa_states; rebuild=_build_row)
        self._labels: list[dict[str, int] | None] = []
        #: guarded-by: _lock (writes)
        #: state: soft(derived-from=_nfa_states; rebuild=_build_row)
        self._other: list[int] = []
        #: guarded-by: _lock (writes)
        #: state: soft(derived-from=_nfa_states; rebuild=_build_row)
        self._hash: list[int] = []
        #: guarded-by: _lock (writes)
        #: state: soft(derived-from=_nfa_states; rebuild=_build_row)
        self._accepts: list[tuple[AcceptEntry, ...]] = []
        #: guarded-by: _lock (writes)
        #: state: soft(derived-from=_nfa_states; rebuild=_build_row)
        self._intern: dict[frozenset[int], int] = {}
        self._lock = threading.Lock()
        #: guarded-by: _lock (writes)
        #: state: counter
        self._rows_built = 0
        dead = self._intern_set(frozenset())
        assert dead == self.DEAD
        self._labels[dead] = {}
        self._other[dead] = dead
        self._hash[dead] = dead
        self._rows_built += 1
        self._start = self._intern_set(frozenset({0}))  #: state: hard

    # ------------------------------------------------------------------
    # construction (all mutation under ``_lock`` after ``__init__``)
    # ------------------------------------------------------------------
    def _intern_set(self, states: frozenset[int]) -> int:
        dfa_id = self._intern.get(states)
        if dfa_id is not None:
            return dfa_id
        dfa_id = len(self._sets)
        self._sets.append(states)
        self._labels.append(None)
        self._other.append(-1)
        self._hash.append(-1)
        self._accepts.append(
            tuple(
                entry
                for state_id in sorted(states)
                for entry in self._nfa_states[state_id].accepts
            )
        )
        self._intern[states] = dfa_id
        return dfa_id

    def _build_row(self, dfa_id: int) -> dict[str, int]:
        """Compute the full transition row of ``dfa_id`` (lock held)."""
        built = self._labels[dfa_id]
        if built is not None:  # lost the race: another thread built it
            return built
        states = self._nfa_states
        hash_set: set[int] = set()
        relevant: set[str] = set()
        for state_id in self._sets[dfa_id]:
            state = states[state_id]
            hash_set.update(state.any_to)
            if state.chain is not None:
                hash_set.add(state.chain)
            relevant.update(state.exact)
            relevant.update(state.desc_exact)
        other_set = set(hash_set)
        for state_id in self._sets[dfa_id]:
            state = states[state_id]
            if state.star is not None:
                other_set.add(state.star)
            if state.desc_star is not None:
                other_set.add(state.desc_star)
        row: dict[str, int] = {}
        for label in relevant:
            target_set = set(other_set)
            for state_id in self._sets[dfa_id]:
                state = states[state_id]
                target = state.exact.get(label)
                if target is not None:
                    target_set.add(target)
                target = state.desc_exact.get(label)
                if target is not None:
                    target_set.add(target)
            row[label] = self._intern_set(frozenset(target_set))
        other_id = self._intern_set(frozenset(other_set))
        hash_id = self._intern_set(frozenset(hash_set))
        # Publish ``other``/``hash`` before the row dict: readers treat a
        # non-``None`` row as "fully built".
        self._other[dfa_id] = other_id
        self._hash[dfa_id] = hash_id
        self._labels[dfa_id] = row
        self._rows_built += 1
        return row

    # ------------------------------------------------------------------
    # execution (lock-free fast path)
    # ------------------------------------------------------------------
    def read(self, tokens: tuple[str, ...]) -> list[AcceptEntry]:
        """Run the token path through the table: one probe per token,
        collecting each reached state's accept entries (the same
        entries :meth:`PathNFA.read` simulates, possibly reordered)."""
        labels = self._labels
        accepts = self._accepts
        entries: list[AcceptEntry] = []
        current = self._start
        for token in tokens:
            row = labels[current]
            if row is None:
                with self._lock:
                    row = self._build_row(current)
            target = row.get(token)
            if target is None:
                if token == DESCENDANT_TOKEN:
                    target = self._hash[current]
                else:
                    target = self._other[current]
            current = target
            if current == self.DEAD:
                break
            if accepts[current]:
                entries.extend(accepts[current])
        return entries

    # ------------------------------------------------------------------
    # introspection / sizing
    # ------------------------------------------------------------------
    @property
    def state_count(self) -> int:
        return len(self._sets)

    @property
    def rows_built(self) -> int:
        return self._rows_built

    def table_entries(self) -> int:
        """Total transition-table entries across built rows."""
        total = 0
        for row in self._labels:
            if row is not None:
                total += len(row) + 2  # labels + other + hash
        return total

    def stored_bytes(self) -> int:
        """Rough in-memory footprint of the compiled table."""
        total = 0
        for dfa_id, row in enumerate(self._labels):
            total += 8 + 4 * len(self._sets[dfa_id])
            if row is not None:
                total += 10  # other + hash slots
                for label in row:
                    total += len(label.encode()) + 5
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CompiledNFA states={self.state_count} "
            f"rows={self._rows_built}>"
        )
