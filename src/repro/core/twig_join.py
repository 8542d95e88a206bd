"""Holistic join of refined view fragments on extended Dewey codes
(paper Section V; in the spirit of TJFast [22]).

Joining never touches base data: each fragment root's Dewey code yields,
through the FST, its complete root-to-node *label path*, and every
prefix of the code denotes a concrete ancestor.  The join therefore has
everything it needs to verify the query's **upper skeleton** — the query
nodes on the paths from the root to the units' anchors:

* every skeleton node is assigned a concrete code (a prefix of some
  fragment root's code);
* an anchor node is assigned its unit's fragment root;
* a ``/``-edge forces parent/child codes, a ``//``-edge a proper prefix;
* the assigned code's label (FST-derived) must satisfy the query node's
  label test;
* skeleton nodes shared between units must receive the *same* code —
  this is exactly what Example 4.2 of the paper shows is necessary (two
  ``d`` nodes under different ``b`` parents must not join).

The solver is a backtracking CSP over units ordered by anchor depth,
using binary search over each unit's code-sorted fragment list to
enumerate only roots inside the Dewey range of the deepest already
assigned ancestor (:func:`repro.xmltree.dewey.packed_descendant_range`).
All hot-loop comparisons operate on *packed* codes — order-preserving
byte strings (:func:`repro.xmltree.dewey.pack_code`) with per-fragment
precomputed prefix chains — never on int tuples.

Two memos keep the work per distinct label path, not per fragment:

* a *placement* — the depth each query path node takes on a chain —
  depends only on the chain's label path, so each participant computes
  its placements once per FST label path (:func:`path_placements`) and
  binds them to a fragment's packed prefixes;
* the solver's verdict for a target placement depends only on what it
  binds to the skeleton nodes shared with the other units, so
  ``solve()`` is memoized on that tuple of packed prefixes.

The public entry point returns, for a designated extraction unit (the
Δ-view), the fragments that participate in at least one full join — the
set the compensating query then extracts answers from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence, TypeVar

from ..xmltree.dewey import (
    DeweyCode,
    PackedCode,
    packed_descendant_range,
)
from ..xmltree.fst import FiniteStateTransducer
from ..xpath.ast import Axis, WILDCARD
from ..xpath.pattern import PatternNode, TreePattern
from .refine import RefinedUnit

__all__ = [
    "join_units",
    "anchor_instantiations",
    "instantiate_path",
    "path_placements",
]

#: A concrete prefix value bound to a skeleton node — a Dewey tuple in
#: the compatibility API, a packed byte string on the hot path.
PrefixT = TypeVar("PrefixT")

#: One placement of a query root-to-anchor path onto a chain: the
#: prefix length (depth) each path node takes, root first; the last
#: entry is always the chain's full depth.
Placement = tuple[int, ...]


def _label_ok(pattern_label: str, concrete_label: str) -> bool:
    return pattern_label == WILDCARD or pattern_label == concrete_label


def path_placements(
    path_nodes: list[PatternNode], labels: tuple[str, ...]
) -> list[Placement]:
    """All placements of a query root-to-anchor path onto a chain with
    label path ``labels``, in lexicographic depth order.

    A placement depends only on the path's labels and axes and on the
    chain's label path — never on the chain's Dewey code — so callers
    compute it once per distinct FST label path and bind it to each
    fragment's prefixes.
    """
    results: list[Placement] = []
    depth = len(labels)
    last = len(path_nodes) - 1
    chosen: list[int] = []

    def place(index: int, position: int) -> None:
        # position = depth assigned to path_nodes[index - 1].
        node = path_nodes[index]
        if index == last:
            # The anchor sits on the chain's last node.
            if node.axis is Axis.CHILD and position + 1 != depth:
                return
            if depth > position and _label_ok(node.label, labels[-1]):
                results.append(tuple(chosen) + (depth,))
            return
        if node.axis is Axis.CHILD:
            candidates = range(position + 1, position + 2)
        else:
            candidates = range(position + 1, depth + 1)
        remaining = last - index
        for candidate in candidates:
            if candidate + remaining > depth:
                break
            if not _label_ok(node.label, labels[candidate - 1]):
                continue
            chosen.append(candidate)
            place(index + 1, candidate)
            chosen.pop()

    place(0, 0)
    return results


def _bind(
    node_ids: Sequence[int],
    placement: Placement,
    prefixes: Sequence[PrefixT],
    assignment: dict[int, PrefixT],
) -> dict[int, PrefixT] | None:
    """Bind ``placement`` to one chain's ``prefixes``; ``None`` when a
    node already in ``assignment`` would take a different prefix.  The
    result holds only the new bindings (the caller owns the fixed
    ones)."""
    bound: dict[int, PrefixT] = {}
    for node_id, depth in zip(node_ids, placement):
        prefix = prefixes[depth - 1]
        fixed = assignment.get(node_id)
        if fixed is None:
            bound[node_id] = prefix
        elif fixed != prefix:
            return None
    return bound


def instantiate_path(
    path_nodes: list[PatternNode],
    prefixes: Sequence[PrefixT],
    labels: tuple[str, ...],
    assignment: dict[int, PrefixT],
) -> list[dict[int, PrefixT]]:
    """All ways to place a query root-to-anchor path onto one concrete
    root-to-node chain.

    ``path_nodes`` is the query path (root first, anchor last);
    ``prefixes[k - 1]`` the concrete ancestor at depth ``k`` of the
    chain (for packed codes this is
    :func:`repro.xmltree.dewey.packed_prefixes`, precomputed once per
    fragment instead of sliced per placement) and ``labels`` the chain's
    FST-decoded label path (same length).  ``assignment`` holds already
    fixed skeleton nodes; placements must agree with it.  Returns the
    *new* bindings of each consistent placement (not including prior
    assignments): :func:`path_placements` bound to ``prefixes``.
    """
    node_ids = [id(node) for node in path_nodes]
    results: list[dict[int, PrefixT]] = []
    for placement in path_placements(path_nodes, labels):
        bound = _bind(node_ids, placement, prefixes, assignment)
        if bound is not None:
            results.append(bound)
    return results


def anchor_instantiations(
    path_nodes: list[PatternNode],
    code: DeweyCode,
    labels: tuple[str, ...],
    assignment: dict[int, DeweyCode],
) -> list[dict[int, DeweyCode]]:
    """Tuple-code form of :func:`instantiate_path` (assignments bind
    Dewey tuples); the hot join paths pass precomputed packed prefixes
    to :func:`instantiate_path` directly."""
    prefixes = tuple(code[:depth] for depth in range(1, len(code) + 1))
    return instantiate_path(path_nodes, prefixes, labels, assignment)


@dataclass(slots=True)
class _Participant:
    refined: RefinedUnit
    path_nodes: list[PatternNode]
    node_ids: list[int]
    #: Sorted packed fragment root codes (byte order = document order)
    #: with the parallel per-code packed prefix chains.
    codes: list[PackedCode]
    prefixes: list[tuple[PackedCode, ...]]
    #: label path -> placements (filled lazily; see path_placements).
    placements: dict[tuple[str, ...], list[Placement]]

    def placements_for(self, labels: tuple[str, ...]) -> list[Placement]:
        cached = self.placements.get(labels)
        if cached is None:
            cached = path_placements(self.path_nodes, labels)
            self.placements[labels] = cached
        return cached


def _prepare(units: list[RefinedUnit]) -> list[_Participant]:
    participants = []
    for refined in units:
        path_nodes = refined.unit.anchor.root_path()
        codes = [fragment.packed for fragment in refined.fragments]
        prefixes = [fragment.prefixes for fragment in refined.fragments]
        participants.append(_Participant(
            refined,
            path_nodes,
            [id(node) for node in path_nodes],
            codes,
            prefixes,
            {},
        ))
    # Deeper anchors first: they constrain the assignment the most.
    participants.sort(key=lambda p: -len(p.path_nodes))
    return participants


def _candidate_indices(
    participant: _Participant, assignment: dict[int, PackedCode]
) -> range:
    """Index range of fragment roots compatible with the deepest
    assigned ancestor (packed byte-range bisection)."""
    codes = participant.codes
    fixed = assignment.get(participant.node_ids[-1])
    if fixed is not None:
        index = bisect_left(codes, fixed)
        if index < len(codes) and codes[index] == fixed:
            return range(index, index + 1)
        return range(0)
    # Deepest assigned skeleton node on this unit's path bounds the root
    # (longest packed code: on any chain, deeper means more bytes; any
    # assigned ancestor is a sound bound, this one is the tightest).
    bound: PackedCode | None = None
    for node_id in participant.node_ids:
        code = assignment.get(node_id)
        if code is not None and (bound is None or len(code) > len(bound)):
            bound = code
    if bound is None:
        return range(len(codes))
    low, high = packed_descendant_range(bound)
    return range(bisect_left(codes, low), bisect_right(codes, high))


def join_units(
    units: list[RefinedUnit],
    query: TreePattern,
    fst: FiniteStateTransducer,
    extraction_unit: RefinedUnit,
) -> list[PackedCode]:
    """Return the extraction unit's fragment roots that join fully,
    as packed codes in document order.

    Every unit in ``units`` (including the extraction unit) must
    participate; a root of the extraction unit survives when some global
    assignment of the upper skeleton is consistent with one root from
    every other unit.
    """
    participants = _prepare(units)
    others = [p for p in participants if p.refined is not extraction_unit]
    target = next(p for p in participants if p.refined is extraction_unit)
    decode = fst.decode_packed

    if not others:
        # A single unit joins with itself: a root survives when its
        # label path admits a placement.
        return [
            code
            for code in target.codes
            if target.placements_for(decode(code))
        ]

    def solve(index: int, assignment: dict[int, PackedCode]) -> bool:
        if index == len(others):
            return True
        participant = others[index]
        node_ids = participant.node_ids
        for position in _candidate_indices(participant, assignment):
            prefixes = participant.prefixes[position]
            labels = decode(participant.codes[position])
            for placement in participant.placements_for(labels):
                bound = _bind(node_ids, placement, prefixes, assignment)
                if bound is None:
                    continue
                assignment.update(bound)
                found = solve(index + 1, assignment)
                for key in bound:
                    del assignment[key]
                if found:
                    return True
        return False

    # solve(0, bound) reads only the bindings of skeleton nodes on some
    # other unit's path, so its verdict is memoized on the target's
    # bindings of exactly those nodes.
    other_ids = {node_id for p in others for node_id in p.node_ids}
    shared = [
        position
        for position, node_id in enumerate(target.node_ids)
        if node_id in other_ids
    ]
    verdicts: dict[tuple[PackedCode, ...], bool] = {}
    surviving: list[PackedCode] = []
    for position, code in enumerate(target.codes):
        prefixes = target.prefixes[position]
        for placement in target.placements_for(decode(code)):
            key = tuple(prefixes[placement[index] - 1] for index in shared)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = solve(0, {
                    node_id: prefixes[depth - 1]
                    for node_id, depth in zip(target.node_ids, placement)
                })
                verdicts[key] = verdict
            if verdict:
                surviving.append(code)
                break
    return surviving
