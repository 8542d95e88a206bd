"""Differential tests for the cold read path's two memoized routines.

* ``join_units`` (placements computed once per label path, ``solve()``
  memoized on shared-skeleton bindings) against the straightforward
  per-fragment backtracking join it replaced, kept below as the
  reference;
* ``evaluate_relative`` (root tested on the anchor alone) against
  ``evaluate`` over the fragment detached into its own tree.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.core.leaf_cover import CoverageUnit
from repro.core.refine import RefinedUnit
from repro.core.twig_join import instantiate_path, join_units, path_placements
from repro.core.view import View
from repro.matching import evaluate, evaluate_relative
from repro.storage import FragmentStore
from repro.xmltree import XMLNode, XMLTree, encode_tree
from repro.xmltree.dewey import packed_descendant_range, packed_prefixes
from repro.xpath.ast import AttributeConstraint, Axis, WILDCARD
from repro.xpath.pattern import PatternNode, TreePattern

from conftest import LABELS, random_pattern, random_tree


# ----------------------------------------------------------------------
# reference join: one placement enumeration per fragment, no memo
# ----------------------------------------------------------------------
def _reference_instantiate(path_nodes, prefixes, labels, assignment):
    results = []
    depth = len(prefixes)

    def place(index, position, bound):
        if index == len(path_nodes):
            if position == depth:
                results.append(dict(bound))
            return
        node = path_nodes[index]
        if node.axis is Axis.CHILD:
            candidates = [position + 1]
        else:
            candidates = list(range(position + 1, depth + 1))
        remaining = len(path_nodes) - index - 1
        fixed = assignment.get(id(node))
        for candidate in candidates:
            if candidate + remaining > depth:
                break
            label = labels[candidate - 1]
            if node.label != WILDCARD and node.label != label:
                continue
            prefix = prefixes[candidate - 1]
            if fixed is not None:
                if fixed != prefix:
                    continue
                place(index + 1, candidate, bound)
                continue
            bound[id(node)] = prefix
            place(index + 1, candidate, bound)
            del bound[id(node)]

    place(0, 0, {})
    return results


def _reference_join(units, fst, extraction_unit):
    participants = []
    for refined in units:
        path_nodes = refined.unit.anchor.root_path()
        codes = [fragment.packed for fragment in refined.fragments]
        participants.append((refined, path_nodes, codes))
    participants.sort(key=lambda p: -len(p[1]))
    others = [p for p in participants if p[0] is not extraction_unit]
    target = next(p for p in participants if p[0] is extraction_unit)

    def candidates(path_nodes, codes, assignment):
        fixed = assignment.get(id(path_nodes[-1]))
        if fixed is not None:
            return [code for code in codes if code == fixed]
        bound = None
        for node in path_nodes:
            code = assignment.get(id(node))
            if code is not None and (bound is None or len(code) > len(bound)):
                bound = code
        if bound is None:
            return codes
        low, high = packed_descendant_range(bound)
        return codes[bisect_left(codes, low):bisect_right(codes, high)]

    def solve(index, assignment):
        if index == len(others):
            return True
        _refined, path_nodes, codes = others[index]
        for code in candidates(path_nodes, codes, assignment):
            for bound in _reference_instantiate(
                path_nodes, packed_prefixes(code), fst.decode_packed(code),
                assignment,
            ):
                assignment.update(bound)
                found = solve(index + 1, assignment)
                for key in bound:
                    del assignment[key]
                if found:
                    return True
        return False

    _refined, path_nodes, codes = target
    return [
        code
        for code in codes
        if any(
            solve(0, bound)
            for bound in _reference_instantiate(
                path_nodes, packed_prefixes(code), fst.decode_packed(code), {}
            )
        )
    ]


def _random_join_case(rng: random.Random):
    tree = random_tree(rng, max_nodes=40, max_depth=6)
    document = encode_tree(tree)
    query = random_pattern(rng, max_nodes=6)
    nodes = list(query.iter_nodes())
    # Leaves and their parents most often: deep anchors share the
    # longest skeletons.
    deep = [
        node
        for node in nodes
        if node.is_leaf() or any(child.is_leaf() for child in node.children)
    ]
    # Two view ids at most, so several units often come from the same
    # view (same fragment list, different anchors).
    picks = [
        (rng.choice(("V0", "V1")),
         rng.choice(deep if rng.random() < 0.7 else nodes))
        for _ in range(rng.randint(1, 3))
    ]
    store = FragmentStore()
    view_fragments = {}
    for view_id in sorted({view_id for view_id, _anchor in picks}):
        labels = {anchor.label for vid, anchor in picks if vid == view_id}
        chosen = [
            node
            for node in document.tree.iter_nodes()
            if (WILDCARD in labels or node.label in labels)
            and rng.random() < 0.8
        ]
        store.materialize(
            view_id, [(node.dewey, node) for node in chosen], document.schema
        )
        view_fragments[view_id] = store.fragments(view_id)
    units = []
    for view_id, anchor in picks:
        unit = CoverageUnit(
            View.from_xpath(view_id, "//*"), anchor, frozenset(), True
        )
        fragments = view_fragments[view_id]
        if rng.random() < 0.5:
            # Refinement keeps a subsequence (document order preserved).
            fragments = [f for f in fragments if rng.random() < 0.7]
        units.append(RefinedUnit(unit, query, fragments, False))
    extraction = rng.choice(units)
    return document, query, units, extraction


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_join_units_matches_reference(seed):
    document, query, units, extraction = _random_join_case(
        random.Random(seed)
    )
    assert join_units(units, query, document.fst, extraction) == (
        _reference_join(units, document.fst, extraction)
    )


def test_join_units_same_view_self_join_with_descendant_skeleton():
    """The shape of ``/r/p[a[z]]//*`` under one view: two units from
    the same fragment list, joined through a ``//`` skeleton edge."""
    rng = random.Random(7)
    root = XMLNode("r")
    for _ in range(6):
        person = root.new_child("p")
        address = person.new_child("a")
        if rng.random() < 0.5:
            address.new_child("z")
        person.new_child("n").new_child("x")
    document = encode_tree(XMLTree(root))
    query_root = PatternNode("r")
    person = query_root.new_child("p")
    address = person.new_child("a")
    address.new_child("z")
    star = person.new_child(WILDCARD, Axis.DESCENDANT)
    query = TreePattern(query_root, star)
    store = FragmentStore()
    store.materialize(
        "V",
        [(node.dewey, node) for node in document.tree.iter_nodes()],
        document.schema,
    )
    fragments = store.fragments("V")
    view = View.from_xpath("V", "//*")
    units = [
        RefinedUnit(CoverageUnit(view, address.children[0], frozenset(), False),
                    query, fragments, False),
        RefinedUnit(CoverageUnit(view, star, frozenset(), True),
                    query, fragments, False),
    ]
    surviving = join_units(units, query, document.fst, units[1])
    assert surviving == _reference_join(units, document.fst, units[1])
    assert surviving  # some person has a zipcode


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_instantiate_path_is_placements_bound_to_prefixes(seed):
    rng = random.Random(seed)
    document = encode_tree(random_tree(rng, max_nodes=25, max_depth=5))
    query = random_pattern(rng, max_nodes=5)
    path_nodes = rng.choice(list(query.iter_nodes())).root_path()
    for node in document.tree.iter_nodes():
        prefixes = packed_prefixes(node.dewey_packed)
        labels = document.fst.decode_packed(node.dewey_packed)
        assignment = {}
        if rng.random() < 0.5:
            fixed = rng.choice(path_nodes)
            assignment[id(fixed)] = rng.choice(prefixes)
        assert instantiate_path(path_nodes, prefixes, labels, assignment) == (
            _reference_instantiate(path_nodes, prefixes, labels, assignment)
        )
        assert len(path_placements(path_nodes, labels)) == len(
            _reference_instantiate(path_nodes, prefixes, labels, {})
        )


# ----------------------------------------------------------------------
# evaluate_relative against evaluate on the detached fragment
# ----------------------------------------------------------------------
def _copy_subtree(node: XMLNode) -> XMLNode:
    copy = XMLNode(node.label, attributes=dict(node.attributes))
    for child in node.children:
        copy.add_child(_copy_subtree(child))
    return copy


def _random_attributed_tree(rng: random.Random) -> XMLTree:
    tree = random_tree(rng, max_nodes=30, max_depth=5)
    for node in tree.iter_nodes():
        if rng.random() < 0.4:
            node.attributes["k"] = rng.choice(("1", "2"))
    return tree


def _anchored_pattern(rng: random.Random) -> TreePattern:
    """A random pattern whose root is anchored (``/``), sometimes a
    wildcard, sometimes with an attribute constraint."""
    pattern = random_pattern(rng, max_nodes=5)
    pattern.root.axis = Axis.CHILD
    if rng.random() < 0.3:
        pattern.root.label = WILDCARD
    if rng.random() < 0.3:
        pattern.root.constraints = (
            AttributeConstraint("k", "=", rng.choice(("1", "2"))),
        )
    return pattern


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_evaluate_relative_matches_detached_evaluate(seed):
    rng = random.Random(seed)
    tree = _random_attributed_tree(rng)
    pattern = _anchored_pattern(rng)
    nodes = list(tree.iter_nodes())
    anchor = rng.choice(nodes)
    detached = XMLTree(_copy_subtree(anchor))
    # Pre-order positions identify nodes across the copy.
    original = list(anchor.iter_subtree())
    copied = {node: index for index, node in enumerate(detached.iter_nodes())}
    expected = {
        original[copied[node]] for node in evaluate(pattern, detached)
    }
    assert evaluate_relative(pattern, anchor) == expected


def test_evaluate_relative_non_matching_anchor_is_empty():
    root = XMLNode("a", attributes={"k": "1"})
    root.new_child("b")
    XMLTree(root)
    miss = PatternNode("c")
    label_miss = TreePattern(miss, miss)
    assert evaluate_relative(label_miss, root) == set()
    constrained = PatternNode(
        WILDCARD, constraints=(AttributeConstraint("k", "=", "2"),)
    )
    constrained.new_child("b")
    assert evaluate_relative(
        TreePattern(constrained, constrained.children[0]), root
    ) == set()
    matching = PatternNode(
        WILDCARD, constraints=(AttributeConstraint("k", "=", "1"),)
    )
    child = matching.new_child("b")
    assert evaluate_relative(TreePattern(matching, child), root) == {
        root.children[0]
    }
