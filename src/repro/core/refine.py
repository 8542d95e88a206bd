"""Fragment refinement — "pushing selection" (paper Section V).

Before joining, each selected view's materialized fragments are filtered
by the view's *compensating pattern*: the query subtree rooted at the
unit's anchor ``h(RET(V))``, re-anchored at the fragment root.  A
fragment surviving refinement is guaranteed to satisfy every query
predicate at or below the anchor.

Paper optimization (case 1): when the compensating pattern is already
implied by the view's own return subtree — an anchored homomorphism from
the compensating pattern into ``subtree(V, RET(V))`` — every fragment
satisfies it by construction and evaluation is skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..matching.evaluate import satisfies_relative
from ..matching.homomorphism import subtree_maps_to
from ..storage.fragments import Fragment
from ..xpath.pattern import TreePattern
from .leaf_cover import CoverageUnit

__all__ = [
    "RefinedUnit",
    "compensating_pattern",
    "compensation_plan",
    "refine_unit",
]


@dataclass(slots=True)
class RefinedUnit:
    """A selection unit with its surviving fragments.

    ``fragments`` stay sorted by Dewey code (document order), as the
    holistic join requires.  ``skipped`` records whether the paper's
    case-1 optimization applied (no per-fragment evaluation).
    """

    unit: CoverageUnit
    pattern: TreePattern  # compensating pattern at the anchor
    fragments: list[Fragment]
    skipped: bool


def compensating_pattern(unit: CoverageUnit, query: TreePattern) -> TreePattern:
    """The query subtree at the unit's anchor, re-anchored for fragment
    evaluation.  When the anchor is an ancestor-or-self of ``RET(Q)``
    the copy keeps the answer node marked, so the same pattern later
    drives extraction."""
    anchor = unit.anchor
    ret = query.ret if anchor.is_ancestor_or_self_of(query.ret) else None
    return query.subtree_at(anchor, ret=ret)


def compensation_plan(
    unit: CoverageUnit, query: TreePattern
) -> tuple[TreePattern, bool]:
    """The per-unit refinement plan: the compensating pattern plus
    whether the paper's case-1 optimization applies (the view's own
    return subtree implies the pattern, so per-fragment evaluation is
    skipped).  Pure in the two patterns — memoizable across calls."""
    pattern = compensating_pattern(unit, query)
    skipped = subtree_maps_to(pattern.root, unit.view.pattern.ret)
    return pattern, skipped


def refine_unit(
    unit: CoverageUnit,
    query: TreePattern,
    fragments: list[Fragment],
    plan: tuple[TreePattern, bool] | None = None,
) -> RefinedUnit:
    """Apply the compensating pattern to a unit's fragments.

    ``plan`` replays a previously computed :func:`compensation_plan`
    (the hot path threads a memo through here).
    """
    pattern, skipped = plan if plan is not None else compensation_plan(unit, query)
    if skipped:
        return RefinedUnit(unit, pattern, list(fragments), True)
    surviving: list[Fragment] = []
    for fragment in fragments:
        index = fragment.subtree_index()
        if satisfies_relative(pattern, index.root, index):
            surviving.append(fragment)
    return RefinedUnit(unit, pattern, surviving, False)
