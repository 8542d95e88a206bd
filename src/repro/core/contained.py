"""Maximal contained rewriting (the paper's future work, Section VII).

When no view set answers a query *equivalently*, a data-integration
scenario still wants every certain answer obtainable from the views.  A
**contained rewriting** returns a subset of the query's answers; the
*maximal* one unions every contained contribution available.

A view ``V`` contributes soundly when ``V ⊑ Q`` *with answer
correspondence*: a homomorphism ``g : Q → V`` mapping ``RET(Q)`` onto
``RET(V)``.  Every materialized answer ``x`` of ``V`` then embeds the
whole of ``Q`` with answer ``x`` (compose ``g`` with ``V``'s embedding),
so ``answers(V) ⊆ answers(Q)`` — no refinement or join needed.

Additionally, a view that is *more general* than the query
(``Q ⊑ V``) contributes when the equivalent machinery covers all
obligations with that single view (Section IV's single-view case); the
compensating pattern then carves the exact subset out of its fragments.
Both sources are unioned.

The result is a lower bound on ``answers(Q)``; ``is_exact`` reports
whether some contribution was provably equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..matching.evaluate import evaluate_relative
from ..matching.homomorphism import feasible_pairs
from ..storage.fragments import FragmentStore
from ..xmltree.dewey import DeweyCode
from ..xmltree.fst import FiniteStateTransducer
from ..xmltree.schema import DocumentSchema
from ..xpath.pattern import TreePattern
from .leaf_cover import coverage_units, covers_query
from .refine import refine_unit
from .twig_join import join_units
from .view import View

__all__ = ["ContainedResult", "maximal_contained_rewriting"]


@dataclass(slots=True)
class ContainedResult:
    """Outcome of a maximal contained rewriting."""

    codes: list[DeweyCode]
    contributing_views: list[str] = field(default_factory=list)
    #: True when a single-view equivalent contribution was found, making
    #: the result the *complete* answer set.
    is_exact: bool = False


def _contained_in_query(view: View, query: TreePattern) -> bool:
    """``V ⊑ Q`` with ``RET(Q) → RET(V)`` correspondence."""
    pairs = feasible_pairs(query, view.pattern)
    return any(target is view.pattern.ret for target in pairs.get(id(query.ret), []))


def maximal_contained_rewriting(
    views: list[View],
    query: TreePattern,
    fragment_store: FragmentStore,
    schema: DocumentSchema,
    fst: FiniteStateTransducer | None = None,
) -> ContainedResult:
    """Union every certain answer obtainable from ``views``."""
    if fst is None:
        fst = FiniteStateTransducer(schema)
    codes: set[DeweyCode] = set()
    contributing: list[str] = []
    is_exact = False

    for view in views:
        if not fragment_store.is_materialized(view.view_id):
            continue
        # Source 2 first: the view alone answers the query equivalently
        # (single-view case of Section IV) — the compensated fragments
        # are the *complete* answer set.
        exact_unit = next(
            (
                unit
                for unit in coverage_units(view, query)
                if unit.provides_delta and covers_query([unit], query)
            ),
            None,
        )
        if exact_unit is not None:
            # Full single-view pipeline: refinement plus the encoding
            # join (which verifies the query's root-to-anchor skeleton
            # against each fragment root's FST-derived label path).
            refined = refine_unit(
                exact_unit, query, fragment_store.fragments(view.view_id)
            )
            surviving = join_units([refined], query, fst, refined)
            by_packed = {f.packed: f for f in refined.fragments}
            for packed_root in surviving:
                fragment = by_packed[packed_root]
                index = fragment.coded_index(schema)
                for answer in evaluate_relative(
                    refined.pattern, index.root, index
                ):
                    assert answer.dewey is not None
                    codes.add(answer.dewey)
            contributing.append(view.view_id)
            is_exact = True
            continue
        # Source 1: the view is contained in the query — its answers are
        # certain answers verbatim.
        if _contained_in_query(view, query):
            view_codes = fragment_store.codes(view.view_id)
            if view_codes:
                codes.update(view_codes)
                contributing.append(view.view_id)

    return ContainedResult(sorted(codes), contributing, is_exact)
