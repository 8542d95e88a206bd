"""Affected-view resolution: which views can an edit touch, and how.

The resolver replaces the old coarse label test (``_view_touched``: any
shared label → re-evaluate the view over the whole document) with the
per-view NFAs the VFILTER already maintains.  For every changed node
the delta records its concrete root-to-node label path; running those
paths through :meth:`VFilter.accepting_views` yields exactly the views
with a decomposed path matching some changed node.

Soundness of the *untouched* verdict: the constraint language is
attribute-equality only (no positional predicates), so whether a
pattern embedding exists depends only on the labels, attributes and
ancestry of its image nodes.  If an edit changes a view's answer set,
some embedding gains or loses a node inside the edited subtree ``S``;
walking down from that node, some pattern *leaf* maps into ``S`` (``S``
is a whole subtree, so descendants of a node in ``S`` stay in ``S``).
That leaf's decomposed path in ``D(V)`` matches the concrete label path
of its image, which is one of the delta's probe paths — so the NFA
accepts and the view is flagged.  A probe miss therefore proves the
answer set is unchanged.  Wildcard-only view paths are folded in by
``_wildcard_best`` inside ``accepting_views``.

Views whose answers cannot change may still store *content* that
changed: a fragment rooted at an ancestor-or-self of the edit anchor
serializes bytes from inside ``S``.  Those views are patchable without
re-evaluation (the answer set is proven stable) — only the overlapping
fragments are re-encoded.

Patchable vs rebuild (the fallback predicate): splicing evaluates the
view pattern against the edited subtree plus its ancestor chain only.
That universe is complete exactly for branchless patterns whose answer
node is the pattern leaf (``pattern.is_path() and not ret.children``):
every embedding host is then an ancestor-or-self of the answer node, so
an answer inside ``S`` is witnessed entirely within the universe, and
answers outside ``S`` keep their (unchanged) ancestor chains.  Patterns
with branches below the answer node can gain or lose answers *outside*
the subtree (a predicate branch may be satisfied by the new content),
so they take the sound full-rebuild path instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.vfilter import VFilter
from ..core.view import View
from ..storage.fragments import FragmentStore
from ..xmltree.dewey import packed_is_prefix
from ..xpath.pattern import TreePattern
from .delta import SubtreeDelta

__all__ = [
    "AffectedViews",
    "ViewImpact",
    "pattern_patchable",
    "resolve_affected",
]


def pattern_patchable(pattern: TreePattern) -> bool:
    """True when subtree-scoped splicing is sound for ``pattern``:
    branchless, with the answer node at the leaf."""
    return pattern.is_path() and not pattern.ret.children


@dataclass(frozen=True, slots=True)
class ViewImpact:
    """One affected view and the maintenance mode chosen for it."""

    view: View
    #: ``"patch"`` or ``"rebuild"``.
    mode: str
    #: Patch flavor: ``True`` re-evaluates the edited subtree and
    #: splices answers; ``False`` only re-encodes overlapping fragment
    #: content (the answer set is proven unchanged).
    splice: bool
    reason: str


@dataclass(frozen=True, slots=True)
class AffectedViews:
    """Resolver verdict for one delta."""

    impacts: tuple[ViewImpact, ...]
    untouched: tuple[str, ...]

    def affected_ids(self) -> frozenset[str]:
        return frozenset(impact.view.view_id for impact in self.impacts)


def resolve_affected(
    delta: SubtreeDelta,
    vfilter: VFilter,
    fragments: FragmentStore,
    views: list[View],
) -> AffectedViews:
    """Split ``views`` into untouched / patchable / rebuild for ``delta``."""
    answer_hits: set[str] = set()
    for labels in delta.label_paths:
        answer_hits |= vfilter.accepting_views(labels)
    impacts: list[ViewImpact] = []
    untouched: list[str] = []
    for view in views:
        answer_hit = view.view_id in answer_hits
        content_hit = any(
            packed_is_prefix(fragment.packed, delta.anchor_packed)
            for fragment in fragments.fragments(view.view_id)
        )
        if not answer_hit and not content_hit:
            untouched.append(view.view_id)
        elif fragments.is_capped(view.view_id):
            # A capped view stores nothing to patch; a full rebuild may
            # also un-cap it if the edit shrank its fragments.
            impacts.append(ViewImpact(view, "rebuild", False, "capped-view"))
        elif not answer_hit:
            impacts.append(
                ViewImpact(view, "patch", False, "fragment-content-overlap")
            )
        elif pattern_patchable(view.pattern):
            impacts.append(ViewImpact(view, "patch", True, "answers-in-subtree"))
        else:
            impacts.append(ViewImpact(view, "rebuild", False, "branching-pattern"))
    return AffectedViews(impacts=tuple(impacts), untouched=tuple(untouched))
