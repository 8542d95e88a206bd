"""Core contribution: VFILTER, multiple-view selection, rewriting."""

from .leaf_cover import (
    DELTA,
    CoverageMemo,
    CoverageUnit,
    Obligation,
    coverage_units,
    covers_query,
    leaf_cover_labels,
    obligations_of,
    view_coverage,
)
from .plancache import PlanCache, PlanEntry
from .nfa import AcceptEntry, PathNFA
from .refine import RefinedUnit, compensating_pattern, refine_unit
from .rewrite import RewriteResult, rewrite
from .contained import ContainedResult, maximal_contained_rewriting
from .explain import QueryExplanation, ViewExplanation, explain_query
from .selection import (
    Selection,
    select_cost_based,
    select_heuristic,
    select_minimum,
)
from .system import AnswerOutcome, MaterializedViewSystem
from .twig_join import anchor_instantiations, join_units
from .vfilter import FilterResult, VFilter
from .view import View

__all__ = [
    "AcceptEntry",
    "AnswerOutcome",
    "CoverageMemo",
    "CoverageUnit",
    "DELTA",
    "FilterResult",
    "PlanCache",
    "PlanEntry",
    "MaterializedViewSystem",
    "Obligation",
    "PathNFA",
    "RefinedUnit",
    "RewriteResult",
    "Selection",
    "VFilter",
    "View",
    "anchor_instantiations",
    "compensating_pattern",
    "coverage_units",
    "covers_query",
    "join_units",
    "leaf_cover_labels",
    "obligations_of",
    "refine_unit",
    "rewrite",
    "ContainedResult",
    "QueryExplanation",
    "ViewExplanation",
    "explain_query",
    "maximal_contained_rewriting",
    "select_cost_based",
    "select_heuristic",
    "select_minimum",
    "view_coverage",
]
