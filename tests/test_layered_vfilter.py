"""VFILTER's compiled read path and per-view acceptance."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core import View
from repro.core.vfilter import VFilter, query_paths
from repro.xpath import str_tokens

from conftest import random_pattern


def _random_views(rng: random.Random, count: int) -> list[View]:
    return [
        View(f"v{index:02d}", random_pattern(rng, max_nodes=4))
        for index in range(count)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_acceptance_is_per_view(seed):
    """Sharing an automaton with other views never changes whether a
    view passes the filter."""
    rng = random.Random(seed)
    views = _random_views(rng, rng.randint(1, 14))
    together = VFilter.build(views)
    singles = {view.view_id: VFilter.build([view]) for view in views}
    for _ in range(6):
        query = random_pattern(rng, max_nodes=5)
        assert together.filter(query).candidates == [
            view.view_id
            for view in views
            if singles[view.view_id].filter(query).candidates
        ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_compiled_read_equals_simulated_read(seed):
    """The lazy DFA, building each row on first visit, collects the
    same accept entries, prefix by prefix, as set simulation of the
    NFA."""
    rng = random.Random(seed)
    views = _random_views(rng, rng.randint(1, 14))
    simulated = VFilter.build(views).nfa
    compiled = VFilter.build(views).nfa
    compiled.compile()
    for _ in range(6):
        query = random_pattern(rng, max_nodes=5)
        for path in query_paths(query):
            tokens = str_tokens(path)
            assert Counter(compiled.read(tokens)) == Counter(
                simulated.read(tokens)
            )
    assert compiled.reads_simulated == 0
    assert simulated.reads_compiled == 0


def test_accepting_prefix_state_does_not_leak_into_longer_views():
    """``/*/catgraph`` accepts ``/site/catgraph//edge`` through its
    prefix-extension loop; ``/*/catgraph/edge`` shares that accepting
    state as a prefix but must not accept the ``//edge`` query."""
    short = View.from_xpath("short", "/*/catgraph")
    longer = View.from_xpath("longer", "/*/catgraph/edge")
    query = View.from_xpath("q", "/site/catgraph//edge").pattern
    together = VFilter.build([short, longer])
    assert together.filter(query).candidates == ["short"]
    assert VFilter.build([longer]).filter(query).candidates == []
