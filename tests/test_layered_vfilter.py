"""LayeredVFilter: a stack of layers filters exactly like one automaton."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

import repro.core.vfilter as vfilter_module
from repro.core import View
from repro.core.vfilter import LayeredVFilter, query_paths
from repro.xpath import str_tokens

from conftest import random_pattern


def _random_views(rng: random.Random, count: int) -> list[View]:
    return [
        View(f"v{index:02d}", random_pattern(rng, max_nodes=4))
        for index in range(count)
    ]


def _stacked(views: list[View], rng: random.Random) -> LayeredVFilter:
    """A base over a random prefix, then one delta per remaining view."""
    split = rng.randint(0, len(views))
    layered = LayeredVFilter.build(views[:split])
    for view in views[split:]:
        layered = layered.with_view(view)
    return layered


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_stacked_filter_equals_monolithic(seed):
    rng = random.Random(seed)
    views = _random_views(rng, rng.randint(1, 14))
    monolithic = LayeredVFilter.build(views)
    stacked = _stacked(views, rng)
    singles = {view.view_id: LayeredVFilter.build([view]) for view in views}
    for _ in range(6):
        query = random_pattern(rng, max_nodes=5)
        expected = monolithic.filter(query)
        got = stacked.filter(query)
        assert got.candidates == expected.candidates
        assert got.lists == expected.lists  # LIST(P_i) order included
        assert got.query_paths == expected.query_paths
        # Acceptance is per view: sharing an automaton with other views
        # never changes whether a view passes.
        assert expected.candidates == [
            view.view_id
            for view in views
            if singles[view.view_id].filter(query).candidates
        ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_compiled_read_equals_simulated_read(seed):
    """The lazy DFA collects the same accept entries, prefix by prefix,
    as set simulation of the NFA."""
    rng = random.Random(seed)
    views = _random_views(rng, rng.randint(1, 14))
    simulated = LayeredVFilter.build(views).base.nfa
    compiled = LayeredVFilter.build(views).base.nfa
    compiled.compile(budget=rng.randint(1, 64))
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
    together = LayeredVFilter.build([short, longer])
    assert together.filter(query).candidates == ["short"]
    assert LayeredVFilter.build([longer]).filter(query).candidates == []


def test_filter_decomposes_the_query_once(monkeypatch):
    rng = random.Random(3)
    views = _random_views(rng, 10)
    stacked = LayeredVFilter.build(views[:2])
    for view in views[2:]:
        stacked = stacked.with_view(view)
    assert stacked.delta_count == 8
    calls = []
    real = vfilter_module.decompose

    def counting(query):
        calls.append(query)
        return real(query)

    monkeypatch.setattr(vfilter_module, "decompose", counting)
    query = random_pattern(rng, max_nodes=5)
    stacked.filter(query)
    assert len(calls) == 1
