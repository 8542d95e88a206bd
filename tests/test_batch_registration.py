"""register_views is one epoch: atomic to readers, one VFILTER build.

Every test runs on the serial path (``workers=0``) and on the pool
path (``MIN_PARALLEL_VIEWS`` lowered to 1, two workers).
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.core.system as system_module
from repro import MaterializedViewSystem, ViewNotAnswerableError, encode_tree, parse_xml
from repro.core.vfilter import VFilter
from repro.storage import KVStore
from repro.xpath.parser import parse_xpath

BOOK_XML = """
<b>
  <t/> <a/>
  <s> <t/> <p/> <f><i/></f> </s>
  <s> <t/> <p/> <p/>
    <s> <t/> <p/> <f><i/></f> </s>
    <s> <t/> <p/> </s>
  </s>
</b>
"""

#: Sorted ids, so registration order equals reopen's (sorted) order.
BATCH = {
    "B1": "s[t]/p",
    "B2": "s[p]/f",
    "B3": "//s//f",
    "B4": "b/s[t]",
    "B5": "//s[f]/t",
    "B6": "//f/i",
}

#: Answerable from the batch (the filter comparison adds two that are not).
ANSWERABLE = ("s[f//i][t]/p", "//s[t]/p", "//s[f]/t", "//f/i", "b/s[t]")
QUERIES = ANSWERABLE + ("//s/p", "//s")


@pytest.fixture(params=["serial", "pool"])
def workers(request, monkeypatch) -> int:
    if request.param == "serial":
        return 0
    monkeypatch.setattr(system_module, "MIN_PARALLEL_VIEWS", 1)
    return 2


def _system(**kwargs) -> MaterializedViewSystem:
    return MaterializedViewSystem(encode_tree(parse_xml(BOOK_XML)), **kwargs)


def _swaps(system: MaterializedViewSystem) -> float:
    return system._epoch_swaps_total.value()


def _counted(system: MaterializedViewSystem, workers: int) -> int:
    mode = "serial" if workers == 0 else "parallel"
    return system.stats()["views"][f"registered_{mode}"]


def _assert_same_filtering(ours: VFilter, theirs: VFilter) -> None:
    for query in QUERIES:
        pattern = parse_xpath(query)
        mine, other = ours.filter(pattern), theirs.filter(pattern)
        assert mine.candidates == other.candidates
        assert mine.lists == other.lists


def _assert_filter_is_one_build(system: MaterializedViewSystem) -> None:
    """The published VFILTER filters exactly like ``VFilter.build`` over
    the epoch's answerable pool."""
    _assert_same_filtering(
        system.vfilter, VFilter.build(system.materialized_views())
    )


def test_batch_publishes_one_epoch_with_one_layer(workers):
    system = _system()
    system.register_view("A1", "//t")
    system.register_view("A2", "//p")
    seq, swaps = system.current_epoch().seq, _swaps(system)
    counted = _counted(system, workers)
    registered = system.register_views(dict(BATCH), workers=workers)
    assert registered == list(BATCH)
    assert system.current_epoch().seq == seq + 1
    assert _swaps(system) == swaps + 1
    _assert_filter_is_one_build(system)
    assert _counted(system, workers) == counted + len(BATCH)
    for query in ANSWERABLE:
        assert system.answer(query).codes == system.direct_codes(query)


def test_empty_batch_publishes_nothing(workers):
    system = _system()
    assert system.register_views({}, workers=workers) == []
    assert system.current_epoch().seq == 0


def test_concurrent_reader_sees_none_or_all(workers, monkeypatch):
    system = _system()
    system.register_view("A1", "//t")
    batch_ids = set(BATCH)
    # Slow every admission down so the reader overlaps the batch.
    fragments = system.fragments
    for name in ("materialize", "materialize_encoded"):
        real = getattr(fragments, name)

        def slowed(*args, _real=real, **kwargs):
            time.sleep(0.01)
            return _real(*args, **kwargs)

        monkeypatch.setattr(fragments, name, slowed)
    observed: list[frozenset[str]] = []
    failures: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            epoch = system.current_epoch()
            seen = frozenset(epoch.views) & batch_ids
            observed.append(seen)
            if seen and seen != batch_ids:
                failures.append(f"epoch {epoch.seq} shows {sorted(seen)}")
            try:
                outcome = system.answer("//f/i", epoch=epoch)
            except ViewNotAnswerableError:
                if seen:
                    failures.append("batch visible but //f/i unanswerable")
                continue
            if outcome.codes != system.direct_codes("//f/i"):
                failures.append(f"wrong answer at epoch {epoch.seq}")

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        system.register_views(dict(BATCH), workers=workers)
        time.sleep(0.02)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert failures == []
    assert frozenset() in observed and frozenset(batch_ids) in observed


def test_mid_batch_failure_publishes_the_admitted_prefix(workers, monkeypatch):
    system = _system()
    system.register_view("A1", "//t")
    seq, swaps = system.current_epoch().seq, _swaps(system)
    counted = _counted(system, workers)
    fragments = system.fragments
    name = "materialize" if workers == 0 else "materialize_encoded"
    real = getattr(fragments, name)

    def flaky(view_id, *args, **kwargs):
        if view_id == "B3":
            raise RuntimeError("store failed mid-batch")
        return real(view_id, *args, **kwargs)

    monkeypatch.setattr(fragments, name, flaky)
    with pytest.raises(RuntimeError, match="mid-batch"):
        system.register_views(dict(BATCH), workers=workers)
    assert system.current_epoch().seq == seq + 1
    assert _swaps(system) == swaps + 1
    assert list(system.current_epoch().views) == ["A1", "B1", "B2"]
    assert [view.view_id for view in system.materialized_views()] == [
        "A1", "B1", "B2",
    ]
    _assert_filter_is_one_build(system)
    assert _counted(system, workers) == counted + 2
    for query in ("s[t]/p", "s[p]/f"):
        assert system.answer(query).codes == system.direct_codes(query)
    with pytest.raises(ViewNotAnswerableError):
        system.answer("//f/i")
    # The failed view and the rest of the batch can be registered again.
    monkeypatch.setattr(fragments, name, real)
    rest = {view_id: BATCH[view_id] for view_id in ("B3", "B4", "B5", "B6")}
    assert system.register_views(rest, workers=workers) == list(rest)


def test_candidates_equal_those_after_reopen(workers):
    store = KVStore()
    system = _system(store=store)
    system.register_views(dict(BATCH), workers=workers)
    reopened = MaterializedViewSystem.reopen(system.document, store)
    _assert_same_filtering(system.vfilter, reopened.vfilter)


def test_single_registration_publishes_one_epoch():
    """Each ``register_view`` is a one-view batch: one epoch, and a
    filter equal to ``VFilter.build`` over the pool and to reopen's."""
    store = KVStore()
    system = _system(store=store)
    counted = _counted(system, 0)
    for view_id, expression in BATCH.items():
        seq, swaps = system.current_epoch().seq, _swaps(system)
        assert system.register_view(view_id, expression)
        assert system.current_epoch().seq == seq + 1
        assert _swaps(system) == swaps + 1
        _assert_filter_is_one_build(system)
    assert _counted(system, 0) == counted + len(BATCH)
    reopened = MaterializedViewSystem.reopen(system.document, store)
    _assert_same_filtering(system.vfilter, reopened.vfilter)
    for query in ANSWERABLE:
        assert system.answer(query).codes == system.direct_codes(query)
