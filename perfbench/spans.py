"""Span recording around the benchmark's calls into each layer.

The program is not instrumented for this: a span opens and closes in
the benchmark, around one public call (``parse_xml``, ``answer``,
``QueryScheduler.submit``, ``DocumentEditor.insert_subtree``, ...).
Child spans are built from what the call returns: the per-stage
seconds of an ``AnswerOutcome``, the per-view entries of a
``MaintenanceReport`` and telemetry registry deltas taken around the
call.  The program measures those durations but not where they start,
so child spans are laid out back to back from their parent's start.

A layer's self time is its spans' duration minus their children's.
A child set that sums to more than its parent is counted in
``violations``: it means a stage timer and the enclosing call disagree.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.core.system import MaterializedViewSystem

#: Span names are the layers they time (module names of ``src/repro``).
ANSWER = "core.system.answer"
SUBMIT = "service.scheduler.submit"
EDIT = "delta.edit"

#: ``AnswerOutcome.stage_seconds`` key → (layer, parent stage).  The
#: coarse stages (parse, lookup, rewrite) partition the answer; the
#: fine ones split lookup and rewrite on the derivation path.
STAGE_LAYERS: dict[str, tuple[str, str | None]] = {
    "parse": ("xpath.parse", None),
    "lookup": ("core.lookup", None),
    "rewrite": ("core.rewrite", None),
    "vfilter": ("core.vfilter", "lookup"),
    "cover": ("core.leaf_cover", "lookup"),
    "selection": ("core.selection", "lookup"),
    "refine": ("core.refine", "rewrite"),
    "join": ("core.twig_join", "rewrite"),
    "extract": ("core.rewrite.extract", "rewrite"),
}


#: Telemetry registry samples: (sample name, labels) → value.
Cells = dict[tuple[str, tuple[tuple[str, str], ...]], float]


def registry_cells(system: MaterializedViewSystem) -> Cells:
    """Every sample of the system's telemetry registry (the cells
    ``GET /metrics`` serves)."""
    return {
        (sample.name, sample.labels): sample.value
        for snap in system.telemetry.registry.collect()
        for sample in snap.samples
    }


def cell_sum(cells: Cells, name: str, **labels: str) -> float:
    """Sum of the samples named ``name`` whose labels include
    ``labels``."""
    wanted = set(labels.items())
    return sum(
        value for (sample, sample_labels), value in cells.items()
        if sample == name and wanted <= set(sample_labels)
    )


@dataclass(slots=True)
class Span:
    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class LayerRow:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


#: A child span before layout: (layer, seconds, its own children).
Node = tuple[str, float, Sequence["Node"]]

#: Float slack when comparing a child sum with its parent.
_EPSILON = 1e-9


def answer_children(stage_seconds: dict[str, float]) -> list[Node]:
    """The coarse stages of one answer, each with its fine stages."""
    children: list[Node] = []
    for stage in ("parse", "lookup", "rewrite"):
        fine: list[Node] = [
            (STAGE_LAYERS[key][0], seconds, ())
            for key, seconds in stage_seconds.items()
            if STAGE_LAYERS[key][1] == stage
        ]
        children.append(
            (STAGE_LAYERS[stage][0], stage_seconds.get(stage, 0.0), fine)
        )
    return children


@dataclass
class Recorder:
    """Thread-safe in-memory span store (no-op when disabled)."""

    enabled: bool
    spans: list[Span] = field(default_factory=list)
    violations: int = 0
    traces: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Scheduler submits awaiting :meth:`settle`.
    _submits: list[tuple[float, float, Hashable, dict[str, float]]] = field(
        default_factory=list)

    def record(
        self, name: str, start: float, end: float, children: Sequence[Node]
    ) -> None:
        """Record one trace: a root span measured by the benchmark and
        its children laid out back to back inside it."""
        if not self.enabled:
            return
        with self._lock:
            self.traces += 1
            self._add(self.traces, None, name, start, end, children)

    def _add(
        self,
        trace_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        end: float,
        children: Sequence[Node],
    ) -> None:
        span_id = len(self.spans)
        self.spans.append(Span(trace_id, span_id, parent_id, name, start, end))
        if sum(seconds for _, seconds, _ in children) > end - start + _EPSILON:
            self.violations += 1
        cursor = start
        for child, seconds, grandchildren in children:
            self._add(
                trace_id, span_id, child, cursor, cursor + seconds,
                grandchildren,
            )
            cursor += seconds

    def answer(
        self, start: float, end: float, stage_seconds: dict[str, float]
    ) -> None:
        """A direct ``answer`` span with stage children."""
        if self.enabled:
            self.record(ANSWER, start, end, answer_children(stage_seconds))

    def submitted(
        self,
        start: float,
        end: float,
        flight: Hashable,
        stage_seconds: dict[str, float],
    ) -> None:
        """A ``QueryScheduler.submit`` whose outcome came from
        ``flight``; recorded by :meth:`settle`."""
        if self.enabled:
            with self._lock:
                self._submits.append((start, end, flight, stage_seconds))

    def settle(self) -> None:
        """Record the submits since the last call.  Coalesced submits
        share one flight, and the answer ran once for all of them: it
        becomes the child of the earliest of them (which started before
        the flight did, so it encloses the answer), whose self time is
        then the queue wait plus the hand-off between client and worker
        threads.  The later submits get no child: they only waited."""
        with self._lock:
            submits, self._submits = self._submits, []
        flights: dict[Hashable, list[tuple[float, float, dict[str, float]]]] = {}
        for start, end, flight, stage_seconds in submits:
            flights.setdefault(flight, []).append((start, end, stage_seconds))
        for members in flights.values():
            members.sort(key=lambda member: member[0])
            (start, end, stage_seconds), *joined = members
            stages = answer_children(stage_seconds)
            answer_seconds = sum(seconds for _, seconds, _ in stages)
            self.record(SUBMIT, start, end, [(ANSWER, answer_seconds, stages)])
            for start, end, _ in joined:
                self.record(SUBMIT, start, end, ())

    def edit(
        self,
        start: float,
        end: float,
        stages: dict[str, float],
        views: Iterable[tuple[str, float]],
    ) -> None:
        """An edit span: registry-delta stages (resolve, base patch)
        then one child per maintained view (patch or rebuild)."""
        children: list[Node] = [
            (f"delta.{stage}", seconds, ()) for stage, seconds in stages.items()
        ]
        children.extend(
            (f"delta.{mode}", seconds, ()) for mode, seconds in views
        )
        self.record(EDIT, start, end, children)

    def layer_table(self) -> dict[str, LayerRow]:
        """Per-layer span count, total and self time (seconds)."""
        rows: dict[str, LayerRow] = {}
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.seconds
                )
        for span in self.spans:
            row = rows.setdefault(span.name, LayerRow())
            row.count += 1
            row.total += span.seconds
            row.self_time += span.seconds - child_time.get(span.span_id, 0.0)
        return rows

    def dump(self, path: str, limit: int) -> None:
        """Write the first ``limit`` traces as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.trace_id > limit:
                    continue
                handle.write(json.dumps({
                    "trace": span.trace_id,
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                }) + "\n")
