"""End-to-end and per-layer metrics from one run's measurements.

Per-layer values are deltas of the telemetry registry (the cells
``GET /metrics`` serves), of ``MaterializedViewSystem.stats()`` and of
``QueryScheduler.stats()`` across the timed window, plus what the
calls returned (``AnswerOutcome``, ``MaintenanceReport``).  Times are
per operation: per read for the read path, per edit for the write path.
End-to-end times are rescaled to the reference host (``reference.py``);
per-layer times are as measured, so they can be set against each other
and against the program's own timers, except the tracing rates, which
compare rescaled passes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from population import PHASES
from spans import Cells, cell_sum
from workloads import Tally, percentile

Row = dict[str, Any]


@dataclass(frozen=True)
class Measured:
    """Read latency percentiles (seconds) over every read the passes
    timed, and operations completed per second of their wall time, all
    rescaled to the reference host (see README.md), and the number of
    operations they come from."""

    p50: float
    p99: float
    ops_per_s: float
    samples: int

    @classmethod
    def of(cls, passes: list[Tally]) -> "Measured":
        total = Tally.merged(passes)
        return cls(
            percentile(total.read_seconds, 0.50),
            percentile(total.read_seconds, 0.99),
            total.ops_per_s,
            total.attempted,
        )


#: ``repro_stage_seconds`` stage → per-layer metric (ms per read).
READ_STAGES = {
    "parse": "xpath.parse_ms",
    "vfilter": "core.vfilter.ms",
    "cover": "core.leaf_cover.ms",
    "selection": "core.selection.ms",
    "refine": "core.refine.ms",
    "join": "core.twig_join.ms",
    "extract": "core.rewrite.extract_ms",
}

#: ``repro_maintenance_delta_seconds`` stage → metric (ms per edit).
WRITE_STAGES = {
    "resolve": "delta.resolve_ms",
    "patch": "delta.patch_ms",
    "rebuild": "delta.rebuild_ms",
    "base_patch": "delta.base_patch_ms",
}

#: ``repro_maintenance_views_total`` mode → metric (views per edit).
VIEW_MODES = {
    "patched": "delta.views_patched",
    "rebuilt": "delta.views_rebuilt",
    "untouched": "delta.views_untouched",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _row(value: float, unit: str, samples: int | None = None) -> Row:
    row: Row = {"value": value, "unit": unit}
    if samples is not None:
        row["samples"] = samples
    return row


def add_delta(total: dict, before: dict, after: dict) -> None:
    """Add ``after - before`` into ``total``, leaf by leaf, for the
    numeric leaves of nested dicts (``stats()``, registry cells)."""
    for key, value in after.items():
        if isinstance(value, dict):
            add_delta(total.setdefault(key, {}), before.get(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value - before.get(key, 0)


def _phase_median(setups: list[dict[str, tuple[float, float]]],
                  phase: str) -> float:
    return statistics.median(
        phases[phase][1] - phases[phase][0] for phases in setups
    )


def end_to_end(
    *,
    setups: list[dict[str, tuple[float, float]]],
    setup_scale: float,
    reads: Measured,
    writes: list[float],
    every: Tally,
    peak_rss_mb: float,
    view_bytes: float,
) -> dict[str, Row]:
    """The user-visible metrics: the measured reads, success over
    ``every`` operation, write latency only where there were edits.
    Every time is rescaled to the reference host; set-up times, which
    run for seconds each, by ``setup_scale``, the run's median host
    speed."""
    setup_totals = [
        (phases[PHASES[-1]][1] - phases[PHASES[0]][0]) * setup_scale
        for phases in setups
    ]
    rows = {
        "setup_s": _row(statistics.median(setup_totals), "s", len(setups)),
        "read_p50_ms": _row(reads.p50 * 1e3, "ms", every.reads),
        "read_p99_ms": _row(reads.p99 * 1e3, "ms", every.reads),
    }
    if writes:
        rows["write_p50_ms"] = _row(
            percentile(writes, 0.50) * 1e3, "ms", len(writes))
        rows["write_p90_ms"] = _row(
            percentile(writes, 0.90) * 1e3, "ms", len(writes))
    rows.update({
        "ops_per_s": _row(reads.ops_per_s, "1/s", reads.samples),
        "success_rate": _row(
            1.0 - _ratio(every.failed, every.attempted), "fraction",
            every.attempted,
        ),
        "peak_rss_mb": _row(peak_rss_mb, "MiB"),
        "view_bytes_per_doc_byte": _row(view_bytes, "ratio"),
    })
    return rows


def per_layer(
    *,
    setups: list[dict[str, tuple[float, float]]],
    stats_setup: dict[str, Any],
    stats_delta: dict[str, Any],
    cells: Cells,
    sched_delta: dict[str, Any] | None,
    window: Tally,
    rates: tuple[float, float],
    stored_bytes: int,
) -> dict[str, Row]:
    """``stats_setup`` is ``stats()`` after a set-up; ``stats_delta``,
    ``cells`` and ``sched_delta`` are the changes of ``stats()``, the
    registry and ``QueryScheduler.stats()`` summed over the timed
    windows; ``window`` merges every pass and ``rates`` are the
    untraced and traced passes' ``ops_per_s``.  Write-path rows appear
    only where there were edits."""
    reads = window.reads
    rows: dict[str, Row] = {}

    # Set-up (median over the run's set-ups).
    rows["xmltree.parse_s"] = _row(_phase_median(setups, "xmltree.parse"), "s")
    rows["xmltree.encode_s"] = _row(
        _phase_median(setups, "xmltree.encode"), "s")
    rows["core.register_s"] = _row(_phase_median(setups, "core.register"), "s")
    views = stats_setup["views"]
    rows["core.register.parallel"] = _row(views["registered_parallel"], "count")
    rows["core.register.serial"] = _row(views["registered_serial"], "count")
    rows["core.warmup_s"] = _row(_phase_median(setups, "core.warmup"), "s")
    rows["core.nfa.dfa_states"] = _row(
        stats_setup["vfilter"]["dfa_states"], "count")
    rows["core.views.materialized"] = _row(views["materialized"], "count")
    rows["storage.fragments.stored_bytes"] = _row(stored_bytes, "bytes")

    # Read path, per read.
    for stage, name in READ_STAGES.items():
        seconds = cell_sum(cells, "repro_stage_seconds_sum", stage=stage)
        rows[name] = _row(_ratio(seconds * 1e3, reads), "ms", reads)
    derived = [entry for entry in window.derivations if entry[3]]
    candidates = sum(entry[0] for entry in derived)
    selected = sum(entry[1] for entry in derived)
    rows["core.vfilter.candidates"] = _row(
        _ratio(candidates, len(derived)), "count", len(derived))
    rows["core.vfilter.useful_ratio"] = _row(
        _ratio(selected, candidates), "ratio", len(derived))
    simulated = stats_delta["vfilter"]["reads_simulated"]
    compiled = stats_delta["vfilter"]["reads_compiled"]
    rows["core.nfa.simulated_ratio"] = _row(
        _ratio(simulated, simulated + compiled), "ratio")
    served = stats_delta["coverage_memo"]["coverage_served"]
    computed = stats_delta["coverage_memo"]["coverage_computed"]
    rows["core.leaf_cover.memo_served_ratio"] = _row(
        _ratio(served, served + computed), "ratio")
    rows["core.selection.views"] = _row(
        _ratio(selected, len(derived)), "count", len(derived))
    rows["core.rewrite.answers"] = _row(
        _ratio(sum(entry[2] for entry in window.derivations), reads),
        "count", reads)

    # Plan cache.
    def plan(key: str) -> int:
        return stats_delta["plan_cache"][key]

    rows["core.plancache.hit_ratio"] = _row(
        _ratio(plan("hits"), plan("hits") + plan("misses")), "ratio")
    rows["core.plancache.evictions"] = _row(plan("evictions"), "count")

    # Scheduler: engine service time per executed flight, and the rest
    # of the client's latency (queue wait and thread hand-off).
    service_ms = wait_ms = coalesced_ratio = rejected = 0.0
    if sched_delta is not None:
        service = cell_sum(cells, "repro_request_seconds_sum", status="ok")
        flights = cell_sum(cells, "repro_request_seconds_count", status="ok")
        service_ms = _ratio(service * 1e3, flights)
        wait_ms = _ratio(window.read_total * 1e3, reads) - service_ms
        coalesced_ratio = _ratio(sched_delta["coalesced"],
                                 sched_delta["submitted"])
        rejected = float(sched_delta["rejected"]
                         + sched_delta["deadline_waits"]
                         + sched_delta["expired"])
    rows["service.scheduler.service_ms"] = _row(service_ms, "ms", reads)
    rows["service.scheduler.wait_ms"] = _row(wait_ms, "ms", reads)
    rows["service.scheduler.coalesced_ratio"] = _row(coalesced_ratio, "ratio")
    rows["service.scheduler.rejected"] = _row(rejected, "count")

    # Write path, per edit.
    edits = window.reports
    if edits:
        rows["core.plancache.plans_dropped"] = _row(
            plan("plans_dropped"), "count")
        rows["core.plancache.plans_retained"] = _row(
            plan("plans_retained"), "count")
        for stage, name in WRITE_STAGES.items():
            seconds = cell_sum(cells, "repro_maintenance_delta_seconds_sum",
                               stage=stage)
            rows[name] = _row(_ratio(seconds * 1e3, len(edits)), "ms",
                              len(edits))
        for mode, name in VIEW_MODES.items():
            views_done = cell_sum(cells, "repro_maintenance_views_total",
                                  mode=mode)
            rows[name] = _row(_ratio(views_done, len(edits)), "count",
                              len(edits))
        rows["delta.full_reencodes"] = _row(
            sum(1 for report in edits if report.full_reencode), "count",
            len(edits))

    # Tracing overhead: traced passes against untraced ones (they
    # alternate, so both saw the same host).
    plain_ops, traced_ops = rates
    rows["trace.untraced_ops_per_s"] = _row(plain_ops, "1/s")
    rows["trace.ops_per_s"] = _row(traced_ops, "1/s")
    rows["trace.overhead_ratio"] = _row(_ratio(traced_ops, plain_ops), "ratio")
    return rows
