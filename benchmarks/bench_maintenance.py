"""Mixed read/write workload benchmark for the delta subsystem.

Answers the maintenance questions the read-only benchmarks cannot:

* does the warm plan-cache hit rate *survive* writes?  Scoped
  invalidation (``PlanCache.invalidate_views``) drops only plans whose
  filter provenance intersects the affected views; the coarse
  alternative (clear everything per edit) would crater the hit rate at
  even 1% writes.  The grid runs 0% / 1% / 10% writes and records the
  hit rate per cell.
* how much cheaper is a patchable single-subtree edit than blanket
  re-materialization?  The micro phase times one schema-admitted insert
  under a path view (mode ``patched``) against evaluating + re-encoding
  every materialized view (what ``_rebuild_all`` does per view), at the
  largest grid scale.

Environments are built FRESH per cell, bypassing
``repro.bench.harness.build_environment``'s module cache: maintenance
mutates the document in place, so a cached environment would leak edits
across cells (and into other benchmarks sharing the process).

Usage::

    PYTHONPATH=src python benchmarks/bench_maintenance.py

Env knobs: ``REPRO_BENCH_MAINT_SCALES`` (comma-separated, default
``0.5,1.0``), ``REPRO_BENCH_MAINT_VIEWS`` (default 200),
``REPRO_BENCH_MAINT_OPS`` (default 600).

Writes ``BENCH_maintenance.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.bench.harness import PROCESSING_CONFIG
from repro.bench.report import run_metadata
from repro.bench.workloads import SEED_VIEWS, TEST_QUERIES
from repro.core.system import MaterializedViewSystem
from repro.delta import DocumentEditor
from repro.matching.evaluate import evaluate
from repro.storage.serialize import encode_dewey, encode_fragment
from repro.workload.querygen import QueryGenConfig, QueryGenerator, generate_positive
from repro.workload.xmark import generate_xmark_document
from repro.xmltree.tree import XMLNode

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_maintenance.json")

WRITE_PCTS = (0.0, 0.01, 0.10)
ZIPF_EXPONENT = 1.1

#: Path-only view for the micro phase: linear, no return-node children,
#: so a subtree edit under an answer takes the ``patched`` mode.
#: Categories have small subtrees, so the enclosing fragments the
#: patcher re-encodes stay small — the patch's cost is proportional to
#: the *edited fragments*, not the document, which is the whole point.
MICRO_VIEW = ("Pcat", "//category/name")
MICRO_ANCHOR = "//category"
MICRO_LABEL = "name"

#: Micro-phase view population: linear paths only (``num_nestedpath=0``)
#: — exactly the *patchable* class.  The grid keeps the realistic
#: branching-heavy ``PROCESSING_CONFIG`` population; the micro isolates
#: what patching buys where patching applies, against re-materializing
#: the same views.
PATH_CONFIG = QueryGenConfig(
    max_depth=4, prob_wild=0.2, prob_desc=0.2, num_pred=0, num_nestedpath=0
)


def build_fresh_environment(
    scale: float,
    view_count: int,
    seed: int,
    config: QueryGenConfig = PROCESSING_CONFIG,
    include_seeds: bool = True,
):
    """A system the cell is free to mutate — never the cached one."""
    document = generate_xmark_document(scale=scale, seed=seed)
    system = MaterializedViewSystem(document)
    if include_seeds:
        for view_id, expression in SEED_VIEWS.items():
            system.register_view(view_id, expression)
    generator = QueryGenerator(document.schema, config, seed=seed)
    patterns = generate_positive(generator, document.tree, view_count)
    system.register_views(
        {f"G{index}": pattern for index, pattern in enumerate(patterns)}
    )
    return document, system


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, count + 1)]


def build_query_pool(system, distinct: int, seed: int) -> list[str]:
    pool = [expression for expression, _ in TEST_QUERIES.values()]
    rng = random.Random(seed)
    views = system.materialized_views()
    rng.shuffle(views)
    for view in views:
        if len(pool) >= distinct:
            break
        expression = view.to_xpath()
        if expression not in pool:
            pool.append(expression)
    return pool[:distinct]


def _pick_edit_site(rng: random.Random, tree) -> tuple[XMLNode, XMLNode]:
    """A (parent, child) pair from a random walk, biased deep so delete
    victims are small subtrees and the document size stays stable."""
    parent = tree.root
    node = rng.choice(parent.children)
    while node.children and rng.random() < 0.85:
        parent, node = node, rng.choice(node.children)
    return parent, node


def run_cell(
    scale: float,
    view_count: int,
    write_pct: float,
    ops: int,
    seed: int = 42,
) -> dict:
    """One grid cell: warm the plan cache over a zipf query pool, then
    run ``ops`` operations of which ``write_pct`` are edits."""
    setup_started = time.perf_counter()
    document, system = build_fresh_environment(scale, view_count, seed)
    setup_seconds = time.perf_counter() - setup_started
    editor = DocumentEditor(system)
    pool = build_query_pool(system, distinct=40, seed=seed)

    # Cold pass: populate the plan cache for every pool query.
    for expression in pool:
        system.answer(expression, "HV")

    rng = random.Random(seed + 1)
    weights = _zipf_weights(len(pool))
    before = system.stats()["plan_cache"]
    reads = writes = 0
    read_seconds = write_seconds = 0.0
    full_reencodes = 0
    insert_turn = True
    for _ in range(ops):
        if rng.random() < write_pct:
            parent, node = _pick_edit_site(rng, document.tree)
            started = time.perf_counter()
            if insert_turn:
                # A fresh leaf with a label the parent already has a
                # child of — admitted by the mined schema, so the edit
                # takes the delta path, not a full re-encode.
                report = editor.insert_subtree(parent.dewey, XMLNode(node.label))
            else:
                report = editor.delete_subtree(node.dewey)
            write_seconds += time.perf_counter() - started
            writes += 1
            insert_turn = not insert_turn
            full_reencodes += int(report.full_reencode)
        else:
            expression = rng.choices(pool, weights=weights, k=1)[0]
            started = time.perf_counter()
            system.answer(expression, "HV")
            read_seconds += time.perf_counter() - started
            reads += 1

    after = system.stats()["plan_cache"]
    hits = after["hits"] - before["hits"]
    hit_rate = hits / reads if reads else 0.0
    return {
        "scale": scale,
        "write_pct": write_pct,
        "ops": ops,
        "reads": reads,
        "writes": writes,
        "warm_hit_rate": round(hit_rate, 4),
        "mean_read_ms": round(read_seconds / reads * 1e3, 4) if reads else None,
        "mean_write_ms": round(write_seconds / writes * 1e3, 4) if writes else None,
        "full_reencodes": full_reencodes,
        "scoped_invalidations": after["scoped_invalidations"],
        "plans_dropped": after["plans_dropped"],
        "plans_retained": after["plans_retained"],
        "setup_seconds": round(setup_seconds, 3),
    }


def run_micro(scale: float, view_count: int, seed: int = 42) -> dict:
    """Patchable single-subtree insert vs blanket re-materialization,
    over a path-view population (the patchable class)."""
    document, system = build_fresh_environment(
        scale, view_count, seed, config=PATH_CONFIG, include_seeds=False
    )
    system.register_view(*MICRO_VIEW)
    editor = DocumentEditor(system)
    # Warm a plan so scoped invalidation has real work per edit.
    system.answer(MICRO_VIEW[1], "HV")

    anchor_codes = system.direct_codes(MICRO_ANCHOR)
    patch_samples: list[float] = []
    patched_views = 0
    for index in range(5):
        anchor = anchor_codes[index % len(anchor_codes)]
        report = editor.insert_subtree(anchor, XMLNode(MICRO_LABEL, text="bench"))
        assert not report.full_reencode, "micro insert must stay on the delta path"
        modes = {v.view_id: v.mode for v in report.views}
        assert modes.get(MICRO_VIEW[0]) == "patched", (
            f"path view should be patched, got {modes}"
        )
        assert all(v.mode == "patched" for v in report.views), (
            "a linear-path population must be maintained entirely by patches"
        )
        patched_views = max(patched_views, len(report.views))
        patch_samples.append(report.seconds)
    patch_seconds = min(patch_samples)

    # The blanket-fallback unit of work, per view: evaluate the pattern
    # over the whole tree and re-encode every fragment payload.
    started = time.perf_counter()
    rebuilt_views = 0
    for view in system.materialized_views():
        answers = evaluate(view.pattern, document.tree)
        for node in answers:
            if node.dewey is not None:
                encode_dewey(node.dewey) + encode_fragment(
                    node, document.schema
                )
        rebuilt_views += 1
    full_seconds = time.perf_counter() - started

    return {
        "scale": scale,
        "views_rematerialized": rebuilt_views,
        "views_patched_per_edit": patched_views,
        "patch_edit_ms": round(patch_seconds * 1e3, 4),
        "full_rematerialize_ms": round(full_seconds * 1e3, 4),
        "patch_speedup": round(full_seconds / patch_seconds, 1),
    }


def run_grid(scales: list[float], view_count: int, ops: int) -> dict:
    cells = [
        run_cell(scale, view_count, write_pct, ops)
        for scale in scales
        for write_pct in WRITE_PCTS
    ]
    micro = run_micro(max(scales), view_count)
    report = {
        "config": {
            "scales": scales,
            "view_count": view_count,
            "ops_per_cell": ops,
            "write_pcts": list(WRITE_PCTS),
            "zipf_exponent": ZIPF_EXPONENT,
        },
        "cells": cells,
        "micro": micro,
    }
    # Headline: hit-rate survival at 1% writes, per scale.
    survival = {}
    for scale in scales:
        by_pct = {c["write_pct"]: c for c in cells if c["scale"] == scale}
        baseline = by_pct[0.0]["warm_hit_rate"]
        survival[str(scale)] = {
            "read_only_hit_rate": baseline,
            "hit_rate_at_1pct_writes": by_pct[0.01]["warm_hit_rate"],
            "hit_rate_at_10pct_writes": by_pct[0.10]["warm_hit_rate"],
            "survival_at_1pct": round(by_pct[0.01]["warm_hit_rate"] / baseline, 4)
            if baseline
            else None,
        }
    report["survival"] = survival
    return report


def test_maintenance_small():
    """Pytest entry: tiny configuration, loose bounds off the record run.

    Contracts are pinned OFF for the timing section: with XMVR_CHECK=1
    every patch re-evaluates its view pattern for the byte-identity
    check, which is exactly the work the speedup claim excludes (the
    delta test suite covers correctness; this file measures cost).
    """
    previous = os.environ.get("XMVR_CHECK")
    os.environ["XMVR_CHECK"] = "0"
    try:
        report = run_grid(scales=[0.3], view_count=30, ops=200)
    finally:
        if previous is None:
            os.environ.pop("XMVR_CHECK", None)
        else:
            os.environ["XMVR_CHECK"] = previous
    for cell in report["cells"]:
        assert cell["full_reencodes"] == 0, "edits must stay on the delta path"
        if cell["write_pct"] > 0:
            assert cell["writes"] > 0 and cell["scoped_invalidations"] >= cell["writes"]
    survival = report["survival"]["0.3"]
    assert survival["survival_at_1pct"] >= 0.5
    assert report["micro"]["patch_speedup"] >= 3.0


def main() -> int:
    scales = [
        float(token)
        for token in os.environ.get("REPRO_BENCH_MAINT_SCALES", "0.5,1.0").split(",")
    ]
    view_count = int(os.environ.get("REPRO_BENCH_MAINT_VIEWS", "200"))
    ops = int(os.environ.get("REPRO_BENCH_MAINT_OPS", "600"))
    report = run_grid(scales=scales, view_count=view_count, ops=ops)
    report["run"] = run_metadata()
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {RESULT_PATH}")
    # Acceptance (ISSUE): warm-hit rate at 1% writes keeps >= 50% of the
    # read-only rate, and a patchable edit beats re-materialization 10x.
    for scale, row in report["survival"].items():
        assert row["survival_at_1pct"] >= 0.5, (
            f"scale {scale}: hit rate cratered at 1% writes: {row}"
        )
    assert report["micro"]["patch_speedup"] >= 10.0, report["micro"]
    print("acceptance: OK (hit rate survives 1% writes; patch >= 10x faster)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
