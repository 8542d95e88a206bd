"""Cold-path perf smoke: the optimized code paths must be exercised.

A scaled-down cold-path microbenchmark (small document, few dozen
views, plan cache disabled) that asserts *feature flags*, not timings —
CI machines are too noisy for latency assertions, but they can verify
that the structural optimizations are actually on the serving path:

* **one epoch per registration call** — the bulk ``register_views``
  and a single ``register_view`` each publish exactly one epoch (a
  counter gate: every epoch builds VFILTER over the whole pool);
* **compiled VFILTER** — every cold ``answer()`` goes through the
  compiled read path (zero set-simulation reads), and the lazy DFA
  grows its rows while the cold answers run (epoch publish attaches an
  empty table; nothing is built eagerly);
* **packed Dewey keys** — every encoded node carries ``dewey_packed``
  in lockstep with its tuple code, and the TJ baseline's per-label
  streams are packed byte strings;
* **correctness guard** — all answers are cross-checked against direct
  evaluation (run under ``XMVR_CHECK=1`` in CI for the full contract
  pass).

Run: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

from __future__ import annotations

import sys
import time

from repro.bench import build_environment
from repro.core.system import MaterializedViewSystem
from repro.service import build_query_mix
from repro.xmltree.dewey import pack_code


def run_smoke(scale: float = 0.2, view_count: int = 40) -> dict:
    env = build_environment(scale=scale, view_count=view_count, seed=42)
    system = MaterializedViewSystem(env.document, plan_cache_size=0)
    seq = system.current_epoch().seq
    system.register_views(
        {view.view_id: view.pattern
         for view in env.system.materialized_views()}
    )

    # --- one epoch per registration call -----------------------------
    assert system.current_epoch().seq == seq + 1, (
        "register_views published more than one epoch",
        system.current_epoch().seq - seq,
    )
    single = next(iter(env.system.materialized_views()))
    seq = system.current_epoch().seq
    system.register_view("single", single.pattern)
    assert system.current_epoch().seq == seq + 1, (
        "register_view did not publish exactly one epoch",
        system.current_epoch().seq - seq,
    )

    # --- packed-key feature flags -------------------------------------
    sampled = 0
    for node in env.document.tree.iter_nodes():
        assert node.dewey is not None and node.dewey_packed is not None
        assert node.dewey_packed == pack_code(node.dewey), node.dewey
        sampled += 1
        if sampled >= 500:
            break
    assert sampled > 0, "document has no encoded nodes"

    # --- compiled-VFILTER feature flags -------------------------------
    rows_before = system.vfilter.compiled_stats()["dfa_rows"]

    # --- drive cold queries -------------------------------------------
    queries = build_query_mix(system, limit=12)
    assert queries, "no answerable queries in the mix"
    answered = 0
    started = time.perf_counter()
    for expression in queries:
        outcome = system.answer(expression)
        assert outcome.codes == system.direct_codes(expression), expression
        assert not outcome.plan_cache_hit
        answered += 1
    elapsed = time.perf_counter() - started

    vf_stats = system.vfilter.compiled_stats()
    assert vf_stats["dfa_rows"] > rows_before, (
        "cold answers built no DFA rows", rows_before, vf_stats
    )
    assert vf_stats["reads_compiled"] > 0, vf_stats
    assert vf_stats["reads_simulated"] == 0, (
        "a cold answer fell back to NFA set simulation", vf_stats
    )

    # The TJ baseline must run off packed per-label streams.
    tj = system.answer_tj(queries[0])
    assert tj.codes == system.direct_codes(queries[0])
    stream_index = system._stream_index
    assert stream_index is not None and stream_index.stored_bytes > 0
    for code in stream_index.all_codes()[:16]:
        assert isinstance(code, bytes)

    return {
        "queries": answered,
        "cold_seconds": round(elapsed, 4),
        "vfilter": vf_stats,
    }


def test_perf_smoke():
    """Pytest entry (same flags, tiny config)."""
    report = run_smoke(scale=0.15, view_count=24)
    assert report["queries"] > 0


def main() -> int:
    report = run_smoke()
    print(f"perf-smoke: {report['queries']} cold queries in "
          f"{report['cold_seconds']}s; vfilter {report['vfilter']}")
    print("perf-smoke: OK (compiled VFILTER + packed keys exercised)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
