"""The repository's benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs windows
twice as long whose passes alternate untraced and traced, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard output
is the JSON result; the lines before it are a readable report.  The
exit code is 0 only when every answer matched direct evaluation and
every input digest matched.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys

#: The view generator depends on the hash seed (see README.md), so the
#: benchmark always runs under this one.
PINNED_HASH_SEED = "0"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: Traces written to the span dump of a traced run.
DUMP_TRACES = 20000


def _pin_hash_seed() -> None:
    """Re-execute this script under the pinned hash seed (``execve``
    replaces the process, so no child is left behind)."""
    if os.environ.get("PYTHONHASHSEED") == PINNED_HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=PINNED_HASH_SEED)
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
        env,
    )


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("read_cold", "read_hot", "edit_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _pin_hash_seed()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT}/src: "
              f"{error}", file=sys.stderr)
        return 2

    from repro.bench.report import run_metadata
    from repro.core import contracts
    from repro.core.parallel import default_workers

    import population
    import reference
    import workloads
    from metrics import Measured, add_delta, end_to_end, per_layer
    from spans import Cells, Recorder, registry_cells

    if contracts.enabled():
        print("perfbench: refusing a timed run with XMVR_CHECK=1 "
              "(contracts re-evaluate views on every patch)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    recorder = Recorder(enabled=bool(args.trace))

    inputs = population.make_inputs()
    problems: list[str] = []
    if inputs.digest != population.POPULATION_DIGEST:
        problems.append(
            f"input digest {inputs.digest} != {population.POPULATION_DIGEST}"
        )

    # Set up several times, each followed by its share of the timed
    # window, so the timed passes spread over the whole run rather than
    # one stretch of it.  Each environment is closed and collected
    # before the next set-up starts.
    setups: list[dict[str, tuple[float, float]]] = []
    materialized: set[tuple[str, ...]] = set()
    passes: list[tuple[workloads.Tally, bool]] = []
    cells: Cells = {}
    stats_delta: dict = {}
    sched_delta: dict | None = None
    truth: dict[str, list] = {}
    script = workloads.EditScript(args.seed)
    for _ in range(workloads.SETUPS):
        env, phases = workload.setup(inputs)
        setups.append(phases)
        for phase, (start, end) in phases.items():
            recorder.record(phase, start, end, ())
        system = env.system
        materialized.add(
            tuple(view.view_id for view in system.materialized_views()))
        if len(setups) == 1:
            pool_digest = population.digest(*env.pool)
            if pool_digest != population.POOL_DIGEST:
                problems.append(f"query pool digest {pool_digest} != "
                                f"{population.POOL_DIGEST}")
            batches = workload.batches(env.pool, args.seed)
            stats_setup = system.stats()
            stored_bytes = sum(
                system.fragments.fragment_bytes(view.view_id)
                for view in system.materialized_views()
            )
        # Edits change each environment's document; reads share truth.
        oracle = workloads.Oracle(system, {} if workload.edits else truth)
        oracle.fill(env.pool)
        cells_before = registry_cells(system)
        stats_before = system.stats()
        sched_before = env.scheduler.stats() if env.scheduler else None
        passes.extend(workload.window(
            env, oracle, batches, args.seconds / workloads.SETUPS,
            recorder, script,
        ))
        add_delta(cells, cells_before, registry_cells(system))
        add_delta(stats_delta, stats_before, system.stats())
        if env.scheduler is not None:
            sched_delta = {} if sched_delta is None else sched_delta
            add_delta(sched_delta, sched_before, env.scheduler.stats())
        env.close()
        del env, system, oracle
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(materialized) != 1:
        problems.append("set-ups materialized different view sets")

    # The stream is a function of the seed and the pinned pool, so it
    # is recorded rather than checked.
    stream = workloads.batches_digest(batches)

    every = workloads.Tally.merged(tally for tally, _ in passes)
    if args.trace and recorder.violations:
        problems.append(f"{recorder.violations} spans whose children "
                        "outlast them")

    # Latencies and wall time are rescaled to the reference host slice
    # by slice; the run reports percentiles over all its reads and its
    # rate over all its passes (README.md, "Workloads").
    plain = Measured.of([tally for tally, traced in passes if not traced])
    if args.trace:
        rows = per_layer(
            setups=setups,
            stats_setup=stats_setup,
            stats_delta=stats_delta,
            cells=cells,
            sched_delta=sched_delta,
            window=every,
            rates=(plain.ops_per_s,
                   Measured.of([tally for tally, traced in passes
                                if traced]).ops_per_s),
            stored_bytes=stored_bytes,
        )
    else:
        rows = end_to_end(
            setups=setups,
            setup_scale=reference.REFERENCE_SECONDS / statistics.median(
                tally.reference for tally, _ in passes),
            reads=plain,
            writes=every.write_seconds,
            every=every,
            peak_rss_mb=peak_rss_mb,
            view_bytes=stored_bytes / len(inputs.document_text.encode()),
        )

    attempted, failed = every.attempted, every.failed
    correct = failed == 0 and not problems
    metadata = run_metadata()
    metadata.update({
        "workload": workload.name,
        "seed": str(args.seed),
        "seconds": str(args.seconds),
        "trace": str(args.trace),
        "contracts": "on" if contracts.enabled() else "off",
        "register_workers": str(default_workers()),
        "nproc": str(os.cpu_count()),
        "timed_window_cpus": "1" if workloads.PINNED else "all",
        "hash_seed": os.environ.get("PYTHONHASHSEED", ""),
        "scale": str(population.SCALE),
        "inputs_digest": inputs.digest,
        "stream_digest": stream,
    })
    report = {
        "run": metadata,
        "metrics": rows,
        "failures": every.failures,
        "problems": problems,
        "passes": len(passes),
        # Each pass's rate, rescaled and as measured, and the
        # reference task's mean time around its slices.
        "pass_figures": [
            {"ops_per_s": tally.ops_per_s,
             "measured_ops_per_s": tally.measured_ops_per_s,
             "reference_ms": tally.reference * 1e3, "traced": traced}
            for tally, traced in passes
        ],
        "reads": every.reads,
        "writes": len(every.write_seconds),
    }
    suffix = "-trace" if args.trace else ""
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}{suffix}")
    if args.trace:
        table = recorder.layer_table()
        report["layers"] = {
            name: {"spans": row.count, "total_s": row.total,
                   "self_s": row.self_time}
            for name, row in sorted(table.items())
        }
        recorder.dump(stem + "-spans.jsonl", DUMP_TRACES)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    _print_report(report)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in rows.items()
        },
    }))
    return 0 if correct else 1


def _print_report(report: dict) -> None:
    run = report["run"]
    print(f"perfbench {run['workload']} seed={run['seed']} "
          f"trace={run['trace']} sha={run['git_sha']} "
          f"hash_seed={run['hash_seed']} workers={run['register_workers']} "
          f"nproc={run['nproc']} contracts={run['contracts']}")
    figures = report["pass_figures"]
    rates = [figure["measured_ops_per_s"] for figure in figures]
    speeds = [figure["reference_ms"] for figure in figures]
    print(f"  inputs {run['inputs_digest'][:16]} "
          f"stream {run['stream_digest'][:16]} passes {report['passes']} "
          f"(measured pass ops/s {min(rates):.1f} to {max(rates):.1f}, "
          f"reference task {min(speeds):.2f} to {max(speeds):.2f} ms)")
    for name, row in report["metrics"].items():
        samples = row.get("samples")
        note = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<36} {row['value']:>14.6g} {row['unit']}{note}")
    for name, row in report.get("layers", {}).items():
        print(f"  layer {name:<30} spans={row['spans']:<8} "
              f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s")
    for kind, count in report["failures"].items():
        print(f"  FAILED {kind}: {count}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
