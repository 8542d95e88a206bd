"""The three workloads and the closed loops that drive them.

* ``read_cold`` — plan cache off, one caller, every pool query equally
  often, three times with HV for once with MV: every read runs the
  whole derivation pipeline (VFILTER, leaf cover, selection, rewrite).
* ``read_hot`` — plan cache on (1024 plans, the pool fits), Zipf(1.1)
  draws, two closed-loop clients through ``QueryScheduler(workers=2)``
  over a ``SnapshotEngine``, on one CPU (:func:`one_cpu`): reads are
  plan-cache hits, so the time goes to the scheduler hand-off,
  coalescing, parse and plan lookup.
* ``edit_mix`` — plan cache on, one caller, every twentieth operation
  an edit and the rest Zipf(1.1) HV reads: the write path (resolve,
  patch, rebuild, scoped invalidation) and the reads that pay again for
  the plans each edit drops.

``edit_mix`` is not listed in ``BENCHMARK.json``: its deletes make the
program return wrong answers (see README.md), so some of its runs fail.  It
stays runnable so that the failure stays in view until it is fixed.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.system import MaterializedViewSystem
from repro.delta import DocumentEditor, MaintenanceReport
from repro.service import QueryScheduler, SnapshotEngine
from repro.xmltree.tree import XMLNode, XMLTree

import reference
from population import Inputs, build, digest, query_pool
from spans import Recorder, cell_sum, registry_cells

ZIPF_EXPONENT = 1.1
#: Set-ups per run, each followed by its share of the timed window;
#: ``setup_s`` is their median.
SETUPS = 3
#: Each pass runs its batches in this many slices, with the host's
#: speed measured before and after each slice (see ``reference.py``).
SLICES = 8
#: read_hot: requests per client per batch.
HOT_BATCH = 1000
#: edit_mix: operations per batch; every EDIT_EVERY-th is an edit (5%).
MIX_BATCH = 200
EDIT_EVERY = 20
HOT_WORKERS = 2
HOT_CLIENTS = 2
HOT_PLAN_CACHE = 1024
#: A delete victim keeps descending while its subtree is larger.
SMALL_SUBTREE = 8


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def zipf_deck(pool: list[str], size: int, rng: random.Random) -> list[str]:
    """``size`` requests holding each pool query in proportion to its
    Zipf(1.1) weight by pool rank (the Table III queries are the most
    popular), rounded by largest remainder, in a shuffled order.

    Every seed therefore asks the same mix and only the order differs,
    so runs with different seeds measure the same traffic.  A string
    seed is hashed with SHA-512, so the order does not depend on the
    interpreter's hash seed."""
    weights = [1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(pool) + 1)]
    shares = [size * weight / sum(weights) for weight in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(range(len(pool)),
                          key=lambda index: counts[index] - shares[index])
    for index in by_remainder[:size - sum(counts)]:
        counts[index] += 1
    deck = [query for query, count in zip(pool, counts) for _ in range(count)]
    rng.shuffle(deck)
    return deck


class EditScript:
    """Edits alternating insert and delete, at sites found by a seeded
    random walk that starts in each top-level section in turn.

    Inserts add a leaf whose label the parent already has a child of,
    so the mined schema admits it and the edit takes the delta path.
    Deletes remove a subtree of at most ``SMALL_SUBTREE`` nodes, so the
    document keeps its size.  Cycling through the sections keeps the
    mix of cheap and expensive edit sites the same in every run."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"perfbench-edits:{seed}")
        self.count = 0

    def next(self, tree: XMLTree) -> tuple[str, XMLNode, XMLNode]:
        sections = [node for node in tree.root.children if node.children]
        section = sections[(self.count // 2) % len(sections)]
        insert = self.count % 2 == 0
        self.count += 1
        rng = self._rng
        parent, node = section, rng.choice(section.children)
        while node.children and (
            rng.random() < 0.85 or node.subtree_size() > SMALL_SUBTREE
        ):
            parent, node = node, rng.choice(node.children)
        if insert:
            return "insert", parent, XMLNode(node.label)
        return "delete", parent, node


# ----------------------------------------------------------------------
# results of one window
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Tally:
    """Outcomes of the operations one pass attempted.

    A slice's tally holds times as measured; :meth:`add` folds it into
    its pass's tally with its times rescaled to the reference host
    (``read_seconds``, ``write_seconds``, ``elapsed``).  ``measured``
    and ``read_total`` stay as measured, so they can be set against
    the program's own timers.  Read latencies are kept as 8-byte
    doubles, the only record a run keeps per read.  ``derivations`` is
    filled only when ``collect`` is set (traced runs), for the
    per-layer rows."""

    collect: bool = False
    read_seconds: array = field(default_factory=lambda: array("d"))
    read_total: float = 0.0
    write_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    #: Wall time as measured, and the reference task's mean time over
    #: the slices (``reference.py``).
    measured: float = 0.0
    reference: float = 0.0
    #: Per read: (candidates, selected views, answers, derived?).
    derivations: list[tuple[int, int, int, bool]] = field(default_factory=list)
    reports: list[MaintenanceReport] = field(default_factory=list)

    @property
    def reads(self) -> int:
        return len(self.read_seconds)

    @property
    def ops_per_s(self) -> float:
        """Operations completed per second of the pass's wall time,
        rescaled to the reference host."""
        return self.attempted / self.elapsed

    @property
    def measured_ops_per_s(self) -> float:
        """Operations completed per second of wall time as measured."""
        return self.attempted / self.measured

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def add(self, part: "Tally", factor: float = 1.0) -> None:
        """Add ``part``'s counts and lists, its times multiplied by
        ``factor``."""
        self.collect = self.collect or part.collect
        self.elapsed += part.elapsed * factor
        self.measured += part.measured
        self.read_seconds.extend(
            seconds * factor for seconds in part.read_seconds)
        self.read_total += part.read_total
        self.write_seconds.extend(
            seconds * factor for seconds in part.write_seconds)
        self.attempted += part.attempted
        self.failed += part.failed
        for kind, count in part.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + count
        self.derivations.extend(part.derivations)
        self.reports.extend(part.reports)

    @classmethod
    def merged(cls, tallies: Iterable["Tally"]) -> "Tally":
        """Counts and lists summed over ``tallies``."""
        total = cls()
        for tally in tallies:
            total.add(tally)
        return total


class Oracle:
    """Direct-evaluation truth per pool query, computed outside the
    timed window and recomputed lazily after each edit.  ``truth`` may
    be shared by oracles over identical documents."""

    def __init__(self, system: MaterializedViewSystem,
                 truth: dict[str, list]):
        self._system = system
        self._truth = truth
        self.seconds = 0.0

    def truth(self, query: str) -> list:
        truth = self._truth.get(query)
        if truth is None:
            started = time.perf_counter()
            truth = self._truth[query] = self._system.direct_codes(query)
            self.seconds += time.perf_counter() - started
        return truth

    def fill(self, queries: list[str]) -> None:
        for query in queries:
            self.truth(query)

    def forget(self) -> None:
        self._truth.clear()


# ----------------------------------------------------------------------
# environments
# ----------------------------------------------------------------------
@dataclass
class Env:
    system: MaterializedViewSystem
    pool: list[str]
    editor: DocumentEditor
    scheduler: QueryScheduler | None = None

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()

    def edit(self, script: EditScript) -> MaintenanceReport:
        """Apply the script's next edit."""
        op, parent, node = script.next(self.system.document.tree)
        if op == "insert":
            assert parent.dewey is not None
            return self.editor.insert_subtree(parent.dewey, node)
        assert node.dewey is not None
        return self.editor.delete_subtree(node.dewey)


def _read(
    env: Env,
    oracle: Oracle,
    tally: Tally,
    recorder: Recorder,
    query: str,
    strategy: str,
) -> None:
    tally.attempted += 1
    started = time.perf_counter()
    try:
        if env.scheduler is not None:
            outcome = env.scheduler.submit(query, strategy)
        else:
            outcome = env.system.answer(query, strategy)
    except Exception as error:  # counted, never raised: a failed op
        tally.fail(type(error).__name__)
        return
    finished = time.perf_counter()
    tally.read_seconds.append(finished - started)
    tally.read_total += finished - started
    if tally.collect:
        tally.derivations.append((
            len(outcome.candidates),
            len(outcome.view_ids),
            len(outcome.codes),
            not outcome.plan_cache_hit,
        ))
    if env.scheduler is None:
        recorder.answer(started, finished, outcome.stage_seconds)
    else:
        # Every waiter on one flight gets a copy of its outcome, so the
        # flight's total_seconds identifies it.
        recorder.submitted(
            started, finished, (query, strategy, outcome.total_seconds),
            outcome.stage_seconds,
        )
    if outcome.codes != oracle.truth(query):
        tally.fail("wrong_answer")


def _write(
    env: Env,
    oracle: Oracle,
    tally: Tally,
    recorder: Recorder,
    script: EditScript,
) -> None:
    tally.attempted += 1
    before = registry_cells(env.system) if recorder.enabled else {}
    started = time.perf_counter()
    try:
        report = env.edit(script)
    except Exception as error:  # counted, never raised: a failed op
        tally.fail(type(error).__name__)
        oracle.forget()
        return
    finished = time.perf_counter()
    oracle.forget()
    tally.write_seconds.append(finished - started)
    tally.reports.append(report)
    if recorder.enabled:
        after = registry_cells(env.system)
        name = "repro_maintenance_delta_seconds_sum"
        stages = {
            stage: cell_sum(after, name, stage=stage)
            - cell_sum(before, name, stage=stage)
            for stage in ("resolve", "base_patch")
        }
        recorder.edit(
            started, finished, stages,
            [("patch" if view.mode == "patched" else "rebuild", view.seconds)
             for view in report.views],
        )


#: Whether the timed windows can run on one CPU (:func:`one_cpu`).
PINNED = hasattr(os, "sched_setaffinity")


@contextmanager
def one_cpu() -> Iterator[None]:
    """Run every thread of this process on one CPU while the block
    runs, where the platform allows it (:data:`PINNED`); threads
    started inside inherit it.

    Under the GIL only one thread runs Python at a time, so this costs
    the program no parallelism.  It keeps the hand-offs between client,
    scheduler worker and interpreter threads off the second vCPU, whose
    availability on the shared host otherwise sets the read tail
    (README.md, "Workloads")."""
    if not PINNED:
        yield
        return
    every = os.sched_getaffinity(0)
    _set_affinity({max(every)})
    try:
        yield
    finally:
        _set_affinity(every)


def _set_affinity(cpus: set[int]) -> None:
    for thread in threading.enumerate():
        if thread.native_id is not None:
            try:
                os.sched_setaffinity(thread.native_id, cpus)
            except ProcessLookupError:  # the thread has just ended
                pass


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
#: One request of a batch: (query, strategy), or ``EDIT`` for an edit.
Op = tuple[str, str]
EDIT: Op = ("", "edit")


def _cold_batches(pool: list[str], seed: int) -> list[list[Op]]:
    """One caller dealt a shuffled deck holding every pool query three
    times with HV and once with MV, so every seed asks every query
    equally often."""
    deck = [(query, strategy) for query in pool
            for strategy in ("HV", "HV", "HV", "MV")]
    random.Random(f"perfbench:{seed}:deck").shuffle(deck)
    return [deck]


def _hot_batches(pool: list[str], seed: int) -> list[list[Op]]:
    """``HOT_CLIENTS`` clients, each with its own Zipf(1.1) deck of HV
    reads."""
    return [
        [(query, "HV") for query in zipf_deck(
            pool, HOT_BATCH, random.Random(f"perfbench:{seed}:{client}"))]
        for client in range(HOT_CLIENTS)
    ]


def _mix_batches(pool: list[str], seed: int) -> list[list[Op]]:
    """One caller: a Zipf(1.1) deck of HV reads with an edit after
    every ``EDIT_EVERY - 1`` of them."""
    reads = iter(zipf_deck(pool, MIX_BATCH - MIX_BATCH // EDIT_EVERY,
                           random.Random(f"perfbench:{seed}:0")))
    return [[
        EDIT if index % EDIT_EVERY == EDIT_EVERY - 1
        else (next(reads), "HV")
        for index in range(MIX_BATCH)
    ]]


@dataclass(frozen=True)
class Workload:
    name: str
    plan_cache_size: int
    #: The strategies the batches use; the warm-up answers each pool
    #: query once with each.
    strategies: tuple[str, ...]
    #: Each client's request batch, replayed on every pass, from the
    #: pool and the run seed.
    batches: Callable[[list[str], int], list[list[Op]]]
    scheduled: bool = False
    edits: bool = False

    # -- set-up -------------------------------------------------------
    def setup(
        self, inputs: Inputs
    ) -> tuple[Env, dict[str, tuple[float, float]]]:
        """One timed set-up, ending with the warm-up: one answer for
        every (pool query, strategy) pair the workload asks, on one CPU
        like the timed window."""
        def warm(system: MaterializedViewSystem) -> Env:
            pool = query_pool(system)
            env = Env(system, pool, DocumentEditor(system))
            if self.scheduled:
                env.scheduler = QueryScheduler(
                    SnapshotEngine(system), workers=HOT_WORKERS,
                    queue_limit=64, default_timeout=30.0,
                )
            with one_cpu():
                for query in pool:
                    for strategy in self.strategies:
                        if env.scheduler is not None:
                            env.scheduler.submit(query, strategy)
                        else:
                            system.answer(query, strategy)
            return env

        return build(inputs, self.plan_cache_size, warm)

    # -- timed window -------------------------------------------------
    def window(
        self,
        env: Env,
        oracle: Oracle,
        batches: list[list[Op]],
        seconds: float,
        recorder: Recorder,
        script: EditScript,
    ) -> list[tuple[Tally, bool]]:
        """Replay the batches pass after pass until ``seconds`` have
        passed (at least one pass).  With the recorder enabled the
        window lasts twice as long and every other pass is traced.
        A pass runs its batches in ``SLICES`` slices and rescales each
        slice's times by the reference measurements around it.  The
        window runs on one CPU (:func:`one_cpu`).
        Returns each pass's tally and whether it was traced."""
        with one_cpu():
            return self._passes(env, oracle, batches, seconds, recorder,
                                script)

    def _passes(
        self,
        env: Env,
        oracle: Oracle,
        batches: list[list[Op]],
        seconds: float,
        recorder: Recorder,
        script: EditScript,
    ) -> list[tuple[Tally, bool]]:
        untraced = Recorder(False)
        passes: list[tuple[Tally, bool]] = []
        length = seconds * (2 if recorder.enabled else 1)
        minimum = 2 if recorder.enabled else 1
        started = time.perf_counter()
        while (len(passes) < minimum
               or time.perf_counter() - started < length):
            traced = recorder.enabled and len(passes) % 2 == 1
            current = recorder if traced else untraced
            tally = Tally(collect=recorder.enabled)
            references = [reference.measure()]
            for index in range(SLICES):
                parts = [
                    batch[len(batch) * index // SLICES:
                          len(batch) * (index + 1) // SLICES]
                    for batch in batches
                ]
                if len(parts) == 1:
                    part = self._serial(env, oracle, parts[0], current,
                                        script, collect=recorder.enabled)
                else:
                    part = self._concurrent(env, oracle, parts, current,
                                            collect=recorder.enabled)
                references.append(reference.measure())
                tally.add(part, reference.scale(*references[-2:]))
            tally.reference = sum(references) / len(references)
            passes.append((tally, traced))
        return passes

    def _serial(
        self, env: Env, oracle: Oracle, batch: list[Op], recorder: Recorder,
        script: EditScript, collect: bool,
    ) -> Tally:
        """One caller; oracle work after an edit is not timed."""
        tally = Tally(collect=collect)
        oracle_before = oracle.seconds
        started = time.perf_counter()
        for op in batch:
            if op == EDIT:
                _write(env, oracle, tally, recorder, script)
            else:
                _read(env, oracle, tally, recorder, *op)
        tally.elapsed = tally.measured = (
            time.perf_counter() - started - (oracle.seconds - oracle_before)
        )
        return tally

    def _concurrent(
        self, env: Env, oracle: Oracle, batches: list[list[Op]],
        recorder: Recorder, collect: bool,
    ) -> Tally:
        """Closed loop: each client sends its next request when the
        previous one returns.  Batches hold reads only, so the oracle is
        filled and the clients only read it."""
        oracle.fill(env.pool)
        tallies = [Tally(collect=collect) for _ in batches]
        gate = threading.Barrier(len(batches) + 1)

        def client(index: int) -> None:
            gate.wait()
            for query, strategy in batches[index]:
                _read(env, oracle, tallies[index], recorder, query, strategy)

        threads = [
            threading.Thread(target=client, args=(index,),
                             name=f"perfbench-client-{index}")
            for index in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        gate.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        recorder.settle()
        merged = Tally.merged(tallies)
        merged.elapsed = merged.measured = time.perf_counter() - started
        return merged


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("read_cold", plan_cache_size=0, strategies=("HV", "MV"),
                 batches=_cold_batches),
        Workload("read_hot", plan_cache_size=HOT_PLAN_CACHE,
                 strategies=("HV",), batches=_hot_batches, scheduled=True),
        Workload("edit_mix", plan_cache_size=HOT_PLAN_CACHE,
                 strategies=("HV",), batches=_mix_batches, edits=True),
    )
}


def batches_digest(batches: list[list[Op]]) -> str:
    """Digest of every client's request batch."""
    return digest(*(
        "\n".join(f"{strategy} {query}" for query, strategy in batch)
        for batch in batches
    ))
