"""Effect inference for xmvrlint.

One fixpoint over the project call graph, solved with the generic
engine in :mod:`repro.analysis.dataflow`: every function gets an
:class:`Effect` record (mutates / reads / io / clock / raises /
blocks), the lattice behind rule L8's pure / reads-state /
mutates-state classification, L14's blocking check and L7's "may this
call raise?".  Direct effects come from the function's own IR
(attribute writes, table hits for I/O and wall-clock calls); callee
effects propagate along resolved call edges.  Two deliberate
carve-outs keep memoization pure: writes to attributes that are
clearly caches (``_cache``, ``_memo``, hit/miss counters) do not count
as mutation, and neither do writes through *fresh* receivers (objects
constructed inside the function).  Constructor calls never propagate
``mutates`` — a ``__init__`` mutating its own brand-new ``self`` is
invisible to the caller's state.

Which state a write dirties, and which derived state must then be
invalidated, is not decided here: that is the ``#: state:`` derivation
DAG of :mod:`repro.analysis.statedeps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .callgraph import Project
from .dataflow import CallRef, FunctionSummary, solve_fixpoint

__all__ = [
    "Effect",
    "classify",
    "ProgramFacts",
    "analyze",
]


# ======================================================================
# effect lattice
# ======================================================================
@dataclass(frozen=True, slots=True)
class Effect:
    """One function's inferred effects; join is pointwise or.

    ``blocks`` marks functions that may block the calling thread for an
    unbounded time (I/O, sleeps, queue waits, thread joins, explicit
    ``acquire``).  ``Condition.wait`` is deliberately *not* folded in:
    a gate helper that waits on its own condition releases the lock
    while parked, so it must not poison every caller — rule L14 checks
    direct ``wait`` sites against the held set instead.
    """

    mutates: bool = False
    reads: bool = False
    io: bool = False
    clock: bool = False
    raises: bool = False
    blocks: bool = False

    def join(self, other: "Effect") -> "Effect":
        return Effect(
            mutates=self.mutates or other.mutates,
            reads=self.reads or other.reads,
            io=self.io or other.io,
            clock=self.clock or other.clock,
            raises=self.raises or other.raises,
            blocks=self.blocks or other.blocks,
        )

    @property
    def cache_safe(self) -> bool:
        """Safe to feed into a cache key: deterministic and effect-free
        (reading state is fine — that state is the function's input)."""
        return not (self.mutates or self.io or self.clock)


def classify(effect: Effect) -> str:
    """The three-rung lattice of DESIGN.md §10: pure < reads-state <
    mutates-state (io / clock imply mutates-state for classification —
    they touch the world)."""
    if effect.mutates or effect.io or effect.clock:
        return "mutates-state"
    if effect.reads:
        return "reads-state"
    return "pure"


#: Builtin calls that perform I/O.
IO_CALL_NAMES = {"open", "print", "input"}
#: Modules any call into which counts as I/O (or reads the process
#: environment, which is just as nondeterministic).
IO_ROOTS = {"os", "sys", "shutil", "subprocess", "socket", "tempfile"}
#: Method names that perform I/O on unresolved (file-like) receivers.
IO_METHODS = {
    "write", "writelines", "read", "readline", "readlines", "flush",
    "fsync", "seek", "truncate", "unlink", "rename", "replace", "touch",
    "read_text", "write_text", "read_bytes", "write_bytes",
}
#: Wall-clock / entropy sources, by module root and callable name.
CLOCK_ROOTS = {"time", "datetime", "random"}
CLOCK_NAMES = {
    "time", "monotonic", "perf_counter", "process_time", "now", "utcnow",
    "today", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "getrandbits",
}
#: Container methods that mutate their receiver.
GENERIC_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "sort", "reverse",
}
#: Attribute-name markers for the memoization carve-out.
MEMO_MARKERS = ("cache", "memo", "hits", "misses", "stats")


def _is_memo_attr(attr: str) -> bool:
    lowered = attr.lower()
    return any(marker in lowered for marker in MEMO_MARKERS)


def _call_clock(call: CallRef, imports: dict[str, str]) -> bool:
    if call.receiver_fresh:
        # rng = random.Random(seed): a seeded generator is deliberate
        # determinism, not wall-clock.
        return False
    chain = call.chain
    if len(chain) > 1 and chain[0] in CLOCK_ROOTS and call.name in CLOCK_NAMES:
        return True
    if len(chain) == 1:
        target = imports.get(chain[0], "")
        return (
            target.split(".")[0] in CLOCK_ROOTS
            and call.name in CLOCK_NAMES
        )
    return False


def _call_io(call: CallRef, imports: dict[str, str]) -> bool:
    chain = call.chain
    if len(chain) == 1:
        if call.name in IO_CALL_NAMES:
            return True
        target = imports.get(chain[0], "")
        return target.split(".")[0] in IO_ROOTS
    if chain[0] in IO_ROOTS:
        return True
    return call.name in IO_METHODS and not call.receiver_fresh


def _call_blocking(call: CallRef, imports: dict[str, str]) -> bool:
    """May this call park the calling thread for an unbounded time?

    I/O is blocking; so are ``time.sleep``, blocking ``queue``
    get/put (the ``*_nowait`` variants are not), joining something
    that looks like a thread, and an explicit ``acquire``.  Receiver
    shape is the discriminator for the method families — ``list.get``
    does not exist, but ``dict.get`` does, so ``get``/``put`` only
    count when the receiver chain mentions a queue.
    """
    if _call_io(call, imports):
        return True
    chain = call.chain
    name = call.name
    if name == "sleep" and (
        (len(chain) > 1 and chain[0] == "time")
        or (len(chain) == 1 and imports.get("sleep", "").startswith("time"))
    ):
        return True
    if name == "acquire":
        return True
    receiver_text = "_".join(chain[:-1]).lower()
    if name == "join" and "thread" in receiver_text:
        return True
    if name in ("get", "put") and "queue" in receiver_text:
        return True
    return False


# ======================================================================
# whole-program facts
# ======================================================================
@dataclass(slots=True)
class ProgramFacts:
    """Results of the whole-program effect analysis (rules L7, L8,
    L14)."""

    project: Project
    effects: dict[str, Effect] = field(default_factory=dict)

    def effect_of(self, fqname: str) -> Effect:
        return self.effects.get(fqname, Effect())


# ======================================================================
# fixpoint 1: effects
# ======================================================================
def _direct_effect(
    project: Project, fqname: str, function: FunctionSummary
) -> Effect:
    module = project.module_of.get(fqname, "")
    imports = project.imports_of.get(module, {})
    resolved = {call for call, _ in project.callees(fqname)}
    mutates = False
    io = False
    clock = False
    raises = False
    blocks = False
    for step in function.iter_steps():
        if step.kind == "raise":
            raises = True
        for write in step.writes:
            if write.fresh:
                continue
            if _is_memo_attr(write.attr):
                continue
            if write.global_write or len(write.chain) > 1 or write.subscript:
                mutates = True
        for call in step.calls:
            if call.chain == ("<dynamic>",):
                continue
            if _call_clock(call, imports):
                clock = True
            if _call_io(call, imports):
                io = True
            if call in resolved:
                # Resolved project calls contribute via the fixpoint;
                # name-based I/O / blocking heuristics would misfire on
                # project methods that happen to be called ``read``.
                continue
            if _call_blocking(call, imports):
                blocks = True
            if (
                len(call.chain) > 1
                and call.name in GENERIC_MUTATORS
                and not call.receiver_fresh
                and not _is_memo_attr(call.chain[-2])
            ):
                mutates = True
    return Effect(
        mutates=mutates,
        reads=function.reads_state,
        io=io,
        clock=clock,
        raises=raises or io,
        blocks=blocks,
    )


def _solve_effects(project: Project) -> dict[str, Effect]:
    direct = {
        fqname: _direct_effect(project, fqname, function)
        for fqname, function in project.iter_functions()
    }

    def transfer(fqname: str, get: Callable[[str], Effect]) -> Effect:
        effect = direct[fqname]
        for call, callee in project.callees(fqname):
            callee_summary = project.functions.get(callee)
            callee_effect = get(callee)
            propagated = callee_effect
            if call.receiver_fresh or (
                callee_summary is not None
                and callee_summary.name == "__init__"
                and call.name != "__init__"
            ):
                propagated = replace(propagated, mutates=False)
            effect = effect.join(
                replace(propagated, raises=propagated.raises or propagated.io)
            )
        return replace(effect, raises=effect.raises or effect.io)

    return solve_fixpoint(list(project.functions), Effect(), transfer)


# ======================================================================
# driver
# ======================================================================
def analyze(project: Project) -> ProgramFacts:
    """Run the effect fixpoint; the single entry point used by rules
    L7, L8 and L14."""
    return ProgramFacts(project=project, effects=_solve_effects(project))
