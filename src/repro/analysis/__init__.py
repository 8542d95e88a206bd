"""Static analysis for the reproduction: ``xmvrlint``.

A linter with repo-specific rules (see DESIGN.md §10 for the catalog),
run with ``python -m repro lint`` or the ``xmvrlint`` console script:

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — the rule
  registry, suppressions, fact cache and output formats, and the rules
  themselves: per-file AST rules L2–L5 (frozen interned patterns,
  ``id()``-key escapes, wall-clock/randomness bans in ``core/``,
  public-API annotation coverage) and whole-program rules L7–L19.
* The whole-program passes the project rules run on:
  :mod:`repro.analysis.callgraph` and :mod:`repro.analysis.dataflow`
  (call graph and IR), :mod:`repro.analysis.effects` (the effect
  lattice behind L8 and L14), :mod:`repro.analysis.concurrency` (lock
  discipline, L10–L14), and :mod:`repro.analysis.statedeps` — the
  ``#: state:`` derivation DAG, the one model of what every cache
  (the plan cache included) depends on: exception safety of mutation
  windows (L7) and derived-state ownership (L15–L19).

The runtime contracts (``XMVR_CHECK=1``) that check the paper's
guarantees at stage boundaries live in :mod:`repro.core.contracts`.
"""

from __future__ import annotations

__all__ = ["engine", "rules", "lintcli"]
