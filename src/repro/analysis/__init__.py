"""``reprolint`` — project-specific static analysis for the repro codebase.

The system's headline guarantee — byte-identical annotations across the
scalar, batched and fused engines — plus the serving tier's shared-state
concurrency rest on invariants no generic linter checks:

* **determinism** — no unseeded randomness, no wall clock flowing into
  cache keys, no unordered iteration in the fused hot paths, where fused
  runs are planned (:mod:`repro.analysis.rules.determinism`),
* **lock discipline** — attributes written under a class's
  ``threading.Lock`` must never be touched outside one
  (:mod:`repro.analysis.rules.locks`),
* **numpy contracts** — pooled scratch buffers must not escape their
  borrower, and engine-module array allocation must pin ``dtype=``
  (:mod:`repro.analysis.rules.numpy_contracts`),
* **wire-schema strictness** — every dataclass field of a wire type must
  round-trip through both ``to_json`` and ``from_json``
  (:mod:`repro.analysis.rules.wire_schema`).

Run it as ``repro lint`` or ``python -m repro.analysis``.  Findings are
suppressible inline with a *justified* comment::

    self._index  # reprolint: ignore[lock-unguarded-attr]: read is atomic

and pre-existing findings live in a committed JSON baseline
(``reprolint_baseline.json``) that may only ever shrink — CI fails on any
finding not already in it.  See README "Static analysis".
"""

from repro.analysis.registry import Finding, Rule, all_rules
from repro.analysis.runner import LintResult, main, run_lint

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "LintResult",
    "run_lint",
    "main",
]
