"""Determinism rules.

The whole reproduction is built on "same input, same bytes out" — the
engines are proven equivalent by byte-comparison, bundle caches are
content-addressed, and a corpus must be cut into the same fused runs on
every run.  Two per-module ways that property silently dies:

* an **unseeded random source** (module-level ``random.*`` or legacy
  ``np.random.*``) varies per process,
* **unordered iteration** in the fused hot paths makes run and block
  construction depend on insertion history rather than content.

Wall clock flowing into identities is the interprocedural
``det-taint-interproc`` rule (see :mod:`repro.analysis.rules.taint`),
which replaced the old lexical ``det-wallclock-key`` heuristic.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.registry import Finding, register
from repro.analysis.walker import ParsedModule

#: module-level ``random`` functions that read the shared, unseeded state
_UNSEEDED_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

#: legacy numpy global-state RNG entry points
_NP_RANDOM_FNS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
    }
)

#: the hot fused-execution modules (run planning included) and the f1/f2
#: battery, whose float sums follow token order, held to content-ordering
_ORDER_SENSITIVE_MODULES = (
    "src/repro/core/battery.py",
    "src/repro/core/fused.py",
    "src/repro/graph/fused.py",
)


def _call_name(node: ast.Call) -> str:
    """The rightmost name of a call target (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@register
class UnseededRandomRule:
    rule_id = "det-unseeded-random"
    severity = "error"
    description = (
        "module-level random.* / legacy np.random.* reads shared unseeded "
        "state; thread a random.Random(seed) / np.random.default_rng(seed) "
        "through instead"
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith("src/repro/")

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            # random.<fn>(...) on the module itself
            if isinstance(value, ast.Name) and value.id == "random":
                if func.attr in _UNSEEDED_RANDOM_FNS:
                    yield self._finding(
                        module,
                        node,
                        f"random.{func.attr}() uses the shared unseeded "
                        f"global RNG",
                    )
                elif func.attr == "Random" and not node.args:
                    yield self._finding(
                        module,
                        node,
                        "random.Random() without a seed is "
                        "OS-entropy-seeded; pass an explicit seed",
                    )
            # np.random.<fn>(...) / numpy.random.<fn>(...)
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                if func.attr in _NP_RANDOM_FNS:
                    yield self._finding(
                        module,
                        node,
                        f"np.random.{func.attr}() uses numpy's global RNG "
                        f"state",
                    )
                elif func.attr == "default_rng" and not node.args:
                    yield self._finding(
                        module,
                        node,
                        "np.random.default_rng() without a seed is "
                        "OS-entropy-seeded; pass an explicit seed",
                    )

    def _finding(
        self, module: ParsedModule, node: ast.AST, detail: str
    ) -> Finding:
        return Finding(
            rel_path=module.rel_path,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule_id,
            severity=self.severity,
            message=f"{detail} — annotation output must be seed-deterministic",
        ).with_context(module)


@register
class UnorderedIterationRule:
    rule_id = "det-unordered-iter"
    severity = "warning"
    description = (
        "iteration over dict views / sets in a planning or fused hot path "
        "follows insertion (or hash) order, not content order; wrap in "
        "sorted() or justify why the build order is itself deterministic"
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path in _ORDER_SENSITIVE_MODULES

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        iters: list[ast.expr] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, ast.comprehension):
                iters.append(node.iter)
        for expr in iters:
            detail = self._unordered_detail(expr)
            if detail is None:
                continue
            yield Finding(
                rel_path=module.rel_path,
                line=expr.lineno,
                col=expr.col_offset,
                rule_id=self.rule_id,
                severity=self.severity,
                message=(
                    f"iterating {detail} in a hot planning path — order "
                    f"here must be a function of content (sorted), not of "
                    f"build history"
                ),
            ).with_context(module)

    def _unordered_detail(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name == "sorted":
                return None
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
                "items",
                "keys",
                "values",
            ):
                return f"a dict .{expr.func.attr}() view"
            if isinstance(expr.func, ast.Name) and expr.func.id in (
                "set",
                "frozenset",
            ):
                return f"a {expr.func.id}()"
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set expression"
        return None
