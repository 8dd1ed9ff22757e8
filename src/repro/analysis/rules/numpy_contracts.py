"""Numpy contracts for the engine modules.

Two contracts the vectorized engines live by:

* **scratch buffers never escape.**  The pooled / thread-local scratch
  helpers (``_borrow``, ``_compact_scratch``, anything named ``*scratch*``)
  hand out views of reused backing memory; the borrower may mutate the view
  freely but must copy before the array leaves the function (return, store
  on ``self``, append to a container) — the next borrower will overwrite
  the bytes underneath it.
* **engine allocations pin their dtype.**  ``np.zeros`` / ``np.empty`` /
  ``np.full`` in the hot engine modules must say ``dtype=`` explicitly:
  the byte-identity guarantees across scalar/batched/fused engines depend
  on every array's width being a stated decision, not an inherited default.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.registry import Finding, register
from repro.analysis.walker import ParsedModule

#: modules holding vectorized engine code (the byte-identity hot paths)
ENGINE_MODULES = (
    "src/repro/core/candidates.py",
    "src/repro/core/fused.py",
    "src/repro/graph/fused.py",
    "src/repro/text/index.py",
)

_ALLOCATORS = frozenset({"zeros", "empty", "full"})

#: a call to one of these hands out pooled / reused scratch memory
_SCRATCH_HELPER = re.compile(r"scratch|borrow", re.IGNORECASE)


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@register
class MissingDtypeRule:
    rule_id = "np-missing-dtype"
    severity = "warning"
    description = (
        "np.zeros/np.empty/np.full in an engine module without an explicit "
        "dtype=; byte-identity across engines requires stated array widths"
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path in ENGINE_MODULES

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            yield Finding(
                rel_path=module.rel_path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                severity=self.severity,
                message=(
                    f"np.{func.attr}() without dtype= in an engine module — "
                    f"make the array width explicit (the default is an "
                    f"unstated float64 dependency)"
                ),
            ).with_context(module)


@register
class ScratchEscapeRule:
    rule_id = "np-scratch-escape"
    severity = "error"
    description = (
        "an array borrowed from a pooled/thread-local scratch helper "
        "escapes its borrowing function without .copy(); the backing "
        "buffer is reused and will be overwritten"
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith("src/repro/")

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _SCRATCH_HELPER.search(node.name):
                    continue  # the helper itself legitimately returns scratch
                yield from self._check_function(module, node)

    def _check_function(
        self,
        module: ParsedModule,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        borrowed = self._borrowed_names(function)
        if not borrowed:
            return
        for node in ast.walk(function):
            if isinstance(node, ast.Return) and node.value is not None:
                name = self._escaping_name(node.value, borrowed)
                if name is not None:
                    yield self._finding(
                        module,
                        node,
                        f"scratch array '{name}' is returned without "
                        f".copy()",
                    )
            elif isinstance(node, ast.Assign):
                name = self._escaping_name(node.value, borrowed)
                if name is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        yield self._finding(
                            module,
                            node,
                            f"scratch array '{name}' is stored on "
                            f"{ast.unparse(target)} without .copy()",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and (
                    node.func.attr in ("append", "extend", "insert")
                    # container .add() takes exactly one argument; a wider
                    # signature is some compute method (np.add, plan.add)
                    or (node.func.attr == "add" and len(node.args) == 1)
                )
                and not (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                )
            ):
                for arg in node.args:
                    name = self._escaping_name(arg, borrowed)
                    if name is not None:
                        yield self._finding(
                            module,
                            node,
                            f"scratch array '{name}' is stashed via "
                            f".{node.func.attr}() without .copy()",
                        )

    def _borrowed_names(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        """Local names bound to the result of a scratch-helper call."""
        names: set[str] = set()
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if not _SCRATCH_HELPER.search(_callee_name(node.value)):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _escaping_name(
        self, expr: ast.expr, borrowed: set[str]
    ) -> str | None:
        """The borrowed name behind ``expr`` when it escapes uncopied."""
        if isinstance(expr, ast.Name) and expr.id in borrowed:
            return expr.id
        if isinstance(expr, ast.Subscript):
            return self._escaping_name(expr.value, borrowed)
        return None

    def _finding(
        self, module: ParsedModule, node: ast.AST, detail: str
    ) -> Finding:
        return Finding(
            rel_path=module.rel_path,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule_id,
            severity=self.severity,
            message=(
                f"{detail} — pooled scratch memory is overwritten by the "
                f"next borrower"
            ),
        ).with_context(module)
