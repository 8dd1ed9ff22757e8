#!/usr/bin/env python3
"""Documentation checks: markdown links, runnable examples, layer contract,
documented CLI flags, code references.

Five subcommands, all exercised by CI's ``docs`` job:

``links``
    Scan every tracked ``*.md`` file for relative links and verify each
    target resolves inside the repository.  Anchored links
    (``docs/FILE.md#section`` or ``#section``) are also checked against
    the target file's headings using GitHub's anchor slug rules, so a
    renamed section breaks the build rather than the reader.

``examples``
    Run every script under ``examples/`` with ``REPRO_SMOKE=1`` (the
    convention every example honours to shrink its corpus) and fail on
    any non-zero exit.  This keeps the examples from rotting as the API
    moves.

``layers``
    Verify ``docs/ARCHITECTURE.md`` contains, verbatim, every tier line
    of the import-layer contract declared in
    ``src/repro/analysis/layers.py`` — the same declaration ``repro
    lint``'s ``arch-layering`` rule enforces — so the documented contract
    cannot drift from the enforced one.

``flags``
    Verify every ``--flag`` named in a markdown table row of
    ``README.md`` and ``docs/*.md`` is accepted by at least one
    subcommand of ``repro.cli.build_parser()``, so a table row for a
    deleted flag fails CI.  (``repro lint``'s ``config-knob-drift`` rule
    checks the other direction: every config field has a flag and a
    mention.)

``refs``
    Verify every backticked code reference outside code fences in
    ``README.md`` and ``docs/*.md`` still names something: a dotted
    ``repro.…`` name must resolve by import plus attribute walk, and a
    ``….py`` path (optionally suffixed ``::name``) must exist under the
    repository root, ``src/repro/`` or ``src/`` — so a doc naming a
    deleted module, class or file fails CI.  The other direction too:
    every ``….md`` name in a ``.py`` file under ``src/`` or
    ``benchmarks/`` must name a file relative to the repository root.

Run all with no arguments::

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: inline markdown links, including the multi-line ``[text\n](target)``
#: style this repo uses to keep lines short
LINK_PATTERN = re.compile(r"\]\(([^)\s]+)\)")
#: schemes that are external by definition — not ours to verify
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: directories never scanned for markdown
SKIP_DIRS = {".git", ".venv", "__pycache__", "node_modules", ".mypy_cache"}
#: a long option such as ``--answer-cache-size`` (not a table rule ``---``)
FLAG_PATTERN = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: an inline code span; it may wrap onto the next line
CODE_SPAN_PATTERN = re.compile(r"`([^`]+)`")
#: a span that is exactly a dotted name in the package
DOTTED_PATTERN = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
#: a span that is exactly a python file path, optionally ``::name``-suffixed
PY_PATH_PATTERN = re.compile(r"([\w./-]+\.py)(?:::[\w.]+)?")
#: a markdown file name cited in python source
MD_NAME_PATTERN = re.compile(r"[\w./-]+\.md\b")


def readme_and_docs() -> list[Path]:
    """The user-facing documents: README.md and docs/*.md."""
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def iter_markdown_files() -> list[Path]:
    found = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            found.append(path)
    return found


def strip_code_blocks(text: str) -> str:
    """Blank out fenced code blocks — their ``#`` lines are not headings,
    their bracketed text is not links and their ``|`` lines are not table
    rows; line numbers are kept."""
    out: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return "\n".join(out)


def anchor_slug(heading: str) -> str:
    """GitHub's heading-to-anchor rule: lowercase, strip punctuation,
    spaces to hyphens."""
    text = heading.strip().lstrip("#").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def collect_anchors(path: Path) -> set[str]:
    anchors = set()
    for line in strip_code_blocks(path.read_text()).splitlines():
        if line.startswith("#"):
            anchors.add(anchor_slug(line))
    return anchors


def check_links() -> list[str]:
    problems: list[str] = []
    for markdown in iter_markdown_files():
        text = strip_code_blocks(markdown.read_text())
        for target in LINK_PATTERN.findall(text):
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            relative = markdown.relative_to(REPO_ROOT)
            path_part, _, anchor = target.partition("#")
            resolved = (
                markdown if not path_part else (markdown.parent / path_part)
            ).resolve()
            if not resolved.exists():
                problems.append(f"{relative}: broken link -> {target}")
                continue
            if anchor and resolved.suffix == ".md":
                if anchor not in collect_anchors(resolved):
                    problems.append(
                        f"{relative}: anchor #{anchor} not found in "
                        f"{resolved.relative_to(REPO_ROOT)}"
                    )
    return problems


def check_examples() -> list[str]:
    problems: list[str] = []
    environment = dict(os.environ, REPRO_SMOKE="1")
    environment["PYTHONPATH"] = (
        f"{REPO_ROOT / 'src'}{os.pathsep}{environment.get('PYTHONPATH', '')}"
    )
    scripts = sorted((REPO_ROOT / "examples").glob("*.py"))
    for script in scripts:
        name = script.relative_to(REPO_ROOT)
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, str(script)],
            env=environment,
            capture_output=True,
            text=True,
            timeout=600,
        )
        elapsed = time.perf_counter() - started
        if result.returncode != 0:
            problems.append(
                f"{name}: exit {result.returncode}\n"
                f"--- stderr (tail) ---\n{result.stderr[-2000:]}"
            )
            print(f"  FAIL {name} ({elapsed:.1f}s)")
        else:
            print(f"  ok   {name} ({elapsed:.1f}s)")
    return problems


def check_layers() -> list[str]:
    """``docs/ARCHITECTURE.md`` must contain every declared tier line."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis.layers import contract_lines
    finally:
        sys.path.pop(0)
    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    problems: list[str] = []
    for line in contract_lines():
        if line not in architecture:
            problems.append(
                f"docs/ARCHITECTURE.md: missing layer-contract line "
                f"{line!r} (see src/repro/analysis/layers.py)"
            )
    return problems


def cli_flags() -> set[str]:
    """Every option string some ``repro`` subcommand accepts."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    flags: set[str] = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags


def check_flags() -> list[str]:
    """Every ``--flag`` in a table row of README.md and docs/*.md must be
    accepted by some ``repro`` subcommand."""
    accepted = cli_flags()
    problems: list[str] = []
    for markdown in readme_and_docs():
        relative = markdown.relative_to(REPO_ROOT)
        text = strip_code_blocks(markdown.read_text())
        for number, line in enumerate(text.splitlines(), 1):
            if not line.lstrip().startswith("|"):
                continue
            for flag in FLAG_PATTERN.findall(line):
                if flag not in accepted:
                    problems.append(
                        f"{relative}:{number}: table row documents {flag}, "
                        f"which no repro subcommand accepts"
                    )
    return problems


def resolves(dotted: str) -> bool:
    """Whether a dotted name imports: the longest importable module
    prefix, then the rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


def check_refs() -> list[str]:
    """Every backticked ``repro.…`` name in README.md and docs/*.md must
    resolve and every backticked ``….py`` path must exist; every ``….md``
    name in python source under src/ and benchmarks/ must exist."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        problems: list[str] = []
        roots = (REPO_ROOT, REPO_ROOT / "src" / "repro", REPO_ROOT / "src")
        for markdown in readme_and_docs():
            relative = markdown.relative_to(REPO_ROOT)
            text = strip_code_blocks(markdown.read_text())
            for match in CODE_SPAN_PATTERN.finditer(text):
                span = " ".join(match.group(1).split())
                number = text.count("\n", 0, match.start()) + 1
                if DOTTED_PATTERN.fullmatch(span):
                    if not resolves(span):
                        problems.append(
                            f"{relative}:{number}: `{span}` does not resolve"
                        )
                    continue
                path = PY_PATH_PATTERN.fullmatch(span)
                if path and not any((root / path.group(1)).is_file() for root in roots):
                    problems.append(
                        f"{relative}:{number}: `{span}` names no file under "
                        f"the repo root, src/repro/ or src/"
                    )
        for directory in ("src", "benchmarks"):
            for source in sorted((REPO_ROOT / directory).rglob("*.py")):
                relative = source.relative_to(REPO_ROOT)
                for number, line in enumerate(source.read_text().splitlines(), 1):
                    for name in MD_NAME_PATTERN.findall(line):
                        if not (REPO_ROOT / name).is_file():
                            problems.append(
                                f"{relative}:{number}: {name} names no file "
                                f"under the repo root"
                            )
        return problems
    finally:
        sys.path.pop(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "check",
        nargs="?",
        choices=("links", "examples", "layers", "flags", "refs", "all"),
        default="all",
    )
    args = parser.parse_args()

    problems: list[str] = []
    if args.check in ("links", "all"):
        print("checking intra-repo markdown links ...")
        link_problems = check_links()
        problems.extend(link_problems)
        print(f"  {len(iter_markdown_files())} files, {len(link_problems)} broken")
    if args.check in ("layers", "all"):
        print("checking ARCHITECTURE.md against the declared layer contract ...")
        layer_problems = check_layers()
        problems.extend(layer_problems)
        print(f"  {len(layer_problems)} drifted line(s)")
    if args.check in ("flags", "all"):
        print("checking documented CLI flags against repro's parser ...")
        flag_problems = check_flags()
        problems.extend(flag_problems)
        print(f"  {len(flag_problems)} unknown flag(s)")
    if args.check in ("refs", "all"):
        print("checking code references in README.md and docs/, doc names in code ...")
        ref_problems = check_refs()
        problems.extend(ref_problems)
        print(f"  {len(ref_problems)} dangling reference(s)")
    if args.check in ("examples", "all"):
        print("running examples/ in smoke mode (REPRO_SMOKE=1) ...")
        problems.extend(check_examples())

    if problems:
        print("\nFAILURES:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
