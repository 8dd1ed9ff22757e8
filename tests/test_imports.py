"""What the entry points load at import time.

Every ``repro`` command and every serving worker pays its imports at
start.  scipy is only needed by the Section-4.4.1 primary-key constraint
(``repro.core.constraints``, imported lazily where a unique column is
asked for), and the static analyzer (``repro.analysis``) only by ``repro
lint``, so neither entry point may load them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_at_start(package: str) -> list[str]:
    """Modules of ``package`` loaded by importing the CLI (and building
    its parser) and the server."""
    code = (
        "import json, sys\n"
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "import repro.serve.server\n"
        f"print(json.dumps(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r}))))\n"
    )
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [environment.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout)


def test_entry_points_load_no_scipy():
    assert loaded_at_start("scipy") == []


def test_entry_points_load_no_analyzer():
    assert loaded_at_start("repro.analysis") == []
