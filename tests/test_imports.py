"""What the entry points load at import time.

Every ``repro`` command and every serving worker pays its imports at
start.  scipy is only needed by the Section-4.4.1 primary-key constraint
(``repro.core.constraints``, imported lazily where a unique column is
asked for), so neither entry point may load it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_load_no_scipy():
    code = (
        "import sys\n"
        "import repro.cli\n"
        "import repro.serve.server\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
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
    assert result.stdout.strip() == "[]"
