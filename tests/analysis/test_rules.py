"""Golden-fixture tests: each rule family on violating / clean / suppressed
source.  Fixture trees mirror the real path layout because every rule
scopes itself by ``rel_path``.
"""

from __future__ import annotations

from tests.analysis.conftest import rule_ids

# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_unseeded_random_flagged(lint_tree):
    result = lint_tree(
        {
            "src/repro/core/thing.py": """\
            import random
            import numpy as np

            def jitter():
                a = random.random()
                b = random.Random()
                c = np.random.rand(3)
                d = np.random.default_rng()
                return a, b, c, d
            """
        }
    )
    assert rule_ids(result) == ["det-unseeded-random"] * 4


def test_seeded_random_clean(lint_tree):
    result = lint_tree(
        {
            "src/repro/core/thing.py": """\
            import random
            import numpy as np

            def jitter(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random(), gen.random()
            """
        }
    )
    assert result.findings == []


def test_wallclock_in_cache_key_flagged(lint_tree):
    result = lint_tree(
        {
            "src/repro/pipeline/thing.py": """\
            import time

            def cache_key(table):
                return (table.name, time.time())

            def timestamp():
                return time.time()
            """
        }
    )
    # flagged inside cache_key, allowed inside timestamp
    assert rule_ids(result) == ["det-taint-interproc"]
    assert result.findings[0].line == 4


def test_unordered_iter_scoped_to_hot_modules(lint_tree):
    source = """\
    def plan(jobs):
        out = []
        for name, job in jobs.items():
            out.append((name, job))
        for name in sorted(jobs.keys()):
            out.append(name)
        return out
    """
    hot = lint_tree({"src/repro/core/fused.py": source})
    assert rule_ids(hot) == ["det-unordered-iter"]
    assert hot.findings[0].line == 3  # the sorted() loop is clean
    # the f1/f2 battery's float sums follow token order
    battery = lint_tree({"src/repro/core/battery.py": source})
    assert rule_ids(battery) == ["det-unordered-iter"]
    assert battery.findings[0].line == 3
    cold = lint_tree({"src/repro/pipeline/other.py": source})
    assert cold.findings == []


# ----------------------------------------------------------------------
# lock discipline
# ----------------------------------------------------------------------

_LOCKED_CLASS = """\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []
        self._count = 0

    def add(self, item):
        with self._lock:
            self._items.append(item)
            self._count += 1

    def peek(self):
        return self._items[-1]
"""


def test_unguarded_access_flagged(lint_tree):
    result = lint_tree({"src/repro/core/box.py": _LOCKED_CLASS})
    assert rule_ids(result) == ["lock-unguarded-attr"]
    finding = result.findings[0]
    assert "Box._items" in finding.message
    assert finding.line == 16


def test_guarded_access_clean(lint_tree):
    clean = _LOCKED_CLASS.replace(
        "    def peek(self):\n        return self._items[-1]\n",
        "    def peek(self):\n"
        "        with self._lock:\n"
        "            return self._items[-1]\n",
    )
    result = lint_tree({"src/repro/core/box.py": clean})
    assert result.findings == []


def test_init_writes_exempt(lint_tree):
    # __init__ writes _items without the lock and must not be flagged
    result = lint_tree({"src/repro/core/box.py": _LOCKED_CLASS})
    assert all(finding.line != 7 for finding in result.findings)


def test_justified_suppression_accepted(lint_tree):
    suppressed = _LOCKED_CLASS.replace(
        "    def peek(self):\n        return self._items[-1]\n",
        "    def peek(self):\n"
        "        # reprolint: ignore[lock-unguarded-attr]: benign race,\n"
        "        # callers tolerate a stale snapshot\n"
        "        return self._items[-1]\n",
    )
    result = lint_tree({"src/repro/core/box.py": suppressed})
    assert result.findings == []
    assert result.suppressed_count == 1


def test_unjustified_suppression_rejected(lint_tree):
    suppressed = _LOCKED_CLASS.replace(
        "    def peek(self):\n        return self._items[-1]\n",
        "    def peek(self):\n"
        "        # reprolint: ignore[lock-unguarded-attr]\n"
        "        return self._items[-1]\n",
    )
    result = lint_tree({"src/repro/core/box.py": suppressed})
    assert rule_ids(result) == ["bad-suppression"]


def test_stale_suppression_flagged(lint_tree):
    result = lint_tree(
        {
            "src/repro/core/box.py": """\
            # reprolint: ignore[lock-unguarded-attr]: nothing here needs it
            X = 1
            """
        }
    )
    assert rule_ids(result) == ["unused-suppression"]


# ----------------------------------------------------------------------
# numpy contracts
# ----------------------------------------------------------------------


def test_missing_dtype_flagged_in_engine_module(lint_tree):
    source = """\
    import numpy as np

    def alloc(n):
        a = np.zeros(n)
        b = np.empty(n, dtype=np.float64)
        c = np.full(n, -np.inf)
        return a, b, c
    """
    engine = lint_tree({"src/repro/core/fused.py": source})
    assert rule_ids(engine) == ["np-missing-dtype"] * 2
    elsewhere = lint_tree({"src/repro/core/other.py": source})
    assert elsewhere.findings == []


def test_scratch_escape_flagged(lint_tree):
    result = lint_tree(
        {
            "src/repro/core/engine.py": """\
            class Engine:
                def _borrow(self, n):
                    return self._pool.take(n)

                def scores(self, n):
                    buf = self._borrow(n)
                    buf[:] = 1.0
                    return buf

                def stash(self, n, out):
                    buf = self._borrow(n)
                    out.append(buf)

                def safe(self, n):
                    buf = self._borrow(n)
                    return buf.copy()
            """
        }
    )
    assert rule_ids(result) == ["np-scratch-escape"] * 2
    assert [finding.line for finding in result.findings] == [8, 12]


# ----------------------------------------------------------------------
# wire schema
# ----------------------------------------------------------------------


def test_wire_field_missing_from_decoder_flagged(lint_tree):
    result = lint_tree(
        {
            "src/repro/api/shapes.py": """\
            from dataclasses import dataclass


            @dataclass
            class Msg:
                name: str
                score: float

                def to_json(self):
                    return {"name": self.name, "score": self.score}

                @classmethod
                def from_json(cls, data):
                    return cls(data["name"], 0.0)
            """
        }
    )
    # "score" appears in to_json but never (by any name) in from_json
    assert rule_ids(result) == ["wire-roundtrip-field"]
    assert "from_json" in result.findings[0].message


def test_wire_dynamic_decoder_clean(lint_tree):
    result = lint_tree(
        {
            "src/repro/api/shapes.py": """\
            import dataclasses
            from dataclasses import dataclass


            @dataclass
            class Msg:
                name: str
                score: float

                def to_json(self):
                    return {"name": self.name, "score": self.score}

                @classmethod
                def from_json(cls, data):
                    kwargs = {
                        f.name: data[f.name]
                        for f in dataclasses.fields(cls)
                    }
                    return cls(**kwargs)
            """
        }
    )
    assert result.findings == []


def test_non_wire_dataclass_ignored(lint_tree):
    result = lint_tree(
        {
            "src/repro/api/shapes.py": """\
            from dataclasses import dataclass


            @dataclass
            class Internal:
                name: str

                def to_json(self):
                    return {"name": self.name}
            """
        }
    )
    assert result.findings == []
