"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it prints the
paper-style rows, writes them to ``benchmarks/results/<name>.txt`` (so the
output survives pytest's capture), asserts the qualitative *shape* the paper
reports, and times a representative unit of work with pytest-benchmark.

Scale: larger than the unit tests (hundreds of tables) but laptop-friendly —
the whole harness runs in a few minutes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.catalog.synthetic import SyntheticCatalogConfig, generate_world
from repro.core.annotator import TableAnnotator
from repro.core.learning import TrainingConfig
from repro.core.model import default_model
from repro.eval.datasets import DatasetSizes, build_standard_datasets
from repro.eval.experiments import train_model

RESULTS_DIR = Path(__file__).parent / "results"


#: Difficulty dials shared by every bench dataset: more alternate-lemma
#: mentions (surname-only cells), more out-of-catalog rows.  Together with
#: BENCH_WORLD_CONFIG this pushes the task toward YAGO-scale ambiguity so the
#: algorithms separate the way the paper's Figure 6/8/9 do.
BENCH_GENERATOR_OVERRIDES = {
    "alternate_lemma_prob": 0.5,
    "unknown_cell_prob": 0.08,
    # the paper's tables average 35-37 rows; long tables are what break the
    # LCA intersection while leaving vote-based methods stable
    "rows_range": (12, 38),
}

BENCH_WORLD_CONFIG = SyntheticCatalogConfig(
    seed=7,
    n_persons=420,
    n_movies=200,
    n_novels=140,
    n_albums=90,
    n_countries=20,
    cities_per_country=3,
    n_clubs=24,
    multi_role_prob=0.25,
    surname_lemma_prob=0.65,
    initial_lemma_prob=0.7,
    adaptation_fraction=0.35,
    # redundant near-duplicate categories (Wikipedia-style) so over-specific
    # type scoring can misfire — this is what separates the Figure-8 modes
    alias_category_fraction=0.5,
    # heavier catalog incompleteness (YAGO-like): attacks phi3 containment,
    # exercising the missing-link repair and separating the Figure-8 modes
    drop_instance_link_prob=0.25,
    drop_subtype_link_prob=0.12,
    drop_tuple_prob=0.2,
)


@pytest.fixture(scope="session")
def bench_overrides():
    return dict(BENCH_GENERATOR_OVERRIDES)


@pytest.fixture(scope="session")
def bench_world():
    """A harder world: ~900 entities with heavy surname/title sharing."""
    return generate_world(BENCH_WORLD_CONFIG)


@pytest.fixture(scope="session")
def bench_datasets(bench_world):
    """Dataset analogues at roughly 1/3 of the paper's sizes."""
    return build_standard_datasets(
        bench_world,
        DatasetSizes(wiki_manual=24, web_manual=48, web_relations=16, wiki_link=60),
        generator_overrides=BENCH_GENERATOR_OVERRIDES,
    )


@pytest.fixture(scope="session")
def trained_model(bench_world, bench_datasets):
    """w1..w5 trained on the Wiki Manual analogue (paper Section 6.1.3)."""
    return train_model(
        bench_world,
        bench_datasets["wiki_manual"].tables,
        training=TrainingConfig(epochs=3, seed=0),
    )


@pytest.fixture(scope="session")
def bench_annotator(bench_world, trained_model):
    return TableAnnotator(bench_world.annotator_view, model=trained_model)


@pytest.fixture(scope="session")
def default_bench_model():
    return default_model()


@pytest.fixture(scope="session")
def emit():
    """Writer for figure outputs: prints AND persists under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _emit


def git_sha() -> str | None:
    """The checkout's commit, suffixed ``-dirty`` when tracked files differ
    from it; None outside a git checkout."""
    root = Path(__file__).resolve().parent.parent

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


@pytest.fixture(scope="session")
def emit_json():
    """Machine-readable perf trajectory: merges sections into BENCH_<name>.json.

    Each call updates one section of ``results/BENCH_<bench>.json`` in place,
    so partial runs (``-k section``) refresh only their own numbers while the
    rest of the trajectory file survives.  Every section records the run's
    context beside its numbers: smoke or full, Python version and the git
    sha of the checkout (see :func:`git_sha`).  CI uploads the file as an artifact
    and a local run is committed at the repo root — grep ``BENCH_*.json`` to
    see the speed history.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    sha = git_sha()

    def _emit_json(bench: str, section: str, payload: dict) -> Path:
        path = RESULTS_DIR / f"BENCH_{bench}.json"
        document = {"bench": bench, "sections": {}}
        if path.exists():
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                pass  # unreadable history: start the file over
        document["bench"] = bench
        document["generated_unix"] = round(time.time(), 3)
        # run context is recorded per section: a partial run (-k) must not
        # relabel sections that survive from an earlier full/non-smoke run
        document.setdefault("sections", {})[section] = {
            **payload,
            "smoke": bool(os.environ.get("REPRO_BENCH_SMOKE")),
            "python": platform.python_version(),
            "git_sha": sha,
            "recorded_unix": round(time.time(), 3),
        }
        path.write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    return _emit_json
