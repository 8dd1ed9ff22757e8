"""Versioned on-disk artifact bundles: build offline, serve warm.

The paper's deployment splits into an offline annotation phase and an online
query phase.  This module is that split's contract: ``build_bundle``
serializes everything the query path needs —

* the catalog and the trained :class:`~repro.core.model.AnnotationModel`,
* the **frozen lemma index** with its precomputed IDF values, posting arrays
  and document norms (as flat ``.npy`` vectors, loaded array-backed /
  memory-mapped instead of re-running ``freeze()``); its IDF values are
  also the ones f1/f2 weigh tokens with,
* the corpus tables and their **pre-computed annotations** (full fidelity,
  scores included),
* the annotated table index's frozen header/context text indexes, and
* the candidate engine's **interned candidate tables** (entity / type /
  relation id interning, type-ancestor arrays, packed pair→relations,
  per-relation tuple keys and the f3 grid of every (type, entity) pair —
  see :class:`~repro.core.candidates.InternedCandidateTables`), so a warm
  server skips that build exactly as it skips ``freeze()``, and pre-fork
  workers share one memory-mapped copy,

under a ``manifest.json`` carrying the format version, per-file SHA-256
content hashes and build statistics.  ``load_bundle`` verifies and restores
all of it; startup cost drops from "re-annotate the corpus" to "read
arrays" (the Figure-7 bench measures the ratio).  Verification requires a
hash for every file of :data:`BUNDLE_FILES`, the list the build writes, so
nothing is read that no hash covers.

Bundle layout (format version 4 — version-1 bundles predate the candidate
tables, version-2 bundles the f3 grid, and version-3 bundles carried a
second copy of the lemma IDF as a JSON document-frequency table; all are
rejected with a rebuild hint)::

    bundle/
      manifest.json          version, hashes, identity, build stats
      catalog.json           repro.catalog.io format
      model.json             AnnotationModel.to_dict
      tables.jsonl           one Table per line, corpus order
      annotations.jsonl      one full-fidelity annotation per line
      indexes/<name>.meta.json     tokens + document keys
      indexes/<name>.<field>.npy   offsets / doc_ids / weights / idf / doc_norm
      candidates/interned.meta.json    entity / type / relation id lists
      candidates/interned.<field>.npy  ancestor / pair / tuple arrays, f3 grid

where ``<name>`` is ``lemma``, ``header`` or ``context``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.io import catalog_from_dict, catalog_to_dict
from repro.core.model import AnnotationModel
from repro.pipeline.io import annotation_from_payload, annotation_to_payload
from repro.pipeline.pipeline import AnnotationPipeline, PipelineConfig
from repro.search.table_index import AnnotatedTableIndex
from repro.serve.errors import BundleError, BundleIntegrityError, BundleVersionError
from repro.tables.model import LabeledTable, Table
from repro.text.index import InvertedIndex

FORMAT_VERSION = 4
MANIFEST_NAME = "manifest.json"
TEXT_INDEX_NAMES = ("lemma", "header", "context")
_INDEX_FIELDS = ("offsets", "doc_ids", "weights", "idf", "doc_norm")
_CANDIDATE_META_FIELDS = ("entity_ids", "type_ids", "relation_ids")
_CANDIDATE_ARRAY_FIELDS = (
    "anc_offsets",
    "anc_flat",
    "type_specificity",
    "pair_keys",
    "pair_offsets",
    "pair_relations",
    "tuple_offsets",
    "tuple_keys_by_relation",
    "f3_grid",
)
#: every file of a bundle besides its manifest, as manifest keys: what
#: :func:`build_bundle` writes and hashes, and what :func:`verify_bundle`
#: requires a hash for before :func:`load_bundle` reads any of it
BUNDLE_FILES = (
    "catalog.json",
    "model.json",
    "tables.jsonl",
    "annotations.jsonl",
    *(
        f"indexes/{name}.{suffix}"
        for name in TEXT_INDEX_NAMES
        for suffix in ("meta.json", *(f"{f}.npy" for f in _INDEX_FIELDS))
    ),
    "candidates/interned.meta.json",
    *(f"candidates/interned.{f}.npy" for f in _CANDIDATE_ARRAY_FIELDS),
)

#: each manifest field's JSON kinds, as Python types (a bool is no int)
_MANIFEST_FIELD_TYPES = {
    "format_version": (int,),
    "created_unix": (int, float),
    "files": (dict,),
    "identity": (dict,),
    "stats": (dict,),
}


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
@dataclass
class BundleManifest:
    """Everything needed to trust and describe a bundle."""

    format_version: int = FORMAT_VERSION
    created_unix: float = 0.0
    #: relative file path -> sha256 hex digest
    files: dict[str, str] = field(default_factory=dict)
    #: content fingerprints tying the bundle to its inputs
    identity: dict = field(default_factory=dict)
    #: build-time statistics (table counts, annotate seconds, cache rates)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "created_unix": self.created_unix,
            "files": dict(sorted(self.files.items())),
            "identity": self.identity,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "BundleManifest":
        """Decode a manifest; :class:`BundleError` when it, or one of its
        fields, is of the wrong JSON kind, or its ``files`` name a file
        outside :data:`BUNDLE_FILES`."""
        if not isinstance(payload, dict):
            raise BundleError(
                f"bundle manifest is a JSON {type(payload).__name__}, not an object"
            )
        manifest = cls(
            format_version=payload.get("format_version"),
            created_unix=payload.get("created_unix", 0.0),
            files=payload.get("files", {}),
            identity=payload.get("identity", {}),
            stats=payload.get("stats", {}),
        )
        for name, kinds in _MANIFEST_FIELD_TYPES.items():
            value = getattr(manifest, name)
            if type(value) not in kinds:
                raise BundleError(
                    f"bundle manifest field {name} is a {type(value).__name__}"
                )
        if not all(isinstance(digest, str) for digest in manifest.files.values()):
            raise BundleError("bundle manifest files must map names to sha256 strings")
        # a name outside the layout (a "..", an absolute path) would make
        # verification read a file beside the bundle
        strays = sorted(set(manifest.files) - set(BUNDLE_FILES))
        if strays:
            raise BundleError(f"bundle manifest names no bundle file: {strays[0]!r}")
        return manifest


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# index state <-> files
# ----------------------------------------------------------------------
def _encode_key(key):
    """Document keys are str or tuples; JSON stores tuples as lists."""
    return list(key) if isinstance(key, tuple) else key


def _decode_key(key):
    return tuple(key) if isinstance(key, list) else key


def _write_index_state(directory: Path, name: str, state: dict) -> None:
    """Persist one frozen-index state."""
    (directory / f"{name}.meta.json").write_text(
        json.dumps(
            {
                "tokens": state["tokens"],
                "doc_keys": [_encode_key(key) for key in state["doc_keys"]],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    for field_name in _INDEX_FIELDS:
        np.save(directory / f"{name}.{field_name}.npy", np.asarray(state[field_name]))


def _read_index_state(directory: Path, name: str, mmap: bool) -> dict:
    meta = json.loads((directory / f"{name}.meta.json").read_text(encoding="utf-8"))
    state: dict = {
        "tokens": meta["tokens"],
        "doc_keys": [_decode_key(key) for key in meta["doc_keys"]],
    }
    mmap_mode = "r" if mmap else None
    for field_name in _INDEX_FIELDS:
        state[field_name] = np.load(
            directory / f"{name}.{field_name}.npy", mmap_mode=mmap_mode
        )
    return state


# ----------------------------------------------------------------------
# interned candidate tables <-> files
# ----------------------------------------------------------------------
def _write_candidate_state(directory: Path, state: dict) -> None:
    """Persist the interned candidate tables."""
    (directory / "interned.meta.json").write_text(
        json.dumps(
            {name: list(state[name]) for name in _CANDIDATE_META_FIELDS},
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    for field_name in _CANDIDATE_ARRAY_FIELDS:
        np.save(directory / f"interned.{field_name}.npy", np.asarray(state[field_name]))


def _read_candidate_state(directory: Path, mmap: bool) -> dict:
    meta = json.loads(
        (directory / "interned.meta.json").read_text(encoding="utf-8")
    )
    state: dict = {name: meta[name] for name in _CANDIDATE_META_FIELDS}
    mmap_mode = "r" if mmap else None
    for field_name in _CANDIDATE_ARRAY_FIELDS:
        state[field_name] = np.load(
            directory / f"interned.{field_name}.npy", mmap_mode=mmap_mode
        )
    return state


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def build_bundle(
    output: str | Path,
    catalog: Catalog,
    tables: Iterable[Table | LabeledTable],
    model: AnnotationModel | None = None,
    pipeline: AnnotationPipeline | None = None,
    config: PipelineConfig | None = None,
) -> BundleManifest:
    """Annotate ``tables`` and write a complete bundle under ``output``.

    ``tables`` is consumed as a stream: each table is annotated through the
    pipeline, appended to ``tables.jsonl`` / ``annotations.jsonl`` and folded
    into the in-memory table index, so peak memory matches a plain corpus
    annotation run.  Returns the manifest (also written to disk).
    """
    output = Path(output)
    output.mkdir(parents=True, exist_ok=True)
    (output / "indexes").mkdir(exist_ok=True)
    (output / "candidates").mkdir(exist_ok=True)
    if pipeline is None:
        pipeline = AnnotationPipeline(catalog, model=model, config=config)
    model = pipeline.model

    start = time.perf_counter()
    index = AnnotatedTableIndex(catalog=catalog)
    tables_path = output / "tables.jsonl"
    annotations_path = output / "annotations.jsonl"
    n_tables = 0
    with (
        tables_path.open("w", encoding="utf-8") as tables_handle,
        annotations_path.open("w", encoding="utf-8") as annotations_handle,
    ):
        for table, annotation in pipeline.annotate_with_tables(tables):
            index.add_table(table, annotation)
            tables_handle.write(
                json.dumps(table.to_dict(), ensure_ascii=False) + "\n"
            )
            annotations_handle.write(
                json.dumps(annotation_to_payload(annotation), ensure_ascii=False)
                + "\n"
            )
            n_tables += 1
    index.freeze()
    annotate_seconds = time.perf_counter() - start

    catalog_payload = json.dumps(
        catalog_to_dict(catalog), ensure_ascii=False, indent=1
    )
    (output / "catalog.json").write_text(catalog_payload, encoding="utf-8")
    model_payload = json.dumps(model.to_dict(), indent=1)
    (output / "model.json").write_text(model_payload, encoding="utf-8")

    engine = pipeline.annotator.candidate_engine
    header_state, context_state = index.text_index_states()
    _write_index_state(output / "indexes", "lemma", engine.lemma_index.to_state())
    _write_index_state(output / "indexes", "header", header_state)
    _write_index_state(output / "indexes", "context", context_state)
    # the candidate engine's interned tables: reuse the pipeline's (it
    # annotated the whole corpus with them)
    _write_candidate_state(output / "candidates", engine.tables.to_state())

    report = pipeline.last_report
    manifest = BundleManifest(
        format_version=FORMAT_VERSION,
        created_unix=time.time(),
        stats={
            "n_tables": n_tables,
            "annotate_seconds": round(annotate_seconds, 6),
            "catalog": catalog.stats(),
            "index": index.stats(),
            "cache_hit_rate": (
                round(report.cache.hit_rate, 4)
                if report is not None and report.cache is not None
                else None
            ),
        },
    )
    for relative in BUNDLE_FILES:
        manifest.files[relative] = _sha256_file(output / relative)
    manifest.identity = {
        # catalog.json's content hash doubles as the catalog fingerprint
        "catalog_sha256": manifest.files["catalog.json"],
        "model_sha256": model.fingerprint(),
        "catalog_name": catalog.name,
    }
    (output / MANIFEST_NAME).write_text(
        json.dumps(manifest.to_dict(), indent=1), encoding="utf-8"
    )
    return manifest


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
@dataclass
class LoadedBundle:
    """A bundle restored into warm, immutable serving state."""

    path: Path
    manifest: BundleManifest
    catalog: Catalog
    model: AnnotationModel
    table_index: AnnotatedTableIndex
    lemma_index: InvertedIndex
    #: interned candidate tables (candidates/ arrays) for the candidate
    #: engine; restored via InternedCandidateTables.from_state
    candidate_state: dict | None = None


def read_manifest(path: str | Path) -> BundleManifest:
    """Parse and version-check a bundle's manifest (no content verification)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleError(f"not a bundle: {path} has no {MANIFEST_NAME}")
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BundleError(
            f"unreadable bundle manifest {manifest_path}: {error}"
        ) from error
    # an integer version is read before the rest of the shape: another
    # version's manifest may be shaped differently
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if type(version) is int and version != FORMAT_VERSION:
        raise BundleVersionError(
            f"bundle {path} has format version {version}; "
            f"this build supports version {FORMAT_VERSION} — rebuild the "
            f"bundle with `repro bundle build`"
        )
    return BundleManifest.from_dict(payload)


def verify_bundle(path: str | Path, manifest: BundleManifest) -> None:
    """Check the manifest hashes every file of :data:`BUNDLE_FILES`, and
    every file it lists exists with the recorded hash."""
    path = Path(path)
    for relative in BUNDLE_FILES:
        if relative not in manifest.files:
            raise BundleIntegrityError(f"bundle manifest lists no hash for {relative}")
    for relative, expected in manifest.files.items():
        file_path = path / relative
        if not file_path.is_file():
            raise BundleIntegrityError(f"bundle file missing: {relative}")
        actual = _sha256_file(file_path)
        if actual != expected:
            raise BundleIntegrityError(
                f"bundle file corrupted: {relative} (sha256 {actual[:12]}… "
                f"does not match manifest {expected[:12]}…)"
            )


def load_bundle(
    path: str | Path, verify: bool = True, mmap: bool = True
) -> LoadedBundle:
    """Restore a bundle written by :func:`build_bundle`.

    ``verify`` re-hashes every file against the manifest (a corrupted or
    tampered bundle raises :class:`BundleIntegrityError` before any of it is
    used); ``mmap`` memory-maps the index arrays instead of copying them.
    """
    path = Path(path)
    manifest = read_manifest(path)
    if verify:
        verify_bundle(path, manifest)

    catalog = catalog_from_dict(
        json.loads((path / "catalog.json").read_text(encoding="utf-8"))
    )
    model = AnnotationModel.from_dict(
        json.loads((path / "model.json").read_text(encoding="utf-8"))
    )
    lemma_index = InvertedIndex.from_state(
        _read_index_state(path / "indexes", "lemma", mmap)
    )
    header_index = InvertedIndex.from_state(
        _read_index_state(path / "indexes", "header", mmap)
    )
    context_index = InvertedIndex.from_state(
        _read_index_state(path / "indexes", "context", mmap)
    )
    candidate_state = _read_candidate_state(path / "candidates", mmap)

    tables: list[Table] = []
    with (path / "tables.jsonl").open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                tables.append(Table.from_dict(json.loads(line)))
    annotations = {}
    with (path / "annotations.jsonl").open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                annotation = annotation_from_payload(json.loads(line))
                annotations[annotation.table_id] = annotation

    table_index = AnnotatedTableIndex.from_artifacts(
        catalog, tables, annotations, header_index, context_index
    )
    return LoadedBundle(
        path=path,
        manifest=manifest,
        catalog=catalog,
        model=model,
        table_index=table_index,
        lemma_index=lemma_index,
        candidate_state=candidate_state,
    )
