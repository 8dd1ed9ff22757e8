"""Catalog substrate: types, entities, binary relations and their lemmas.

This package models the knowledge catalog of the paper (Section 3.1):

* a **type hierarchy** — a DAG of types connected by the subtype relation
  ``T1 <= T2`` (:mod:`repro.catalog.types`),
* an **entity store** — entities attached to one or more direct types, each
  carrying a set of textual lemmas (:mod:`repro.catalog.entities`),
* a **relation store** — named binary relations with a type schema
  ``B(T1, T2)`` and a set of ground tuples ``B(E1, E2)``
  (:mod:`repro.catalog.relations`),
* the :class:`~repro.catalog.catalog.Catalog` facade tying them together with
  the derived quantities used by the annotator: ``E(T)``, ``T(E)``,
  ``dist(E, T)``, least common ancestors and the missing-link relatedness
  measure,
* JSON/TSV persistence (:mod:`repro.catalog.io`),
* a fluent :class:`~repro.catalog.builder.CatalogBuilder`, and
* a seeded synthetic YAGO-substitute generator
  (:mod:`repro.catalog.synthetic`) used because the YAGO 2008-w40-2 dump is
  not available offline.
"""

from repro.catalog.builder import CatalogBuilder
from repro.catalog.catalog import Catalog
from repro.catalog.entities import Entity, EntityStore
from repro.catalog.errors import CatalogError, CycleError, UnknownIdError
from repro.catalog.io import load_catalog_json, save_catalog_json
from repro.catalog.relations import Cardinality, Relation, RelationStore
from repro.catalog.synthetic import SyntheticCatalogConfig, SyntheticCatalogGenerator
from repro.catalog.types import Type, TypeHierarchy

__all__ = [
    "Catalog",
    "CatalogBuilder",
    "CatalogError",
    "Cardinality",
    "CycleError",
    "Entity",
    "EntityStore",
    "Relation",
    "RelationStore",
    "SyntheticCatalogConfig",
    "SyntheticCatalogGenerator",
    "Type",
    "TypeHierarchy",
    "UnknownIdError",
    "load_catalog_json",
    "save_catalog_json",
]
